#ifndef MAGMA_OPT_OPTIMIZER_H_
#define MAGMA_OPT_OPTIMIZER_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sched/evaluator.h"
#include "sched/mapping.h"

namespace magma::exec {
class EvalEngine;
}  // namespace magma::exec

namespace magma::opt {

/**
 * Search knobs shared by every optimization method (Section VI-B: "all
 * optimization methods are given the same sampling budget").
 */
struct SearchOptions {
    /** Fitness evaluations allowed (10K in the paper's main experiments). */
    int64_t sampleBudget = 10000;
    /** Record the best-so-far fitness after every sample (Figs. 11, 16). */
    bool recordConvergence = false;
    /** Record every sampled mapping for PCA projection (Fig. 10). */
    bool recordSamples = false;
    /** Warm-start seeds injected into the initial population (Section V-C). */
    std::vector<sched::Mapping> seeds;
};

/** Outcome of one search run. */
struct SearchResult {
    sched::Mapping best;
    double bestFitness = -std::numeric_limits<double>::infinity();
    int64_t samplesUsed = 0;
    /** best-so-far fitness after sample i (when recordConvergence). */
    std::vector<double> convergence;
    /** every sampled mapping (when recordSamples). */
    std::vector<sched::Mapping> sampled;
    /** fitness of every sampled mapping (when recordSamples). */
    std::vector<double> sampledFitness;
};

/**
 * Budget meter + incumbent tracker every optimizer funnels its fitness
 * calls through, so budget accounting and convergence curves are uniform
 * across methods. Candidates are scored on `engine`, which must outlive
 * the recorder; its lane count changes only wall-clock, never a fitness
 * value, the budget accounting or a convergence curve.
 */
class SearchRecorder {
  public:
    SearchRecorder(const exec::EvalEngine& engine, const SearchOptions& opts);

    /**
     * Evaluate a candidate, spend one budget unit, update the incumbent.
     * Must not be called once exhausted().
     */
    double evaluate(const sched::Mapping& m);

    /**
     * Evaluate a whole generation. Only the first remaining() candidates
     * are evaluated (and paid for) when the batch overruns the budget;
     * the returned vector holds their fitness in submission order and its
     * size tells the caller how far it got. Bookkeeping — budget meter,
     * incumbent, convergence curve, sample log — is applied in submission
     * order, so the result is bitwise identical to looping `evaluate`
     * over the same candidates, at any thread count. Returns empty once
     * exhausted().
     *
     * `cutoff` is EvalEngine::evaluateBatch's: a candidate proven to
     * score below it may return an upper bound below it instead of its
     * fitness. It still costs one sample, and it cannot move the
     * incumbent when `cutoff` is at most bestFitness(). With
     * recordSamples the cutoff is ignored, so the sample log stays exact.
     */
    std::vector<double> evaluateBatch(
        std::span<const sched::Mapping> ms,
        double cutoff = -std::numeric_limits<double>::infinity());

    bool exhausted() const { return used_ >= budget_; }
    int64_t remaining() const { return budget_ - used_; }
    int64_t used() const { return used_; }
    double bestFitness() const { return result_.bestFitness; }
    const sched::Mapping& best() const { return result_.best; }

    /** Finalize and hand out the result. */
    SearchResult finish();

  private:
    /** Spend one budget unit on (m, fitness) — the shared bookkeeping. */
    void record(const sched::Mapping& m, double f);

    // The SearchOptions fields the recorder reads (not the seeds).
    int64_t budget_;
    bool record_convergence_;
    bool record_samples_;
    SearchResult result_;
    int64_t used_ = 0;
    const exec::EvalEngine* engine_;
    // Counters on for this search (the level read once), plus the
    // generation cursor behind the opt.generation spans.
    bool obs_counters_ = false;
    int64_t generation_ = 0;
    std::vector<uint8_t> bounded_;  // per candidate, for the counter
};

/**
 * The population of a generational GA (MAGMA, stdGA), kept in two
 * buffers of mappings plus parallel fitness that swap every generation.
 * Breeding assigns children into the next generation's pre-sized slots,
 * which reuses their capacity, so the generation loop allocates no
 * mappings in steady state.
 *
 * Per generation: rank() the current one best-first, carryElites(),
 * fill child(i) for every slot past the elites, then advance().
 */
class GaPopulation {
  public:
    /** `seeds` first (at most `size`), then uniform random mappings. */
    GaPopulation(int size, const std::vector<sched::Mapping>& seeds,
                 int group_size, int num_accels, common::Rng& rng);

    /**
     * Score the whole current generation. Returns false when the budget
     * truncated the batch; the caller should then stop.
     */
    bool scoreAll(SearchRecorder& rec);

    /**
     * Order the `top` best individuals of the current generation; ranks
     * from `top` on are unspecified. The order is total: fitness
     * descending, then slot descending, so of two equal scores the later
     * slot (a child over a carried elite) ranks first, and NaN ranks
     * below every number. The top ranks therefore depend only on the
     * (fitness, slot) pairs that hold them.
     */
    void rank(int top);
    /** The r-th best individual as of the last rank(). */
    const sched::Mapping& ranked(int r) const { return cur_[order_[r]]; }
    double rankedFitness(int r) const { return curFit_[order_[r]]; }

    /** Copy the `elites` best into the next generation's first slots. */
    void carryElites(int elites);
    /** Next-generation slot `i` to breed into. */
    sched::Mapping& child(int i) { return next_[i]; }

    /**
     * Score next-generation slots [first, end) and make it the current
     * generation. With `bound`, slots [0, first) hold carried elites in
     * rank order, and a child proven to score below the last of them
     * keeps an upper bound below it instead of its fitness. Every elite
     * outranks such a child under either value, so rank(first) orders
     * exactly what an unbounded generation would.
     */
    void advance(SearchRecorder& rec, int first, bool bound = false);

  private:
    std::vector<sched::Mapping> cur_, next_;
    std::vector<double> curFit_, nextFit_;
    std::vector<int> order_;
};

/**
 * Base class of every mapping-search method in M3E (Table IV): the manual
 * baselines, the black-box optimizers, the RL agents and MAGMA all
 * implement this interface, which is what lets M3E swap them freely.
 */
class Optimizer {
  public:
    explicit Optimizer(uint64_t seed) : rng_(seed) {}
    virtual ~Optimizer() = default;

    /** Method name as the paper's plots label it. */
    virtual std::string name() const = 0;

    /**
     * Run the search against `engine.evaluator()` under the given
     * options, scoring every candidate on `engine`.
     */
    SearchResult search(const exec::EvalEngine& engine,
                        const SearchOptions& opts = {});

  protected:
    /** Method body; draw randomness from rng_, evaluate through rec. */
    virtual void run(const sched::MappingEvaluator& eval,
                     const SearchOptions& opts, SearchRecorder& rec) = 0;

    common::Rng rng_;
};

}  // namespace magma::opt

#endif  // MAGMA_OPT_OPTIMIZER_H_
