#ifndef MAGMA_MO_NSGA2_H_
#define MAGMA_MO_NSGA2_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mo/pareto.h"
#include "opt/magma_ga.h"
#include "opt/optimizer.h"

namespace magma::mo {

/** Outcome of one multi-objective search. */
struct MoSearchResult {
    /**
     * Bounded non-dominated archive over EVERY evaluated candidate
     * (stronger than the final population's first front): no candidate
     * the search ever scored — including warm-start seeds — dominates
     * any member.
     */
    ParetoArchive front;
    int64_t samplesUsed = 0;
};

/**
 * Interface of mapping methods that can optimize an objective VECTOR.
 * api::solve dispatches here when a SearchSpec carries a non-empty
 * `objectives` list; registry methods that don't implement it are
 * rejected with a clear error.
 */
class MultiObjective {
  public:
    virtual ~MultiObjective() = default;

    /**
     * Search `engine.evaluator()`'s problem for the Pareto front of
     * `objectives` (order defines the reported vectors; entry 0 is the
     * primary used for scalar summaries), scoring every candidate on
     * `engine`. Spends opts.sampleBudget simulations total — each
     * candidate is simulated once for ALL objectives. Uses
     * opts.sampleBudget and opts.seeds; recordConvergence and
     * recordSamples are scalar-path knobs and are ignored.
     */
    virtual MoSearchResult searchMo(
        const exec::EvalEngine& engine,
        const std::vector<sched::Objective>& objectives,
        const opt::SearchOptions& opts = {}) = 0;
};

/** NSGA-II hyper-parameters. */
struct Nsga2Config {
    /**
     * Population size + the MAGMA-specialized operator rates (Section
     * V-B) reused verbatim from opt::MagmaGa — crossover-gen/-rg/-accel
     * and per-gene mutation work on the same two-genome encoding
     * regardless of how fitness is ranked. `ops.eliteRatio` is unused:
     * NSGA-II's elitism is the (rank, crowding) environmental selection.
     */
    opt::MagmaConfig ops;
    /** Archive bound (ParetoArchive capacity); 0 = unbounded. */
    size_t archiveCapacity = 128;
};

/**
 * NSGA-II (Deb et al. 2002) over MAGMA's mapping encoding: fast
 * non-dominated sorting + crowding-distance selection, breeding through
 * opt::MagmaGa's crossover/mutation operators, scoring whole
 * generations through mo::VectorFitness (one simulation per candidate
 * for all objectives).
 *
 * Determinism matches every optimizer in the repo: at a fixed seed the
 * returned front is bitwise identical across thread counts and
 * evaluation kernels — all randomness flows through the inherited rng_
 * on the calling thread, scoring results arrive in submission order,
 * and selection ties break on stable indices.
 *
 * As an opt::Optimizer (registry name "NSGA-II"), a scalar search runs
 * the same generational loop on the single-objective vector
 * {eval.objective()} through the SearchRecorder, so budget accounting,
 * convergence curves and warm starts behave like every other method.
 */
class Nsga2 : public opt::Optimizer, public MultiObjective {
  public:
    explicit Nsga2(uint64_t seed, Nsga2Config cfg = {})
        : Optimizer(seed), cfg_(cfg)
    {}

    std::string name() const override { return "NSGA-II"; }
    const Nsga2Config& config() const { return cfg_; }

    MoSearchResult searchMo(const exec::EvalEngine& engine,
                            const std::vector<sched::Objective>& objectives,
                            const opt::SearchOptions& opts = {}) override;

  protected:
    void run(const sched::MappingEvaluator& eval,
             const opt::SearchOptions& opts,
             opt::SearchRecorder& rec) override;

  private:
    /**
     * Score a generation; returns vectors for the prefix the remaining
     * budget afforded (shorter than the input once exhausted).
     */
    using ScoreFn = std::function<std::vector<ObjectiveVector>(
        const std::vector<sched::Mapping>&)>;

    /**
     * The generational loop shared by searchMo (VectorFitness scoring)
     * and the scalar run() (SearchRecorder scoring): breed with the
     * MagmaGa operators, rank with (rank, crowding), archive every
     * scored candidate. Stops when `score` truncates.
     */
    void evolve(int group_size, int num_accels,
                const std::vector<sched::Mapping>& seeds,
                const ScoreFn& score, ParetoArchive& archive);

    Nsga2Config cfg_;
};

}  // namespace magma::mo

#endif  // MAGMA_MO_NSGA2_H_
