#ifndef MAGMA_OPT_MAGMA_GA_H_
#define MAGMA_OPT_MAGMA_GA_H_

#include "opt/optimizer.h"

namespace magma::opt {

/**
 * MAGMA hyper-parameters (Section V-B2/V-B3 tuned values) plus the
 * operator-ablation switches exercised by the Fig. 16 harness.
 */
struct MagmaConfig {
    int population = 100;           ///< paper: set to group size
    double eliteRatio = 0.2;
    double mutationRate = 0.05;     ///< per-gene
    double crossoverGenRate = 0.9;  ///< genome-wise crossover (major op)
    double crossoverRgRate = 0.05;  ///< range crossover
    double crossoverAccelRate = 0.05;  ///< per-sub-accelerator crossover
    bool enableCrossoverGen = true;
    bool enableCrossoverRg = true;
    bool enableCrossoverAccel = true;
};

/**
 * MAGMA (Section V): a GA whose genetic operators are specialized to the
 * two-genome mapping encoding.
 *
 *  - mutation: standard per-gene random resets;
 *  - crossover-gen: picks ONE genome (accel-selection or priority) and a
 *    pivot inside it, exchanging only that genome's tail — perturbs one
 *    schedule aspect while respecting the other;
 *  - crossover-rg: picks a job range and swaps BOTH genomes' genes for the
 *    range, preserving cross-genome (per-job) dependency;
 *  - crossover-accel: picks a sub-accelerator and transplants the donor
 *    parent's job set and ordering for it into the child, randomly
 *    re-assigning the child's displaced jobs for load balancing.
 *
 * The static `crossoverGen/Rg/Accel` and `mutate` methods expose the
 * operators directly for unit testing. They draw from a common::Rng (as
 * stdGA, NSGA-II and the warm-start tiers call them) or a
 * common::CounterRng (MAGMA's breeding).
 *
 * Breeding pair k of generation t draws its parent picks, crossover
 * coins and pivots and both mutations from CounterRng(key, t, k), where
 * the key is one rng_ word drawn after the initial population. A child is
 * then a pure function of the ranked elites and its (t, k).
 */
class MagmaGa : public Optimizer {
  public:
    explicit MagmaGa(uint64_t seed, MagmaConfig cfg = {})
        : Optimizer(seed), cfg_(cfg)
    {}
    std::string name() const override { return "MAGMA"; }
    const MagmaConfig& config() const { return cfg_; }

    /** Genome-wise single-pivot crossover between two children (in place). */
    template <class R>
    static void crossoverGen(sched::Mapping& a, sched::Mapping& b, R& rng);
    /** Range crossover across both genomes simultaneously (in place). */
    template <class R>
    static void crossoverRg(sched::Mapping& a, sched::Mapping& b, R& rng);
    /**
     * Transplant `donor`'s job set for one random sub-accelerator into
     * `child`; displaced child jobs are randomly re-assigned.
     */
    template <class R>
    static void crossoverAccel(sched::Mapping& child,
                               const sched::Mapping& donor, int num_accels,
                               R& rng);
    /**
     * Per-gene mutation: the 2G trials (sub-accelerator of gene 0, its
     * priority, sub-accelerator of gene 1, ...) each mutate independently
     * with the rate `skip` was built from. The draws are one word per
     * geometric gap between mutated trials plus one value draw per
     * mutation, so a child at rate 0.05 costs about 2G / 10 draws rather
     * than 2G.
     */
    template <class R>
    static void mutate(sched::Mapping& m, const common::GeometricSkip& skip,
                       int num_accels, R& rng);

  protected:
    void run(const sched::MappingEvaluator& eval, const SearchOptions& opts,
             SearchRecorder& rec) override;

  private:
    MagmaConfig cfg_;
};

}  // namespace magma::opt

#endif  // MAGMA_OPT_MAGMA_GA_H_
