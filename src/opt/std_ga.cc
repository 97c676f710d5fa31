#include "opt/std_ga.h"

#include <algorithm>

#include "opt/magma_ga.h"

namespace magma::opt {

void
StdGa::run(const sched::MappingEvaluator& eval, const SearchOptions& opts,
           SearchRecorder& rec)
{
    const int g = eval.groupSize();
    const int n_accels = eval.numAccels();
    const int pop_size = cfg_.population;

    // --- Initial population: seeds first, then random fill. ---
    GaPopulation pop(pop_size, opts.seeds, g, n_accels, rng_);
    if (!pop.scoreAll(rec))
        return;  // budget exhausted mid-initialization

    auto tournament = [&]() -> const sched::Mapping& {
        int best = rng_.uniformInt(pop_size);
        for (int i = 1; i < cfg_.tournamentSize; ++i) {
            int c = rng_.uniformInt(pop_size);
            if (pop.rankedFitness(c) > pop.rankedFitness(best))
                best = c;
        }
        return pop.ranked(best);
    };

    const int elites = std::max(1, static_cast<int>(pop_size *
                                                    cfg_.eliteRatio));
    // Fixed rates as a word cut and a mutation gap table, built once per
    // run.
    const common::BernoulliCut crossover_cut =
        common::Rng::bernoulliCut(cfg_.crossoverRate);
    const common::GeometricSkip mutation(cfg_.mutationRate, 2 * g);
    while (!rec.exhausted()) {
        pop.rank(pop_size);
        pop.carryElites(elites);
        for (int k = elites; k < pop_size; ++k) {
            sched::Mapping& child = pop.child(k);
            child = tournament();
            // Single-pivot crossover over the concatenated gene string.
            if (rng_.bernoulli(crossover_cut)) {
                const sched::Mapping& other = tournament();
                int pivot = rng_.uniformInt(2 * g);
                for (int i = pivot; i < 2 * g; ++i) {
                    if (i < g)
                        child.accelSel[i] = other.accelSel[i];
                    else
                        child.priority[i - g] = other.priority[i - g];
                }
            }
            MagmaGa::mutate(child, mutation, n_accels, rng_);
        }
        // Whole-generation batch evaluation of the bred children.
        pop.advance(rec, elites);
    }
}

}  // namespace magma::opt
