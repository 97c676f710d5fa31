#include "opt/magma_ga.h"

#include <algorithm>
#include <utility>

#include "obs/scope.h"

namespace magma::opt {
namespace {

/** crossoverGen's fair coin between the two genomes. */
constexpr common::BernoulliCut kHalf = common::Rng::bernoulliCut(0.5);

}  // namespace

void
MagmaGa::crossoverGen(sched::Mapping& a, sched::Mapping& b, common::Rng& rng)
{
    int g = a.size();
    int pivot = rng.uniformInt(g);
    if (rng.bernoulli(kHalf)) {
        for (int i = pivot; i < g; ++i)
            std::swap(a.accelSel[i], b.accelSel[i]);
    } else {
        for (int i = pivot; i < g; ++i)
            std::swap(a.priority[i], b.priority[i]);
    }
}

void
MagmaGa::crossoverRg(sched::Mapping& a, sched::Mapping& b, common::Rng& rng)
{
    int g = a.size();
    int lo = rng.uniformInt(g);
    int hi = rng.uniformInt(g);
    if (lo > hi)
        std::swap(lo, hi);
    for (int i = lo; i <= hi; ++i) {
        std::swap(a.accelSel[i], b.accelSel[i]);
        std::swap(a.priority[i], b.priority[i]);
    }
}

void
MagmaGa::crossoverAccel(sched::Mapping& child, const sched::Mapping& donor,
                        int num_accels, common::Rng& rng)
{
    int g = child.size();
    int accel = rng.uniformInt(num_accels);
    // Jobs the child currently runs on `accel` get displaced (randomly
    // re-assigned, for load balancing) unless the donor also puts them
    // there; then the donor's job set and ordering for `accel` is pasted.
    for (int j = 0; j < g; ++j) {
        if (child.accelSel[j] == accel && donor.accelSel[j] != accel)
            child.accelSel[j] = rng.uniformInt(num_accels);
    }
    for (int j = 0; j < g; ++j) {
        if (donor.accelSel[j] == accel) {
            child.accelSel[j] = accel;
            child.priority[j] = donor.priority[j];
        }
    }
}

void
MagmaGa::mutate(sched::Mapping& m, double rate, int num_accels,
                common::Rng& rng)
{
    mutate(m, common::Rng::bernoulliCut(rate), num_accels, rng);
}

void
MagmaGa::mutate(sched::Mapping& m, const common::BernoulliCut& rate,
                int num_accels, common::Rng& rng)
{
    int g = m.size();
    for (int i = 0; i < g; ++i) {
        if (rng.bernoulli(rate))
            m.accelSel[i] = rng.uniformInt(num_accels);
        if (rng.bernoulli(rate))
            m.priority[i] = rng.uniform();
    }
}

void
MagmaGa::run(const sched::MappingEvaluator& eval, const SearchOptions& opts,
             SearchRecorder& rec)
{
    const int g = eval.groupSize();
    const int n_accels = eval.numAccels();
    const int pop_size = cfg_.population;

    GaPopulation pop(pop_size, opts.seeds, g, n_accels, rng_);
    if (!pop.scoreAll(rec))
        return;  // budget exhausted mid-initialization

    const int elites = std::max(2, static_cast<int>(pop_size *
                                                    cfg_.eliteRatio));
    // Operator rates as word cuts, computed once per run.
    const common::BernoulliCut gen_cut =
        common::Rng::bernoulliCut(cfg_.crossoverGenRate);
    const common::BernoulliCut rg_cut =
        common::Rng::bernoulliCut(cfg_.crossoverRgRate);
    const common::BernoulliCut accel_cut =
        common::Rng::bernoulliCut(cfg_.crossoverAccelRate);
    const common::BernoulliCut mutation_cut =
        common::Rng::bernoulliCut(cfg_.mutationRate);
    // Daughter slot for a last pair that only has room for the son: she
    // still takes part in crossover, but is not kept.
    sched::Mapping spare;
    while (!rec.exhausted()) {
        pop.rank();
        {
            obs::Scope scope("opt.breed");
            // Elites survive unchanged; children are bred from elite
            // pairs straight into the next generation's slots.
            pop.carryElites(elites);
            for (int k = elites; k < pop_size; k += 2) {
                const bool pair = k + 1 < pop_size;
                int di = rng_.uniformInt(elites);
                int mi = rng_.uniformInt(elites);
                sched::Mapping& son = pop.child(k);
                sched::Mapping& daughter = pair ? pop.child(k + 1) : spare;
                son = pop.ranked(di);
                daughter = pop.ranked(mi);

                if (cfg_.enableCrossoverGen && rng_.bernoulli(gen_cut))
                    crossoverGen(son, daughter, rng_);
                if (cfg_.enableCrossoverRg && rng_.bernoulli(rg_cut))
                    crossoverRg(son, daughter, rng_);
                if (cfg_.enableCrossoverAccel && rng_.bernoulli(accel_cut))
                    crossoverAccel(son, pop.ranked(mi), n_accels, rng_);

                mutate(son, mutation_cut, n_accels, rng_);
                if (pair)
                    mutate(daughter, mutation_cut, n_accels, rng_);
            }
        }
        // Children scoring below the worst elite cannot breed, so the
        // kernel may stop them at their load bound.
        pop.advance(rec, elites, pop.eliteCutoff(elites));
    }
}

}  // namespace magma::opt
