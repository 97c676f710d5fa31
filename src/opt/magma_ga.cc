#include "opt/magma_ga.h"

#include <algorithm>
#include <utility>

#include "obs/scope.h"

namespace magma::opt {
namespace {

/** crossoverGen's fair coin between the two genomes. */
constexpr common::BernoulliCut kHalf = common::Rng::bernoulliCut(0.5);

}  // namespace

template <class R>
void
MagmaGa::crossoverGen(sched::Mapping& a, sched::Mapping& b, R& rng)
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

template <class R>
void
MagmaGa::crossoverRg(sched::Mapping& a, sched::Mapping& b, R& rng)
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

template <class R>
void
MagmaGa::crossoverAccel(sched::Mapping& child, const sched::Mapping& donor,
                        int num_accels, R& rng)
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

template <class R>
void
MagmaGa::mutate(sched::Mapping& m, const common::GeometricSkip& skip,
                int num_accels, R& rng)
{
    // Trial 2i mutates gene i's sub-accelerator, trial 2i + 1 its
    // priority. A gap of span() means span() failures and no success yet.
    const int trials = 2 * m.size();
    int t = 0;
    while (true) {
        const int gap = skip.gap(rng.word());
        t += gap;
        if (t >= trials)
            return;
        if (gap == skip.span())
            continue;
        if (t & 1)
            m.priority[t >> 1] = rng.uniform();
        else
            m.accelSel[t >> 1] = rng.uniformInt(num_accels);
        ++t;
    }
}

template void MagmaGa::crossoverGen(sched::Mapping&, sched::Mapping&,
                                    common::Rng&);
template void MagmaGa::crossoverRg(sched::Mapping&, sched::Mapping&,
                                   common::Rng&);
template void MagmaGa::crossoverAccel(sched::Mapping&, const sched::Mapping&,
                                      int, common::Rng&);
template void MagmaGa::mutate(sched::Mapping&, const common::GeometricSkip&,
                              int, common::Rng&);
template void MagmaGa::mutate(sched::Mapping&, const common::GeometricSkip&,
                              int, common::CounterRng&);

void
MagmaGa::run(const sched::MappingEvaluator& eval, const SearchOptions& opts,
             SearchRecorder& rec)
{
    const int g = eval.groupSize();
    const int n_accels = eval.numAccels();
    const int pop_size = cfg_.population;

    GaPopulation pop(pop_size, opts.seeds, g, n_accels, rng_);
    const uint64_t stream_key = rng_.word();
    if (!pop.scoreAll(rec))
        return;  // budget exhausted mid-initialization

    const int elites = std::max(2, static_cast<int>(pop_size *
                                                    cfg_.eliteRatio));
    // Operator rates as word cuts and the mutation gap table, built once
    // per run.
    const common::BernoulliCut gen_cut =
        common::Rng::bernoulliCut(cfg_.crossoverGenRate);
    const common::BernoulliCut rg_cut =
        common::Rng::bernoulliCut(cfg_.crossoverRgRate);
    const common::BernoulliCut accel_cut =
        common::Rng::bernoulliCut(cfg_.crossoverAccelRate);
    const common::GeometricSkip mutation(cfg_.mutationRate, 2 * g);
    // Daughter slot for a last pair that only has room for the son: she
    // still takes part in crossover, but is not kept.
    sched::Mapping spare;
    for (uint64_t generation = 0; !rec.exhausted(); ++generation) {
        pop.rank(elites);
        {
            obs::Scope scope("opt.breed");
            // Elites survive unchanged; children are bred from elite
            // pairs straight into the next generation's slots.
            pop.carryElites(elites);
            for (int k = elites; k < pop_size; k += 2) {
                const bool pair = k + 1 < pop_size;
                common::CounterRng rng(stream_key, generation,
                                       static_cast<uint32_t>(k - elites) / 2);
                int di = rng.uniformInt(elites);
                int mi = rng.uniformInt(elites);
                sched::Mapping& son = pop.child(k);
                sched::Mapping& daughter = pair ? pop.child(k + 1) : spare;
                son = pop.ranked(di);
                daughter = pop.ranked(mi);

                if (cfg_.enableCrossoverGen && rng.bernoulli(gen_cut))
                    crossoverGen(son, daughter, rng);
                if (cfg_.enableCrossoverRg && rng.bernoulli(rg_cut))
                    crossoverRg(son, daughter, rng);
                if (cfg_.enableCrossoverAccel && rng.bernoulli(accel_cut))
                    crossoverAccel(son, pop.ranked(mi), n_accels, rng);

                mutate(son, mutation, n_accels, rng);
                if (pair)
                    mutate(daughter, mutation, n_accels, rng);
            }
        }
        // Children scoring below the worst elite cannot breed, so the
        // kernel may stop them at their load bound.
        pop.advance(rec, elites, /*bound=*/true);
    }
}

}  // namespace magma::opt
