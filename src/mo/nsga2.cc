#include "mo/nsga2.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "exec/eval_engine.h"
#include "mo/vector_fitness.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace magma::mo {
namespace {

/**
 * Per-generation mo.generation trace instant: i = generation, a = front
 * size, b = front hypervolume (origin ref). Exact hypervolume is
 * exponential in arity, so the payload is NaN beyond the cheap regime
 * (arity <= 3, front <= 64) — observability must never dominate the
 * search it watches.
 */
void
traceMoGeneration(int64_t gen, const ParetoArchive& archive)
{
    if (!obs::traceOn())
        return;
    double hv = std::numeric_limits<double>::quiet_NaN();
    size_t arity = archive.objectives().size();
    if (!archive.empty() && arity <= 3 && archive.size() <= 64) {
        ObjectiveVector origin(arity, 0.0);
        hv = archive.hypervolume(origin);
    }
    obs::traceInstant("mo.generation", gen,
                      static_cast<double>(archive.size()), hv);
}

struct Ind {
    sched::Mapping m;
    ObjectiveVector objs;
};

/** Per-individual crowding distance, computed front by front. */
std::vector<double>
crowdingByRank(const std::vector<ObjectiveVector>& objs,
               const std::vector<int>& ranks)
{
    int max_rank = 0;
    for (int r : ranks)
        max_rank = std::max(max_rank, r);
    std::vector<std::vector<int>> fronts(max_rank + 1);
    for (size_t i = 0; i < ranks.size(); ++i)
        fronts[ranks[i]].push_back(static_cast<int>(i));
    std::vector<double> crowd(ranks.size(), 0.0);
    for (const std::vector<int>& front : fronts) {
        std::vector<double> c = crowdingDistances(objs, front);
        for (size_t k = 0; k < front.size(); ++k)
            crowd[front[k]] = c[k];
    }
    return crowd;
}

std::vector<ObjectiveVector>
objectiveRows(const std::vector<Ind>& pop)
{
    std::vector<ObjectiveVector> rows;
    rows.reserve(pop.size());
    for (const Ind& ind : pop)
        rows.push_back(ind.objs);
    return rows;
}

/**
 * Environmental selection: keep the best `n` of `pool` by whole fronts,
 * splitting the cut front by crowding distance (descending, stable on
 * index) — Deb's elitist (mu + lambda) step. Deterministic.
 */
std::vector<Ind>
selectByRankAndCrowding(std::vector<Ind> pool, int n)
{
    std::vector<ObjectiveVector> rows = objectiveRows(pool);
    std::vector<int> ranks = nonDominatedRanks(rows);
    int max_rank = 0;
    for (int r : ranks)
        max_rank = std::max(max_rank, r);
    std::vector<std::vector<int>> fronts(max_rank + 1);
    for (size_t i = 0; i < ranks.size(); ++i)
        fronts[ranks[i]].push_back(static_cast<int>(i));

    std::vector<Ind> next;
    next.reserve(n);
    for (std::vector<int>& front : fronts) {
        int room = n - static_cast<int>(next.size());
        if (room <= 0)
            break;
        if (static_cast<int>(front.size()) > room) {
            std::vector<double> crowd = crowdingDistances(rows, front);
            std::vector<int> order(front.size());
            for (size_t k = 0; k < order.size(); ++k)
                order[k] = static_cast<int>(k);
            std::sort(order.begin(), order.end(), [&](int a, int b) {
                return crowd[a] != crowd[b] ? crowd[a] > crowd[b] : a < b;
            });
            order.resize(room);
            // Preserve pool order within the cut for determinism.
            std::sort(order.begin(), order.end(), [&](int a, int b) {
                return front[a] < front[b];
            });
            for (int k : order)
                next.push_back(std::move(pool[front[k]]));
        } else {
            for (int i : front)
                next.push_back(std::move(pool[i]));
        }
    }
    return next;
}

}  // namespace

void
Nsga2::evolve(int group_size, int num_accels,
              const std::vector<sched::Mapping>& seeds, const ScoreFn& score,
              ParetoArchive& archive)
{
    const int pop_size = std::max(2, cfg_.ops.population);

    std::vector<Ind> pop;
    pop.reserve(pop_size);
    for (const sched::Mapping& s : seeds) {
        if (static_cast<int>(pop.size()) >= pop_size)
            break;
        pop.push_back({s, {}});
    }
    while (static_cast<int>(pop.size()) < pop_size)
        pop.push_back(
            {sched::Mapping::random(group_size, num_accels, rng_), {}});

    auto score_into = [&](std::vector<Ind>& gen) {
        std::vector<sched::Mapping> ms;
        ms.reserve(gen.size());
        for (const Ind& ind : gen)
            ms.push_back(ind.m);
        std::vector<ObjectiveVector> objs = score(ms);
        for (size_t i = 0; i < objs.size(); ++i) {
            gen[i].objs = objs[i];
            archive.insert({gen[i].m, std::move(objs[i])});
        }
        return objs.size() == ms.size();
    };

    if (!score_into(pop))
        return;  // budget exhausted mid-initialization
    int64_t gen = 0;
    traceMoGeneration(gen, archive);

    // MAGMA's operator rates as word cuts and its mutation gap table,
    // built once per run.
    const common::BernoulliCut gen_cut =
        common::Rng::bernoulliCut(cfg_.ops.crossoverGenRate);
    const common::BernoulliCut rg_cut =
        common::Rng::bernoulliCut(cfg_.ops.crossoverRgRate);
    const common::BernoulliCut accel_cut =
        common::Rng::bernoulliCut(cfg_.ops.crossoverAccelRate);
    const common::GeometricSkip mutation(cfg_.ops.mutationRate,
                                         2 * group_size);

    while (true) {
        std::vector<ObjectiveVector> rows = objectiveRows(pop);
        std::vector<int> ranks = nonDominatedRanks(rows);
        std::vector<double> crowd = crowdingByRank(rows, ranks);

        // Binary tournament on (rank, crowding), stable on index.
        auto better = [&](int a, int b) {
            if (ranks[a] != ranks[b])
                return ranks[a] < ranks[b];
            if (crowd[a] != crowd[b])
                return crowd[a] > crowd[b];
            return a < b;
        };
        auto tournament = [&]() {
            int a = rng_.uniformInt(pop_size);
            int b = rng_.uniformInt(pop_size);
            return better(a, b) ? a : b;
        };

        // Breed a full child generation with MAGMA's encoding-aware
        // operators — the same son/daughter pattern as MagmaGa::run.
        std::vector<Ind> children;
        children.reserve(pop_size);
        while (static_cast<int>(children.size()) < pop_size) {
            int di = tournament();
            int mi = tournament();
            sched::Mapping son = pop[di].m;
            sched::Mapping daughter = pop[mi].m;

            if (cfg_.ops.enableCrossoverGen && rng_.bernoulli(gen_cut))
                opt::MagmaGa::crossoverGen(son, daughter, rng_);
            if (cfg_.ops.enableCrossoverRg && rng_.bernoulli(rg_cut))
                opt::MagmaGa::crossoverRg(son, daughter, rng_);
            if (cfg_.ops.enableCrossoverAccel && rng_.bernoulli(accel_cut))
                opt::MagmaGa::crossoverAccel(son, pop[mi].m, num_accels,
                                             rng_);

            opt::MagmaGa::mutate(son, mutation, num_accels, rng_);
            children.push_back({std::move(son), {}});
            if (static_cast<int>(children.size()) < pop_size) {
                opt::MagmaGa::mutate(daughter, mutation, num_accels, rng_);
                children.push_back({std::move(daughter), {}});
            }
        }

        bool complete = score_into(children);

        // Elitist (mu + lambda) survival over parents + scored children.
        std::vector<Ind> pool = std::move(pop);
        pool.reserve(pool.size() + children.size());
        for (Ind& c : children)
            if (!c.objs.empty())
                pool.push_back(std::move(c));
        pop = selectByRankAndCrowding(std::move(pool), pop_size);
        traceMoGeneration(++gen, archive);

        if (!complete)
            return;  // budget exhausted
    }
}

MoSearchResult
Nsga2::searchMo(const exec::EvalEngine& engine,
                const std::vector<sched::Objective>& objectives,
                const opt::SearchOptions& opts)
{
    if (objectives.empty())
        throw std::invalid_argument(
            "NSGA-II: objectives list must be non-empty");

    const sched::MappingEvaluator& eval = engine.evaluator();
    VectorFitness vf(engine, objectives);
    MoSearchResult res;
    res.front = ParetoArchive(objectives, cfg_.archiveCapacity);

    int64_t remaining = opts.sampleBudget;
    ScoreFn score = [&](const std::vector<sched::Mapping>& ms)
        -> std::vector<ObjectiveVector> {
        int64_t n = std::min<int64_t>(
            static_cast<int64_t>(ms.size()), remaining);
        if (n <= 0)
            return {};
        remaining -= n;
        if (n == static_cast<int64_t>(ms.size()))
            return vf.evaluateBatch(ms);
        // Budget truncation: only the affordable prefix is simulated
        // (and paid for), mirroring SearchRecorder::evaluateBatch.
        std::vector<sched::Mapping> prefix(ms.begin(), ms.begin() + n);
        return vf.evaluateBatch(prefix);
    };

    evolve(eval.groupSize(), eval.numAccels(), opts.seeds, score,
           res.front);
    res.samplesUsed = opts.sampleBudget - remaining;
    return res;
}

void
Nsga2::run(const sched::MappingEvaluator& eval,
           const opt::SearchOptions& opts, opt::SearchRecorder& rec)
{
    // Scalar mode: the same generational loop over the 1-vector
    // {eval.objective()}, scored through the SearchRecorder so budget,
    // incumbent and convergence behave like every other optimizer.
    ParetoArchive archive({eval.objective()}, cfg_.archiveCapacity);
    ScoreFn score = [&rec](const std::vector<sched::Mapping>& ms) {
        std::vector<double> fits = rec.evaluateBatch(ms);
        std::vector<ObjectiveVector> out;
        out.reserve(fits.size());
        for (double f : fits)
            out.push_back({f});
        return out;
    };
    evolve(eval.groupSize(), eval.numAccels(), opts.seeds, score, archive);
}

}  // namespace magma::mo
