/**
 * @file
 * Registration of the built-in mapper line-up (Table IV + the Random
 * reference + NSGA-II) with the OptimizerRegistry, in the paper's plot
 * order and with the paper's hyper-parameters (each class's defaults),
 * plus the Table IV name list, the population-aware constructor, the
 * warm-start cascade and the one search pipeline of every front end.
 */

#include "api/registry.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "baselines/ai_mt_like.h"
#include "baselines/herald_like.h"
#include "exec/eval_engine.h"
#include "mo/nsga2.h"
#include "obs/scope.h"
#include "opt/cma_es.h"
#include "opt/de.h"
#include "opt/magma_ga.h"
#include "opt/pso.h"
#include "opt/random_search.h"
#include "opt/std_ga.h"
#include "opt/tbpsa.h"
#include "opt/warm_start.h"
#include "rl/a2c.h"
#include "rl/ppo2.h"

namespace magma::api {

const std::vector<std::string>&
tableIvMethods()
{
    static const std::vector<std::string> names = {
        "Herald-like", "AI-MT-like", "PSO",    "CMA",     "DE",
        "TBPSA",       "stdGA",      "RL A2C", "RL PPO2", "MAGMA"};
    return names;
}

std::unique_ptr<opt::Optimizer>
makeForPopulation(const std::string& name_or_alias, uint64_t seed,
                  int population)
{
    OptimizerRegistry& registry = OptimizerRegistry::global();
    std::string method = registry.resolve(name_or_alias);
    if (method != "MAGMA")
        return registry.make(method, seed);
    opt::MagmaConfig cfg;
    cfg.population = population;
    return std::make_unique<opt::MagmaGa>(seed, cfg);
}

Seeding
seedSearch(const sched::MappingEvaluator& eval, int population,
           int64_t cold_budget, const WarmTiers& tiers)
{
    const int accels = eval.numAccels();
    Seeding s;
    s.budget = cold_budget;
    const bool previous = tiers.previous && tiers.previous->size() > 0;
    std::optional<StoredSolution> stored;
    if (!previous && tiers.lookup)
        stored = tiers.lookup();
    if (previous) {
        obs::Scope scope("api.seed.previous");
        common::Rng rng(tiers.previousSeed);
        sched::Mapping base = opt::transfer::adaptMatched(
            *tiers.previous, *tiers.previousGroup, eval.group(),
            *tiers.match, accels, rng);
        s.seeds = opt::transfer::seedsAround(base, population, accels, rng);
        s.source = SeedSource::Previous;
    } else if (stored) {
        obs::Scope scope("api.seed.store");
        common::Rng rng(tiers.storeSeed);
        s.seeds = opt::transfer::seedsFromStored(
            stored->mapping, stored->group, eval.group(), population,
            accels, rng);
        s.source = SeedSource::Store;
    } else if (tiers.archive && !tiers.archive->empty()) {
        obs::Scope scope("api.seed.archive");
        common::Rng rng(tiers.archiveSeed);
        s.seeds = opt::transfer::seedsFromArchive(
            tiers.archive->seedMappings(), eval.groupSize(), population,
            accels, rng);
        s.source = SeedSource::Archive;
    }
    if (s.source == SeedSource::Previous || s.source == SeedSource::Store)
        s.budget = opt::transfer::warmBudget(tiers.warmBudget, population,
                                             cold_budget);
    // Table IV's greedy baseline joins every population: an incumbent
    // that good from the first batch on lets the load bound prune early.
    sched::Mapping heuristic = baselines::HeraldLike::buildMapping(eval);
    if (s.seeds.empty())
        s.seeds.push_back(std::move(heuristic));
    else
        s.seeds.back() = std::move(heuristic);
    return s;
}

Solved
solve(const sched::MappingEvaluator& eval, const SearchSpec& spec,
      const WarmTiers* tiers, exec::ThreadPool& pool)
{
    const int population = opt::transfer::populationFor(eval.groupSize());
    Seeding seeding{{}, spec.sampleBudget, SeedSource::Cold};
    if (tiers)
        seeding = seedSearch(eval, population, spec.sampleBudget, *tiers);
    Solved out;
    out.source = seeding.source;
    out.budget = seeding.budget;
    out.seeds = seeding.seeds.size();
    opt::SearchOptions opts;
    opts.sampleBudget = seeding.budget;
    opts.seeds = std::move(seeding.seeds);
    // The search scores the seeds first, so the convergence curve gives
    // Trf-0-ep for free.
    const bool store = out.source == SeedSource::Store;
    opts.recordConvergence = spec.recordConvergence || store;
    opts.recordSamples = spec.recordSamples;

    std::unique_ptr<opt::Optimizer> optimizer =
        makeForPopulation(spec.method, spec.seed, population);
    const bool pareto = !spec.objectives.empty();
    auto* mo_method = dynamic_cast<mo::MultiObjective*>(optimizer.get());
    if (pareto && !mo_method)
        throw std::invalid_argument(
            "method '" + optimizer->name() +
            "' is single-objective; a SearchSpec with objectives= "
            "needs a mo::MultiObjective method (e.g. method=nsga2)");
    auto t0 = std::chrono::steady_clock::now();
    exec::EvalEngine engine(eval, pool);
    if (pareto)
        out.pareto = mo_method->searchMo(engine, spec.objectives, opts);
    else
        out.result = optimizer->search(engine, opts);
    out.searchSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const std::vector<double>& curve = out.result.convergence;
    if (store && !curve.empty()) {
        // The Herald-like member is the last seed, so Trf-0-ep is the
        // best-so-far one sample before it: the transferred seeds alone.
        size_t transferred = std::min(out.seeds - 1, curve.size());
        out.trf0Fitness = curve[transferred - 1];
    }
    return out;
}

}  // namespace magma::api

namespace magma::api::detail {

namespace {

template <typename T>
OptimizerFactory
simple()
{
    return [](uint64_t seed) { return std::make_unique<T>(seed); };
}

}  // namespace

void
registerBuiltinOptimizers(OptimizerRegistry& registry)
{
    registry.add("Herald-like", {"herald"},
                 simple<baselines::HeraldLike>());
    registry.add("AI-MT-like", {"ai-mt", "aimt"},
                 simple<baselines::AiMtLike>());
    registry.add("PSO", {}, simple<opt::Pso>());
    registry.add("CMA", {"cma-es"}, simple<opt::CmaEs>());
    registry.add("DE", {}, simple<opt::De>());
    registry.add("TBPSA", {}, simple<opt::Tbpsa>());
    registry.add("stdGA", {"std-ga"}, simple<opt::StdGa>());
    registry.add("RL A2C", {"a2c", "rl-a2c"}, simple<rl::A2c>());
    registry.add("RL PPO2", {"ppo2", "rl-ppo2"}, simple<rl::Ppo2>());
    registry.add("MAGMA", {"magma-ga"}, simple<opt::MagmaGa>());
    registry.add("Random", {"random-search"},
                 simple<opt::RandomSearch>());
    // Appended after the Table IV line-up so the paper-order prefix of
    // names() is preserved. The only built-in mo::MultiObjective method:
    // SearchSpec `objectives=` dispatches to its Pareto search.
    registry.add("NSGA-II", {"nsga2", "nsga-ii"}, simple<mo::Nsga2>());
}

}  // namespace magma::api::detail
