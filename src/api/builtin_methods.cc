/**
 * @file
 * Registration of the built-in mapper line-up (Table IV + the Random
 * reference + NSGA-II) with the OptimizerRegistry, in the paper's plot
 * order and with the paper's hyper-parameters (each class's defaults),
 * plus the Table IV name list and the population-aware constructor the
 * warm-starting front ends use.
 */

#include "api/registry.h"

#include "baselines/ai_mt_like.h"
#include "baselines/herald_like.h"
#include "mo/nsga2.h"
#include "opt/cma_es.h"
#include "opt/de.h"
#include "opt/magma_ga.h"
#include "opt/pso.h"
#include "opt/random_search.h"
#include "opt/std_ga.h"
#include "opt/tbpsa.h"
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
