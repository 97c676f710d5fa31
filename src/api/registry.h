#ifndef MAGMA_API_REGISTRY_H_
#define MAGMA_API_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/spec.h"
#include "dnn/workload.h"
#include "exec/thread_pool.h"
#include "mo/nsga2.h"
#include "mo/pareto.h"
#include "opt/optimizer.h"
#include "sched/evaluator.h"
#include "sched/mapping.h"

namespace magma::api {

/** Builds an optimizer with its Table IV hyper-parameters. */
using OptimizerFactory =
    std::function<std::unique_ptr<opt::Optimizer>(uint64_t seed)>;

/**
 * String-keyed optimizer factory — the source of truth for which mapping
 * methods exist. Every Table IV method registers here (see
 * builtin_methods.cc) under its paper label, callers construct methods
 * by name or alias, and downstream users add methods with
 * registerOptimizer() without touching the core:
 *
 *   static const bool kReg = magma::api::registerOptimizer(
 *       "MyMapper", {"my", "mm"},
 *       [](uint64_t seed) { return std::make_unique<MyMapper>(seed); });
 *
 * Lookups accept the canonical name or any alias, exact first and then
 * case-insensitively; an unknown name throws std::invalid_argument with
 * a nearest-match suggestion and the full method list.
 *
 * Thread-safe: registration and lookup may race with concurrent serve
 * lanes.
 */
class OptimizerRegistry {
  public:
    struct Entry {
        std::string name;  ///< canonical (the paper's plot label)
        std::vector<std::string> aliases;
        OptimizerFactory factory;
    };

    /** The process-wide registry, builtins pre-registered. */
    static OptimizerRegistry& global();

    /** Register a method; throws on a duplicate name or alias. */
    void add(std::string name, std::vector<std::string> aliases,
             OptimizerFactory factory);

    /** Construct `name_or_alias` seeded; throws on unknown name. */
    std::unique_ptr<opt::Optimizer> make(const std::string& name_or_alias,
                                         uint64_t seed) const;

    /** Canonical name for a name/alias; throws on unknown name. */
    std::string resolve(const std::string& name_or_alias) const;

    bool contains(const std::string& name_or_alias) const;

    /** Canonical names in registration order (builtins: Table IV order). */
    std::vector<std::string> names() const;

    /** Entry snapshots in registration order (for --list-methods). */
    std::vector<Entry> entries() const;

  private:
    const Entry* find(const std::string& name_or_alias) const;  // mu_ held
    /** find() or throw the did-you-mean error. Caller holds mu_. */
    const Entry& findOrThrow(const std::string& name_or_alias) const;

    mutable std::mutex mu_;
    std::vector<Entry> entries_;
};

/**
 * Convenience wrapper over global().add() whose bool return makes it
 * usable as a namespace-scope static initializer (self-registration).
 */
bool registerOptimizer(std::string name, std::vector<std::string> aliases,
                       OptimizerFactory factory);

/**
 * The mapper line-up of Table IV / Figs. 8-9: the ten canonical names in
 * the paper's plot order (Random, the reference method, and NSGA-II are
 * registered after it and are not part of it).
 */
const std::vector<std::string>& tableIvMethods();

/**
 * Construct `name_or_alias` for a search of the given population — solve()
 * passes opt::transfer::populationFor(group size). MAGMA takes
 * `population`; every other method keeps its registry default. Throws the
 * registry's did-you-mean error on an unknown name.
 */
std::unique_ptr<opt::Optimizer> makeForPopulation(
    const std::string& name_or_alias, uint64_t seed, int population);

/** Where a search's seed population came from (Section V-C tiers). */
enum class SeedSource { Cold, Previous, Store, Archive };

/** A stored solution the store tier transfers: its mapping and the
 * group it maps (empty for a groupless entry). */
struct StoredSolution {
    sched::Mapping mapping;
    dnn::JobGroup group;
};

/**
 * The warm-start tiers one search may draw on, best knowledge first.
 * Each is optional; a front end leaves a tier unset to skip it (dyn's
 * warmRemap = false and serve's warmStart = false leave all unset).
 */
struct WarmTiers {
    /** Previous tier: the running mapping over `previousGroup`, and for
     * each job of the new group its position there (-1: new) — the
     * inputs of opt::transfer::adaptMatched. Fires when non-empty. */
    const sched::Mapping* previous = nullptr;
    const dnn::JobGroup* previousGroup = nullptr;
    const std::vector<int>* match = nullptr;
    /** Store tier. Invoked only when the previous tier did not fire,
     * because a lookup moves the store's LRU recency and hit counters;
     * it fires when the callable returns a solution. */
    std::function<std::optional<StoredSolution>()> lookup;
    /** Archive tier: fires when non-empty. */
    const mo::ParetoArchive* archive = nullptr;
    /** RNG seed of each tier's transfer. */
    uint64_t previousSeed = 0;
    uint64_t storeSeed = 0;
    uint64_t archiveSeed = 0;
    /** `requested` of opt::transfer::warmBudget for the previous and
     * store tiers (<= 0: a quarter of the cold budget). */
    int64_t warmBudget = 0;
};

/** The seeds, budget and source of one search. */
struct Seeding {
    std::vector<sched::Mapping> seeds;
    int64_t budget = 0;
    SeedSource source = SeedSource::Cold;
};

/**
 * The one warm-start cascade, run by solve() for the serve and dyn front
 * ends: the first tier that fires, in the order previous → store →
 * archive, yields `population` seeds. Previous and store seeds come from
 * this group's own knowledge, so they search on
 * opt::transfer::warmBudget; archive members are generic knowledge, a
 * quality head start at the full `cold_budget`. With no tier firing the
 * search is cold, at the full budget.
 *
 * Every population also gets the Herald-like heuristic mapping
 * (baselines::HeraldLike::buildMapping) as its last seed: it replaces
 * the last transferred seed, and it is the only seed of a cold search.
 * api::Runner passes solve() no tiers, so offline searches keep the
 * paper's random MAGMA start. Write-back stays with the caller.
 */
Seeding seedSearch(const sched::MappingEvaluator& eval, int population,
                   int64_t cold_budget, const WarmTiers& tiers);

/** The outcome of one solve(). */
struct Solved {
    opt::SearchResult result;   ///< a scalar search's (empty for Pareto)
    mo::MoSearchResult pareto;  ///< a Pareto search's (empty for scalar)
    SeedSource source = SeedSource::Cold;
    int64_t budget = 0;          ///< sample budget granted to the search
    size_t seeds = 0;            ///< seeds the population started from
    double searchSeconds = 0.0;  ///< engine build to end of search
    double trf0Fitness = 0.0;    ///< Trf-0-ep of a store-seeded search
};

/**
 * The one search pipeline of api::Runner, serve::MappingService and
 * dyn::EventEngine: populationFor, seedSearch (only when `tiers` is
 * given; the Runner passes none and keeps the paper's random MAGMA
 * start), makeForPopulation(spec.method, spec.seed), then the search on
 * an exec::EvalEngine over `pool`. A non-empty `spec.objectives` runs
 * the method's mo::MultiObjective::searchMo instead of its scalar
 * search, and throws std::invalid_argument for a single-objective
 * method. `spec.threads` is not read; the record* flags reach the
 * scalar search, and convergence is also recorded when the store tier
 * fires, for Trf-0-ep.
 */
Solved solve(const sched::MappingEvaluator& eval, const SearchSpec& spec,
             const WarmTiers* tiers, exec::ThreadPool& pool);

namespace detail {
/** Defined in builtin_methods.cc; called once by global(). The explicit
 * call (rather than per-TU static initializers) keeps the builtins from
 * being dropped when magma_core is linked as a static library. */
void registerBuiltinOptimizers(OptimizerRegistry& registry);
}  // namespace detail

}  // namespace magma::api

#endif  // MAGMA_API_REGISTRY_H_
