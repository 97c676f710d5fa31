#ifndef MAGMA_API_SPEC_H_
#define MAGMA_API_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "accel/platform.h"
#include "dnn/model.h"
#include "sched/bw_allocator.h"
#include "sched/evaluator.h"

namespace magma::api {

/**
 * Declarative description of a mapping problem: which workload, on which
 * Table III platform, under which bandwidth regime. A ProblemSpec is a
 * plain value — comparable, serializable (exact key=value text
 * round-trip, same discipline as Mapping::toText) and fingerprintable —
 * so an experiment's inputs can be stored, queued and replayed verbatim.
 *
 * Keys (one per toText line): task, setting, flexible, system_bw_gbps,
 * group_size, bw_policy, workload_seed.
 */
struct ProblemSpec {
    dnn::TaskType task = dnn::TaskType::Mix;
    accel::Setting setting = accel::Setting::S2;
    bool flexible = false;  ///< Fig. 14 flexible-array variant
    double systemBwGbps = 16.0;
    int groupSize = 40;
    sched::BwPolicy bwPolicy = sched::BwPolicy::Proportional;
    uint64_t workloadSeed = 1;  ///< WorkloadGenerator seed

    std::string toText() const;
    /** Exact inverse of toText(); throws std::invalid_argument. */
    static ProblemSpec fromText(const std::string& text);
    /**
     * Apply one key=value pair; returns false when the key is not a
     * ProblemSpec key (composite formats dispatch on this), throws on a
     * known key with a bad value.
     */
    bool applyKey(std::string_view key, std::string_view value);

    bool operator==(const ProblemSpec&) const = default;
};

/**
 * Declarative description of one search: which method (an
 * OptimizerRegistry name or alias), optimizing what, under which budget
 * and seed. Same text discipline as ProblemSpec.
 *
 * Keys: method, objective, objectives, sample_budget, seed, threads,
 * record_convergence, record_samples, warm_start.
 */
struct SearchSpec {
    std::string method = "MAGMA";  ///< registry name or alias
    sched::Objective objective = sched::Objective::Throughput;
    /**
     * Multi-objective mode: a non-empty list ("objectives=throughput,
     * energy") makes api::solve search for the Pareto front of ALL
     * listed objectives at once (the method must implement
     * mo::MultiObjective, e.g. method=nsga2); entry 0 is the primary
     * used for scalar summaries, and the scalar `objective` key is
     * ignored. Empty (default) keeps the classic single-objective path.
     */
    std::vector<sched::Objective> objectives;
    int64_t sampleBudget = 10000;  ///< paper's main-experiment budget
    uint64_t seed = 1;             ///< optimizer seed
    /** Evaluation lanes of the Runner's pool (0 = auto: MAGMA_THREADS,
     * else hardware concurrency); results are identical at any count. */
    int threads = 1;
    bool recordConvergence = false;
    bool recordSamples = false;
    /** Allow store-seeded warm starts when served (serve::MapRequest);
     * ignored by the offline Runner, which has no store. */
    bool warmStart = true;

    std::string toText() const;
    static SearchSpec fromText(const std::string& text);
    bool applyKey(std::string_view key, std::string_view value);

    bool operator==(const SearchSpec&) const = default;
};

/**
 * A whole experiment as one portable artifact: problem + search. The
 * text form is the concatenation of both blocks (their key sets are
 * disjoint), which is also the on-disk spec-file format consumed by
 * `m3e_cli --spec FILE` — key=value lines, '#' comments and blank lines
 * allowed.
 */
struct ExperimentSpec {
    ProblemSpec problem;
    SearchSpec search;

    std::string toText() const;
    static ExperimentSpec fromText(const std::string& text);
    /** Load from a spec file; throws std::runtime_error if unreadable. */
    static ExperimentSpec fromFile(const std::string& path);

    bool operator==(const ExperimentSpec&) const = default;
};

/** Build the platform a ProblemSpec describes (fixed or flexible). */
accel::Platform buildPlatform(const ProblemSpec& spec);

}  // namespace magma::api

#endif  // MAGMA_API_SPEC_H_
