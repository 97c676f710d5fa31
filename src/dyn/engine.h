#ifndef MAGMA_DYN_ENGINE_H_
#define MAGMA_DYN_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/platform.h"
#include "api/registry.h"
#include "api/spec.h"
#include "cost/cost_model.h"
#include "dyn/reconfig.h"
#include "dyn/trace.h"
#include "exec/thread_pool.h"
#include "mo/pareto.h"
#include "sched/job_analyzer.h"
#include "sched/mapping.h"
#include "serve/mapping_store.h"

namespace magma::dyn {

/**
 * Knobs of one dynamic replay. `search` supplies the method, objective,
 * seed, thread count and — as `sampleBudget` — the COLD search budget
 * (what an event pays when no previous knowledge applies).
 * `remapBudget` is the incremental per-event budget once knowledge
 * exists (<= 0 selects opt::transfer::warmBudget's quarter of it);
 * `warmRemap = false` ablates transfer entirely, making every event a
 * cold full-budget search — the baseline bench_dyn_churn compares
 * against.
 *
 * `store`/`archive` wire in the serve-layer warm tiers: when the running
 * mapping cannot seed an event (the first one), the engine falls back to
 * a fingerprint MappingStore lookup, then to Pareto-archive seeds, then
 * to a cold search — api::solve's seedSearch cascade, which
 * serve::MappingService runs too and which also puts the Herald-like
 * mapping into every population, the cold one included. Both are optional and read (the
 * store is also written back) only between searches, never
 * concurrently.
 */
struct DynConfig {
    api::SearchSpec search;
    int64_t remapBudget = 0;  ///< <= 0: opt::transfer::warmBudget
    bool warmRemap = true;
    ReconfigSpec reconfig;
    serve::MappingStore* store = nullptr;
    const mo::ParetoArchive* archive = nullptr;
};

/** How an event's search was seeded (EventRecord::source): the tier
 * api::seedSearch drew on. */
using RemapSource = api::SeedSource;

/** Source name ("cold", "previous", "store", "archive"). */
std::string remapSourceName(RemapSource s);

/**
 * Outcome of one replayed event: the trace event echoed back, the
 * re-mapping search's provenance and cost, and the schedule quality of
 * the new mapping — `makespanSeconds` WITH the reconfiguration stalls
 * charged inside the simulation (what this transition really costs) and
 * `steadyMakespanSeconds` without them (what the active set sustains
 * once reconfiguration amortizes; the quality bench_dyn_churn compares).
 */
struct EventRecord {
    WorkloadEvent event;
    int activeJobs = 0;
    RemapSource source = RemapSource::Cold;
    int64_t budget = 0;       ///< sample budget granted to this search
    int64_t samplesUsed = 0;  ///< samples actually spent
    double fitness = 0.0;     ///< search objective value (steady state)
    double makespanSeconds = 0.0;
    double steadyMakespanSeconds = 0.0;
    ReconfigCharge charge;
    sched::Mapping mapping;
};

/** Outcome of a whole trace replay. */
struct DynResult {
    std::vector<EventRecord> records;
    int64_t totalSamples = 0;
    double totalStallSeconds = 0.0;
    double totalReloadBytes = 0.0;
    /** Steady-state makespan after the last event (0 when it empties
     * the platform). */
    double finalMakespanSeconds = 0.0;
    double finalFitness = 0.0;

    /** Fold one event's record into the totals and append it. */
    void add(EventRecord rec);
};

/**
 * The dynamic-workload engine (tentpole of src/dyn/): advances virtual
 * time through a WorkloadTrace, rebuilds the active job set at each
 * Arrive/Depart/Swap, and re-maps it incrementally — warm-started from
 * the running mapping via opt::transfer::adaptMatched (the engine knows
 * where every surviving job sat in the running group, so survivors keep
 * their genes verbatim), falling back to the MappingStore and
 * ParetoArchive tiers, then cold. Each event's ReconfigCost (re-tiling
 * stalls + weight reloads for moved/new jobs) is charged inside the
 * schedule simulation via MappingEvaluator::evaluateWithSetup, so churn
 * shows up in makespan rather than a side ledger.
 *
 * An event changes one bundle, so each bundle carries what events do
 * not change: its Job Analysis Table rows, analyzed once when it arrives
 * or is swapped (the Job Analyzer is a pure function of layer, batch
 * and core, so they are bitwise the rows a whole-group analysis gives),
 * and its offset in the running group. A step assembles the table from
 * the rows, derives the survivors' correspondence from the offsets, and
 * searches on one evaluation pool owned for the engine's lifetime.
 *
 * Determinism: for a fixed trace and DynConfig the replay is bitwise
 * reproducible at any `search.threads` count — every RNG is seeded from
 * (search.seed, event index), wall-clock never feeds back into results,
 * and the search layer's batch bookkeeping is submission-ordered.
 *
 * Use replay() for a whole trace, or reset() + step() to drive events
 * one at a time (the m3e_dyn CLI streams records as it steps).
 */
class EventEngine {
  public:
    /** Throws std::invalid_argument when `cfg.search.objectives` is
     * non-empty: a replay runs scalar searches only. */
    explicit EventEngine(DynConfig cfg);

    /** Start over on a trace's base problem (platform, policy, BW). */
    void reset(const api::ProblemSpec& base);

    /** Apply one event: update the active set, re-map, charge reconfig.
     * Events must arrive in trace order (validate() invariants). */
    EventRecord step(const WorkloadEvent& ev);

    /** reset(trace.base), then step() every event. */
    DynResult replay(const WorkloadTrace& trace);

    /** Jobs currently active (sum over live bundles). */
    int activeJobs() const;
    /** The running mapping (empty before the first non-empty remap). */
    const sched::Mapping& mapping() const { return mapping_; }
    /** The job group the running mapping maps: live bundles' jobs in
     * insertion order, renumbered across the concatenation. */
    const dnn::JobGroup& group() const { return group_; }
    /** The Job Analysis Table of the live bundles, assembled from their
     * rows — the table the last step's search evaluated against. */
    sched::JobAnalysisTable table() const;
    /**
     * The last step's job correspondence: match()[i] is the position
     * group() job i held in the group before that event, or -1 for a
     * job the event brought in. It seeds the previous tier
     * (adaptMatched) and bills the reconfiguration.
     */
    const std::vector<int>& match() const { return match_; }

  private:
    struct Bundle {
        std::string name;
        std::vector<dnn::Job> jobs;
        /** jobs x sub-accelerators, analyzed on this bundle alone. */
        sched::JobAnalysisTable rows;
        /** Position of jobs[0] in group_, or -1 while the bundle's jobs
         * are not in it (arrived or swapped since the last re-map). */
        int offset = -1;
    };

    /** A bundle of `jobs`' jobs, with its rows analyzed on the
     * platform. */
    Bundle makeBundle(std::string name, dnn::JobGroup jobs) const;

    DynConfig cfg_;
    api::ProblemSpec base_;
    accel::Platform platform_;
    cost::CostModel model_;
    std::unique_ptr<exec::ThreadPool> pool_;  // every search's lanes
    bool ready_ = false;
    int64_t eventIndex_ = 0;

    std::vector<Bundle> bundles_;  // live, insertion order
    // Running solution: the mapping over group_, and the last step's
    // correspondence (match()).
    sched::Mapping mapping_;
    dnn::JobGroup group_;
    std::vector<int> match_;
};

}  // namespace magma::dyn

#endif  // MAGMA_DYN_ENGINE_H_
