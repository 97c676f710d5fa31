#ifndef MAGMA_DYN_RUNNER_H_
#define MAGMA_DYN_RUNNER_H_

#include <string>

#include "dyn/engine.h"
#include "dyn/trace.h"

namespace magma::dyn {

/** Output knobs of one replay (the m3e_dyn CLI surface). */
struct RunnerOptions {
    /** Write the schema-1 timeline JSON here ("" = don't). */
    std::string timelinePath;
    /** Echo one eventLine() per event to stdout. */
    bool printEvents = true;
};

/** A replay plus its (non-deterministic, JSON-only) wall cost. */
struct DynReport {
    DynResult result;
    double wallSeconds = 0.0;
};

/**
 * One deterministic line per replayed event — everything in it derives
 * from (trace, config) alone, doubles at %.17g, so fixed-seed replays
 * diff bitwise across runs and thread counts (the CI dyn-smoke gate
 * literally diffs this output at 1 and 4 threads). Wall-clock values
 * are deliberately absent; they live only in the timeline JSON.
 */
std::string eventLine(int64_t index, const EventRecord& rec);

/** One deterministic trailer line summarizing a DynResult. */
std::string summaryLine(const DynResult& result);

/**
 * The replay's schema-1 telemetry artifact ({schema, bench:
 * "dyn_timeline", config, metrics, samples}): config echoes the trace's
 * base problem and the engine knobs, metrics carries the aggregate
 * result, and samples holds one object per event (time, kind, bundle,
 * source, budget/samples, fitness, makespans, reconfig bill). Same
 * layout discipline as every other CI-consumed JSON in the repo.
 */
std::string timelineJson(const WorkloadTrace& trace, const DynConfig& cfg,
                         const DynReport& report);

/**
 * Replays traces through an EventEngine and emits the timeline report:
 * per-event stdout lines (deterministic) and the schema-1 JSON artifact
 * (optionally, with wall-clock). The obs counters/spans the engine
 * records (dyn.events, dyn.remaps, dyn.remap.search span) accumulate
 * in the global registry for --metrics-out snapshots.
 */
class Runner {
  public:
    explicit Runner(DynConfig cfg, RunnerOptions opts = {})
        : cfg_(std::move(cfg)), engine_(cfg_), opts_(opts)
    {}

    /** Replay, print (per opts), write the timeline JSON (per opts).
     * Returns the report; throws on invalid traces or I/O failure. */
    DynReport run(const WorkloadTrace& trace);

  private:
    DynConfig cfg_;
    EventEngine engine_;
    RunnerOptions opts_;
};

}  // namespace magma::dyn

#endif  // MAGMA_DYN_RUNNER_H_
