/**
 * @file
 * Dynamic-churn harness: warm incremental re-mapping vs cold re-solves
 * (src/dyn/, the online version of Section V-C / Table V).
 *
 * Replays one heavy-churn trace (bundles arriving, swapping and
 * departing every quarter-second of virtual time) twice through a
 * dyn::EventEngine:
 *   cold — warm remap OFF: every event is an independent full-budget
 *          search (what a mapper without solution transfer must do);
 *   warm — warm remap ON: each event's search is seeded from the
 *          running mapping (survivors keep their genes verbatim) on a
 *          quarter of the cold budget.
 *
 * SELF-CHECK (exits non-zero on failure): the warm replay must reach
 * the cold replay's final steady-state makespan within 1% while every
 * warm-seeded event spends <= 25% of the cold per-event budget — the
 * paper's Table V claim carried into the dynamic setting.
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_common.h"
#include "dyn/engine.h"
#include "dyn/trace.h"
#include "obs/json_writer.h"

using namespace magma;

namespace {

/** The heavy-churn timeline (mirrors examples/specs/dyn_heavy_churn
 * .trace, built programmatically so the bench runs from any CWD). */
dyn::WorkloadTrace
heavyChurnTrace(uint64_t seed, int jobs)
{
    dyn::WorkloadTrace trace;
    trace.base.task = dnn::TaskType::Mix;
    trace.base.setting = accel::Setting::S2;
    trace.base.systemBwGbps = 16.0;
    trace.base.groupSize = jobs;
    auto ev = [&](double t, dyn::EventKind kind, const char* name,
                  dnn::TaskType task, int n, uint64_t s) {
        dyn::WorkloadEvent e;
        e.timeSeconds = t;
        e.kind = kind;
        e.bundle = name;
        e.task = task;
        e.jobs = n;
        e.seed = seed + s;
        trace.events.push_back(e);
    };
    using K = dyn::EventKind;
    using T = dnn::TaskType;
    ev(0.00, K::Arrive, "vision-a", T::Vision, jobs, 21);
    ev(0.25, K::Arrive, "lang-a", T::Language, jobs - 2, 22);
    ev(0.50, K::Arrive, "recom-a", T::Recommendation, jobs - 4, 23);
    ev(0.75, K::Swap, "lang-a", T::Language, jobs - 2, 24);
    ev(1.00, K::Arrive, "vision-b", T::Vision, jobs - 3, 25);
    dyn::WorkloadEvent dep;
    dep.timeSeconds = 1.25;
    dep.kind = K::Depart;
    dep.bundle = "recom-a";
    trace.events.push_back(dep);
    ev(1.50, K::Arrive, "recom-b", T::Recommendation, jobs - 1, 26);
    ev(1.75, K::Swap, "vision-a", T::Vision, jobs, 27);
    dep.timeSeconds = 2.00;
    dep.bundle = "lang-a";
    trace.events.push_back(dep);
    ev(2.25, K::Arrive, "lang-b", T::Language, jobs - 2, 28);
    ev(2.50, K::Swap, "recom-b", T::Recommendation, jobs - 1, 29);
    dep.timeSeconds = 2.75;
    dep.bundle = "vision-b";
    trace.events.push_back(dep);
    trace.validate();
    return trace;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const int64_t cold_budget = args.budget(1600);
    const int64_t remap_budget = cold_budget / 4;
    const int jobs = args.full ? 20 : 12;

    bench::printHeader(
        "Dynamic churn: warm incremental re-map vs cold re-solve");

    dyn::WorkloadTrace trace = heavyChurnTrace(args.seed, jobs);

    dyn::DynConfig cold_cfg;
    cold_cfg.search.sampleBudget = cold_budget;
    cold_cfg.search.seed = args.seed;
    cold_cfg.warmRemap = false;
    dyn::DynResult cold = dyn::EventEngine(cold_cfg).replay(trace);

    dyn::DynConfig warm_cfg = cold_cfg;
    warm_cfg.warmRemap = true;
    warm_cfg.remapBudget = remap_budget;
    dyn::DynResult warm = dyn::EventEngine(warm_cfg).replay(trace);

    std::printf("\n%-3s %-7s %-10s %5s | %9s %12s | %9s %12s %6s\n", "ev",
                "kind", "bundle", "jobs", "cold-smp", "cold-mks",
                "warm-smp", "warm-mks", "ratio");
    bool budget_ok = true;
    for (size_t i = 0; i < trace.events.size(); ++i) {
        const dyn::EventRecord& c = cold.records[i];
        const dyn::EventRecord& w = warm.records[i];
        double ratio = c.steadyMakespanSeconds > 0.0
                           ? w.steadyMakespanSeconds /
                                 c.steadyMakespanSeconds
                           : 1.0;
        std::printf("%-3zu %-7s %-10s %5d | %9lld %12.6f | %9lld %12.6f "
                    "%6.3f\n",
                    i, dyn::eventKindName(w.event.kind).c_str(),
                    w.event.bundle.c_str(), w.activeJobs,
                    static_cast<long long>(c.samplesUsed),
                    c.steadyMakespanSeconds * 1e3,
                    static_cast<long long>(w.samplesUsed),
                    w.steadyMakespanSeconds * 1e3, ratio);
        if (w.source == dyn::RemapSource::Previous &&
            w.samplesUsed * 4 > c.samplesUsed)
            budget_ok = false;
    }

    double sample_frac =
        cold.totalSamples > 0
            ? static_cast<double>(warm.totalSamples) / cold.totalSamples
            : 1.0;
    std::printf("\ncold: %lld samples, final makespan %.6f ms, stall total "
                "%.3f ms\n",
                static_cast<long long>(cold.totalSamples),
                cold.finalMakespanSeconds * 1e3,
                cold.totalStallSeconds * 1e3);
    std::printf("warm: %lld samples (%.0f%% of cold), final makespan "
                "%.6f ms, stall total %.3f ms\n",
                static_cast<long long>(warm.totalSamples),
                100.0 * sample_frac, warm.finalMakespanSeconds * 1e3,
                warm.totalStallSeconds * 1e3);

    std::string json_path = args.jsonOutPath();
    if (!json_path.empty()) {
        obs::JsonWriter w;
        w.beginTelemetry("dyn_churn");
        w.beginObject("config");
        w.field("full", args.full);
        w.field("seed", args.seed);
        w.field("events", static_cast<int64_t>(trace.events.size()));
        w.field("cold_budget", cold_budget);
        w.field("remap_budget", remap_budget);
        w.endObject();
        w.beginObject("metrics");
        w.field("cold_samples", cold.totalSamples);
        w.field("warm_samples", warm.totalSamples);
        w.field("cold_final_makespan_seconds", cold.finalMakespanSeconds);
        w.field("warm_final_makespan_seconds", warm.finalMakespanSeconds);
        w.field("cold_stall_seconds", cold.totalStallSeconds);
        w.field("warm_stall_seconds", warm.totalStallSeconds);
        w.endObject();
        w.beginArray("samples");
        for (size_t i = 0; i < trace.events.size(); ++i) {
            w.beginObject();
            w.field("event", static_cast<int64_t>(i));
            w.field("cold_samples", cold.records[i].samplesUsed);
            w.field("warm_samples", warm.records[i].samplesUsed);
            w.field("cold_steady_makespan_seconds",
                    cold.records[i].steadyMakespanSeconds);
            w.field("warm_steady_makespan_seconds",
                    warm.records[i].steadyMakespanSeconds);
            w.field("warm_source",
                    dyn::remapSourceName(warm.records[i].source));
            w.endObject();
        }
        w.endArray();
        w.endObject();
        if (w.writeFile(json_path))
            std::printf("json: %s\n", json_path.c_str());
    }

    // ---- self-check: Table V's bargain must hold under churn ----------
    bool quality_ok =
        warm.finalMakespanSeconds <= cold.finalMakespanSeconds * 1.01;
    if (!quality_ok)
        std::fprintf(stderr,
                     "SELF-CHECK FAILED: warm final makespan %.6f ms "
                     "exceeds cold %.6f ms by more than 1%%\n",
                     warm.finalMakespanSeconds * 1e3,
                     cold.finalMakespanSeconds * 1e3);
    if (!budget_ok)
        std::fprintf(stderr,
                     "SELF-CHECK FAILED: a warm-seeded event spent more "
                     "than 25%% of the cold per-event samples\n");
    if (!quality_ok || !budget_ok)
        return 1;
    std::printf("\nself-check OK: warm matches cold within 1%% at <= 25%% "
                "per-event budget\n");
    return 0;
}
