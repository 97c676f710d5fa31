#include "dyn/runner.h"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/textnum.h"
#include "obs/json_writer.h"
#include "obs/snapshot.h"
#include "sched/evaluator.h"

namespace magma::dyn {

std::string
eventLine(int64_t index, const EventRecord& rec)
{
    std::ostringstream os;
    os << "event " << index << " t="
       << common::formatDouble(rec.event.timeSeconds) << ' '
       << eventKindName(rec.event.kind) << " '" << rec.event.bundle
       << "' active=" << rec.activeJobs;
    if (rec.activeJobs == 0) {
        os << " idle";
        return os.str();
    }
    os << " source=" << remapSourceName(rec.source)
       << " budget=" << rec.budget << " samples=" << rec.samplesUsed
       << " fitness=" << common::formatDouble(rec.fitness)
       << " makespan=" << common::formatDouble(rec.makespanSeconds)
       << " steady=" << common::formatDouble(rec.steadyMakespanSeconds)
       << " moved=" << rec.charge.movedJobs
       << " new=" << rec.charge.newJobs
       << " kept=" << rec.charge.keptJobs << " stall="
       << common::formatDouble(rec.charge.totalStallSeconds);
    return os.str();
}

std::string
summaryLine(const DynResult& result)
{
    std::ostringstream os;
    os << "replayed " << result.records.size()
       << " events: samples=" << result.totalSamples << " stall="
       << common::formatDouble(result.totalStallSeconds) << " reload_bytes="
       << common::formatDouble(result.totalReloadBytes) << " final_makespan="
       << common::formatDouble(result.finalMakespanSeconds)
       << " final_fitness=" << common::formatDouble(result.finalFitness);
    return os.str();
}

std::string
timelineJson(const WorkloadTrace& trace, const DynConfig& cfg,
             const DynReport& report)
{
    obs::JsonWriter w;
    obs::SnapshotWriter::beginBenchConfig(
        w, "dyn_timeline", false, cfg.search.seed,
        dnn::taskTypeName(trace.base.task),
        accel::settingName(trace.base.setting), trace.base.systemBwGbps,
        trace.base.groupSize);
    w.field("method", cfg.search.method);
    w.field("objective", sched::objectiveName(cfg.search.objective));
    w.field("sample_budget", cfg.search.sampleBudget);
    w.field("remap_budget", cfg.remapBudget);
    w.field("warm_remap", cfg.warmRemap);
    w.field("retile_stall_seconds", cfg.reconfig.retileStallSeconds);
    w.field("charge_weight_reload", cfg.reconfig.chargeWeightReload);
    w.field("charge_arrivals", cfg.reconfig.chargeArrivals);
    w.field("events", static_cast<int64_t>(trace.events.size()));
    w.endObject();  // config

    const DynResult& r = report.result;
    w.beginObject("metrics");
    w.field("total_samples", r.totalSamples);
    w.field("total_stall_seconds", r.totalStallSeconds);
    w.field("total_reload_bytes", r.totalReloadBytes);
    w.field("final_makespan_seconds", r.finalMakespanSeconds);
    w.field("final_fitness", r.finalFitness);
    w.field("wall_seconds", report.wallSeconds);
    w.endObject();

    w.beginArray("samples");
    for (size_t i = 0; i < r.records.size(); ++i) {
        const EventRecord& rec = r.records[i];
        w.beginObject();
        w.field("event", static_cast<int64_t>(i));
        w.field("t_seconds", rec.event.timeSeconds);
        w.field("kind", eventKindName(rec.event.kind));
        w.field("bundle", rec.event.bundle);
        w.field("active_jobs", rec.activeJobs);
        w.field("source", remapSourceName(rec.source));
        w.field("budget", rec.budget);
        w.field("samples", rec.samplesUsed);
        w.field("fitness", rec.fitness);
        w.field("makespan_seconds", rec.makespanSeconds);
        w.field("steady_makespan_seconds", rec.steadyMakespanSeconds);
        w.field("moved_jobs", rec.charge.movedJobs);
        w.field("new_jobs", rec.charge.newJobs);
        w.field("kept_jobs", rec.charge.keptJobs);
        w.field("reload_bytes", rec.charge.reloadBytes);
        w.field("stall_seconds", rec.charge.totalStallSeconds);
        w.endObject();
    }
    w.endArray();
    w.endObject();  // root
    return w.str();
}

DynReport
Runner::run(const WorkloadTrace& trace)
{
    auto t0 = std::chrono::steady_clock::now();
    DynReport report;
    trace.validate();
    engine_.reset(trace.base);
    for (size_t i = 0; i < trace.events.size(); ++i) {
        EventRecord rec = engine_.step(trace.events[i]);
        if (opts_.printEvents)
            std::printf("%s\n",
                        eventLine(static_cast<int64_t>(i), rec).c_str());
        report.result.add(std::move(rec));
    }
    report.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    if (opts_.printEvents)
        std::printf("%s\n", summaryLine(report.result).c_str());
    if (!opts_.timelinePath.empty()) {
        std::string json = timelineJson(trace, cfg_, report);
        std::FILE* f = std::fopen(opts_.timelinePath.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write timeline '" +
                                     opts_.timelinePath + "'");
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
    }
    return report;
}

}  // namespace magma::dyn
