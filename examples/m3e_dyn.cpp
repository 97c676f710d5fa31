/**
 * @file
 * m3e_dyn — replay a timed dynamic-workload trace (src/dyn/).
 *
 * Loads a "magma-workload-trace v1" file (samples in examples/specs/),
 * replays its Arrive/Depart/Swap events through a dyn::EventEngine and
 * prints one line per event: how the incremental re-map was seeded
 * (previous mapping / store / archive / cold), the budget it got, the
 * resulting fitness, and the reconfiguration bill charged inside the
 * schedule simulation (moved/new/kept jobs, stall seconds).
 *
 * Usage:
 *   m3e_dyn --trace FILE [--method NAME] [--objective NAME]
 *           [--budget N] [--remap-budget N] [--no-warm] [--threads N]
 *           [--seed N] [--stall SECONDS] [--no-reload]
 *           [--store PATH] [--archive PATH]
 *           [--timeline-out FILE] [--metrics-out FILE]
 *           [--trace-out FILE] [--quiet]
 *
 * --budget is the cold per-event budget, --remap-budget the incremental
 * one (0 = budget/4, the Table V warm regime); --no-warm ablates
 * transfer (every event pays the cold budget). --store loads/saves a
 * serve::MappingStore as the second warm tier; --archive loads a
 * mo::ParetoArchive as the third. --timeline-out writes the schema-1
 * per-event JSON artifact; --metrics-out snapshots the obs registry
 * (dyn.events / dyn.remaps counters, dyn.remap.search spans at
 * MAGMA_METRICS=trace). --trace-out exports the same drained spans as
 * a Chrome trace-event JSON (open in ui.perfetto.dev); both snapshots
 * share one drain, and their round-trip confirmations go to stderr so
 * stdout stays byte-stable across metrics levels.
 *
 * Stdout is bitwise deterministic for a fixed trace + flags at ANY
 * --threads count (CI diffs 1 vs 4); wall-clock cost appears only in
 * the JSON artifacts.
 */

#include <cstdio>
#include <stdexcept>
#include <string>

#include "cli_flags.h"
#include "common/textnum.h"
#include "dyn/runner.h"
#include "obs/snapshot.h"
#include "obs/trace_export.h"
#include "sched/evaluator.h"

using namespace magma;
using cli::numberOrDie;
using cli::parseOrDie;

namespace {

struct DynArgs {
    std::string tracePath;
    dyn::DynConfig cfg;
    std::string storePath;
    std::string archivePath;
    std::string timelinePath;
    std::string metricsPath;
    std::string chromeTracePath;
    bool quiet = false;
};

DynArgs
parse(int argc, char** argv)
{
    DynArgs a;
    a.cfg.search.sampleBudget = 2000;
    auto need = [&](int i) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(2);
        }
        return std::string(argv[i + 1]);
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--trace")
            a.tracePath = need(i++);
        else if (flag == "--method")
            a.cfg.search.method = need(i++);
        else if (flag == "--objective")
            a.cfg.search.objective =
                parseOrDie(sched::objectiveFromName, need(i++));
        else if (flag == "--budget")
            a.cfg.search.sampleBudget = numberOrDie<int64_t>(flag, need(i++));
        else if (flag == "--remap-budget")
            a.cfg.remapBudget = numberOrDie<int64_t>(flag, need(i++));
        else if (flag == "--no-warm")
            a.cfg.warmRemap = false;
        else if (flag == "--threads")
            a.cfg.search.threads = numberOrDie<int>(flag, need(i++));
        else if (flag == "--seed")
            a.cfg.search.seed = numberOrDie<uint64_t>(flag, need(i++));
        else if (flag == "--stall")
            a.cfg.reconfig.retileStallSeconds =
                numberOrDie<double>(flag, need(i++));
        else if (flag == "--no-reload")
            a.cfg.reconfig.chargeWeightReload = false;
        else if (flag == "--store")
            a.storePath = need(i++);
        else if (flag == "--archive")
            a.archivePath = need(i++);
        else if (flag == "--timeline-out")
            a.timelinePath = need(i++);
        else if (flag == "--metrics-out")
            a.metricsPath = need(i++);
        else if (flag == "--trace-out")
            a.chromeTracePath = need(i++);
        else if (flag == "--quiet")
            a.quiet = true;
        else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            std::exit(2);
        }
    }
    if (a.tracePath.empty()) {
        std::fprintf(stderr,
                     "m3e_dyn: --trace FILE is required (see "
                     "examples/specs/*.trace)\n");
        std::exit(2);
    }
    return a;
}

}  // namespace

int
main(int argc, char** argv)
{
    DynArgs args = parse(argc, argv);

    dyn::WorkloadTrace trace;
    try {
        trace = dyn::WorkloadTrace::load(args.tracePath);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "m3e_dyn: %s\n", e.what());
        return 1;
    }

    serve::MappingStore store;
    if (!args.storePath.empty()) {
        try {
            store.loadFile(args.storePath);  // absent file: start cold
        } catch (const std::exception& e) {
            std::fprintf(stderr, "m3e_dyn: ignoring store '%s': %s\n",
                         args.storePath.c_str(), e.what());
            store.clear();
        }
        args.cfg.store = &store;
    }
    mo::ParetoArchive archive;
    if (!args.archivePath.empty()) {
        try {
            archive = mo::ParetoArchive::load(args.archivePath);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "m3e_dyn: %s\n", e.what());
            return 1;
        }
        args.cfg.archive = &archive;
    }

    std::printf("dynamic replay: %zu events, task %s, %s @ %s GB/s, "
                "method %s, objective %s, cold budget %lld, remap budget "
                "%lld%s\n",
                trace.events.size(),
                dnn::taskTypeName(trace.base.task).c_str(),
                accel::settingName(trace.base.setting).c_str(),
                common::formatDouble(trace.base.systemBwGbps).c_str(),
                args.cfg.search.method.c_str(),
                sched::objectiveName(args.cfg.search.objective).c_str(),
                static_cast<long long>(args.cfg.search.sampleBudget),
                static_cast<long long>(args.cfg.remapBudget),
                args.cfg.warmRemap ? "" : " (warm remap OFF)");

    dyn::RunnerOptions opts;
    opts.timelinePath = args.timelinePath;
    opts.printEvents = !args.quiet;
    dyn::Runner runner(args.cfg, opts);
    dyn::DynReport report;
    try {
        report = runner.run(trace);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "m3e_dyn: %s\n", e.what());
        return 1;
    }
    if (args.quiet)
        std::printf("%s\n", dyn::summaryLine(report.result).c_str());

    // Artifact notes go to stderr: stdout stays bitwise comparable
    // across runs that write to different output paths.
    if (!args.timelinePath.empty())
        std::fprintf(stderr, "timeline written: %s\n",
                     args.timelinePath.c_str());
    if (!args.storePath.empty()) {
        if (!store.compact(args.storePath)) {
            std::fprintf(stderr, "m3e_dyn: could not save store '%s'\n",
                         args.storePath.c_str());
            return 1;
        }
        std::fprintf(stderr, "store saved: %s (%lld entries)\n",
                     args.storePath.c_str(),
                     static_cast<long long>(store.size()));
    }
    if (!args.metricsPath.empty() || !args.chromeTracePath.empty()) {
        // One capture feeds both artifacts: drain() is destructive, so
        // the metrics snapshot and the Chrome trace must share it.
        obs::MetricsSnapshot snap =
            obs::SnapshotWriter::captureGlobal("m3e_dyn");
        if (!args.metricsPath.empty()) {
            if (!obs::SnapshotWriter::write(snap, args.metricsPath))
                return 1;
            std::fprintf(stderr, "metrics round-trip OK: %s\n",
                         args.metricsPath.c_str());
        }
        if (!args.chromeTracePath.empty()) {
            obs::ChromeTrace trace = obs::ChromeTrace::fromSnapshot(snap);
            if (!obs::TraceExporter::write(trace, args.chromeTracePath))
                return 1;
            std::fprintf(stderr, "trace round-trip OK: %s\n",
                         args.chromeTracePath.c_str());
        }
    }
    return 0;
}
