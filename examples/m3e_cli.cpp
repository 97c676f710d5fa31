/**
 * @file
 * m3e_cli — command-line driver for the M3E framework, built on the
 * declarative api/ layer: flags (or a spec file) populate an
 * api::ExperimentSpec, api::Runner executes it, and the result is an
 * api::RunReport that can be written to disk and re-parsed exactly.
 *
 * Usage:
 *   m3e_cli [--spec FILE] [--task Vision|Lang|Recom|Mix] [--setting S1..S6]
 *           [--bw GBPS] [--group N] [--budget N] [--seed N]
 *           [--method NAME | --all] [--objective NAME]
 *           [--objectives LIST] [--front-out FILE] [--flexible]
 *           [--timeline] [--threads N] [--stats]
 *           [--report FILE] [--metrics-out FILE] [--trace-out FILE]
 *           [--list-methods]
 *
 * --spec FILE loads a key=value experiment spec (see api::ExperimentSpec;
 * '#' comments allowed); flags AFTER --spec override its fields. --report
 * FILE writes the RunReport artifact and round-trip-verifies it
 * (fromText(written) must equal the in-memory report bitwise).
 * --list-methods prints every registered optimizer with its aliases.
 *
 * --threads N fans candidate evaluation out over N lanes (0 = auto via
 * MAGMA_THREADS env var / hardware concurrency); results are identical
 * at every thread count — only wall-clock changes.
 *
 * --stats prints the process-wide exec::CostCache counters (hits, misses,
 * entries) after the run — how much cost-model work memoization skipped —
 * read back through the obs::MetricsRegistry gauges, plus the eval-engine
 * counters when the observability level recorded them (with the share of
 * MAGMA children stopped at their load bound), plus (at
 * MAGMA_METRICS=profile) the top-10 profiler nodes by self time.
 *
 * --metrics-out FILE writes the whole process metrics registry (and, at
 * MAGMA_METRICS=trace or profile, the drained span trace and profiler
 * tree) as a schema-1 obs::SnapshotWriter JSON artifact,
 * round-trip-verified like --report.
 *
 * --trace-out FILE exports the drained span trace as a Chrome
 * trace-event / Perfetto JSON file (open it in ui.perfetto.dev),
 * reparse-verified like every artifact. With both --metrics-out and
 * --trace-out the tracer is drained once and shared.
 *
 * The MAGMA_METRICS env var (off|counters|trace|profile, default
 * counters) selects how much is recorded; search results are bitwise
 * identical at every level.
 *
 * --objectives LIST (comma-separated, e.g. "throughput,energy") switches
 * to multi-objective mode: the method (which must implement
 * mo::MultiObjective, e.g. --method nsga2) searches for the whole Pareto
 * front in one run, scoring every objective from a single simulation per
 * candidate. The front is printed as a table; --front-out FILE persists
 * it as a "magma-pareto-front v1" artifact (round-trip-verified, like
 * --report) that ParetoArchive::load can reload for warm starts.
 *
 * Method names are registry names or aliases ("MAGMA", "Herald-like",
 * "stdGA", "cma-es", "ppo2", ...). Objectives: throughput latency energy
 * edp perf-per-watt.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "analysis/timeline.h"
#include "api/registry.h"
#include "api/runner.h"
#include "exec/cost_cache.h"
#include "mo/pareto.h"
#include "obs/snapshot.h"
#include "obs/trace_export.h"

using namespace magma;
using cli::numberOrDie;
using cli::parseOrDie;

namespace {

struct CliArgs {
    api::ExperimentSpec exp;
    bool all = false;
    bool timeline = false;
    bool stats = false;
    std::string reportPath;
    std::string frontPath;
    std::string metricsPath;
    std::string tracePath;
};

void
listMethods()
{
    std::printf("%-14s %s\n", "method", "aliases");
    for (const auto& e : api::OptimizerRegistry::global().entries()) {
        std::string aliases;
        for (const std::string& a : e.aliases)
            aliases += (aliases.empty() ? "" : ", ") + a;
        std::printf("%-14s %s\n", e.name.c_str(), aliases.c_str());
    }
}

CliArgs
parse(int argc, char** argv)
{
    CliArgs a;
    a.exp.problem.groupSize = 40;
    a.exp.search.sampleBudget = 2000;  // CLI default: quick runs
    auto need = [&](int i) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(2);
        }
        return std::string(argv[i + 1]);
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--spec") {
            try {
                a.exp = api::ExperimentSpec::fromFile(need(i++));
            } catch (const std::exception& e) {
                std::fprintf(stderr, "--spec: %s\n", e.what());
                std::exit(2);
            }
        } else if (flag == "--task")
            a.exp.problem.task =
                parseOrDie(dnn::taskTypeFromName, need(i++));
        else if (flag == "--setting")
            a.exp.problem.setting =
                parseOrDie(accel::settingFromName, need(i++));
        else if (flag == "--bw")
            a.exp.problem.systemBwGbps = numberOrDie<double>(flag, need(i++));
        else if (flag == "--group")
            a.exp.problem.groupSize = numberOrDie<int>(flag, need(i++));
        else if (flag == "--budget")
            a.exp.search.sampleBudget = numberOrDie<int64_t>(flag, need(i++));
        else if (flag == "--seed") {
            // One --seed drives both the workload draw and the search,
            // exactly as before the api/ redesign.
            uint64_t seed = numberOrDie<uint64_t>(flag, need(i++));
            a.exp.problem.workloadSeed = seed;
            a.exp.search.seed = seed;
        } else if (flag == "--method")
            a.exp.search.method = need(i++);
        else if (flag == "--objective")
            a.exp.search.objective =
                parseOrDie(sched::objectiveFromName, need(i++));
        else if (flag == "--objectives")
            a.exp.search.objectives =
                parseOrDie(sched::objectiveListFromName, need(i++));
        else if (flag == "--front-out")
            a.frontPath = need(i++);
        else if (flag == "--all")
            a.all = true;
        else if (flag == "--flexible")
            a.exp.problem.flexible = true;
        else if (flag == "--timeline")
            a.timeline = true;
        else if (flag == "--stats")
            a.stats = true;
        else if (flag == "--threads")
            a.exp.search.threads = numberOrDie<int>(flag, need(i++));
        else if (flag == "--report")
            a.reportPath = need(i++);
        else if (flag == "--metrics-out")
            a.metricsPath = need(i++);
        else if (flag == "--trace-out")
            a.tracePath = need(i++);
        else if (flag == "--list-methods") {
            listMethods();
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            std::exit(2);
        }
    }
    return a;
}

/** Front table + hypervolume print for multi-objective runs. */
void
printFront(const api::RunReport& rep)
{
    const auto& objectives = rep.search.objectives;
    std::printf("\nPareto front: %zu points (%s)\n", rep.front.size(),
                sched::objectiveListName(objectives).c_str());
    std::printf("%5s", "point");
    for (sched::Objective o : objectives)
        std::printf("  %22s", sched::objectiveName(o).c_str());
    std::printf("\n");
    for (size_t i = 0; i < rep.front.size(); ++i) {
        std::printf("%5zu", i);
        for (double v : rep.front[i].objs)
            // magma-lint: allow(double-format): console front table;
            // the parsed artifact goes through --front-out at %.17g.
            std::printf("  %22.6g", v);
        std::printf("\n");
    }
    mo::ObjectiveVector origin(objectives.size(), 0.0);
    // magma-lint: allow(double-format): console summary, never reparsed.
    std::printf("hypervolume (origin ref): %.6g\n",
                rep.frontArchive().hypervolume(origin));
}

api::RunReport
runOne(api::Runner& runner, const api::ExperimentSpec& exp,
       const CliArgs& args)
{
    api::RunReport rep = runner.run(exp);
    std::printf("%s\n", rep.summaryLine().c_str());
    if (!rep.front.empty())
        printFront(rep);
    if (args.timeline) {
        // Key the problem cache the way the run did: on the primary
        // objective in multi-objective mode.
        m3e::Problem& problem = runner.problem(
            exp.problem, exp.search.objectives.empty()
                             ? exp.search.objective
                             : exp.search.objectives[0]);
        sched::ScheduleResult sim =
            problem.evaluator().evaluate(rep.best, true);
        analysis::TimelineExporter tl(sim, problem.group(),
                                      problem.evaluator().numAccels());
        std::printf("%s", tl.renderGantt(72).c_str());
        std::printf("%s\n", tl.renderBwProfile(72).c_str());
    }
    return rep;
}

/** Write the report artifact and verify it re-parses bitwise. */
void
writeReport(const api::RunReport& rep, const std::string& path)
{
    std::string text = rep.toText();
    {
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot write report '%s'\n",
                         path.c_str());
            std::exit(1);
        }
        out << text;
    }
    std::ifstream in(path);
    std::string back((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!(api::RunReport::fromText(back) == rep)) {
        std::fprintf(stderr, "report round-trip FAILED: %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::printf("report round-trip OK: %s\n", path.c_str());
}

/** Persist the Pareto front and verify it reloads bitwise. */
void
writeFront(const api::RunReport& rep, const std::string& path)
{
    mo::ParetoArchive arch = rep.frontArchive();
    try {
        arch.save(path);
        if (!(mo::ParetoArchive::load(path) == arch)) {
            std::fprintf(stderr, "front round-trip FAILED: %s\n",
                         path.c_str());
            std::exit(1);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "--front-out: %s\n", e.what());
        std::exit(1);
    }
    std::printf("front round-trip OK: %s\n", path.c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    CliArgs args = parse(argc, argv);
    api::Runner runner;

    const api::ProblemSpec& ps = args.exp.problem;
    const api::SearchSpec& ss = args.exp.search;
    // Multi-objective runs fix the evaluator on the primary objective.
    sched::Objective header_obj =
        ss.objectives.empty() ? ss.objective : ss.objectives[0];
    std::string obj_label = ss.objectives.empty()
                                ? sched::objectiveName(ss.objective)
                                : sched::objectiveListName(ss.objectives);
    m3e::Problem& problem = runner.problem(ps, header_obj);
    // magma-lint: allow(double-format): console banner, never reparsed.
    std::printf("%s (%s), task %s, BW %g GB/s, group %d, budget %lld, "
                "objective %s\n",
                problem.platform().name.c_str(),
                problem.platform().description.c_str(),
                dnn::taskTypeName(ps.task).c_str(), ps.systemBwGbps,
                ps.groupSize, static_cast<long long>(ss.sampleBudget),
                obj_label.c_str());
    // magma-lint: allow(double-format): console banner, never reparsed.
    std::printf("peak %.0f GFLOP/s, group total %.2f GFLOPs\n\n",
                problem.platform().peakGflops(),
                problem.group().totalFlops() / 1e9);

    api::RunReport last;
    if (args.all) {
        if (!args.reportPath.empty() || !args.frontPath.empty()) {
            std::fprintf(stderr, "--report/--front-out need a single "
                                 "--method (not --all)\n");
            return 2;
        }
        if (!args.exp.search.objectives.empty()) {
            std::fprintf(stderr,
                         "--objectives needs a multi-objective --method "
                         "(not --all; the Table IV line-up is "
                         "single-objective)\n");
            return 2;
        }
        for (const std::string& method : api::tableIvMethods()) {
            api::ExperimentSpec exp = args.exp;
            exp.search.method = method;
            runOne(runner, exp, args);
        }
    } else {
        if (!args.frontPath.empty() && ss.objectives.empty()) {
            std::fprintf(stderr, "--front-out needs --objectives (a "
                                 "single-objective run has no front)\n");
            return 2;
        }
        try {
            last = runOne(runner, args.exp, args);
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
        if (!args.reportPath.empty())
            writeReport(last, args.reportPath);
        if (!args.frontPath.empty())
            writeFront(last, args.frontPath);
    }

    if (args.stats) {
        // Touch the global cache so its gauge provider is registered,
        // then read everything back through the registry — the same
        // numbers --metrics-out snapshots.
        exec::CostCache::global();
        obs::MetricsSnapshot snap = obs::SnapshotWriter::capture(
            "m3e_cli", obs::MetricsRegistry::global());
        auto gauge = [&](const char* name) {
            const obs::GaugeSnap* g = snap.findGauge(name);
            return static_cast<long long>(g ? g->value : 0.0);
        };
        const obs::GaugeSnap* rate =
            snap.findGauge("exec.cost_cache.hit_rate");
        // magma-lint: allow(double-format): console stats, never
        // reparsed (the machine-readable path is --metrics-out).
        std::printf("\ncost cache (flexible-shape problems only): %lld "
                    "hits / %lld misses (%.1f%% hit rate), %lld entries\n",
                    gauge("exec.cost_cache.hits"),
                    gauge("exec.cost_cache.misses"),
                    100.0 * (rate ? rate->value : 0.0),
                    gauge("exec.cost_cache.entries"));
        const obs::CounterSnap* cand =
            snap.findCounter("exec.eval.candidates");
        if (cand) {
            auto counter = [&](const char* name) {
                const obs::CounterSnap* c = snap.findCounter(name);
                return static_cast<long long>(c ? c->value : 0);
            };
            std::printf("eval engine: %lld candidates in %lld batches, "
                        "%lld singles\n",
                        static_cast<long long>(cand->value),
                        counter("exec.eval.batches"),
                        counter("exec.eval.singles"));
            const long long samples = counter("opt.samples");
            const long long bounded = counter("opt.bounded_children");
            // magma-lint: allow(double-format): console stats, never
            // reparsed (the machine-readable path is --metrics-out).
            std::printf("load bound: %lld of %lld samples stopped before "
                        "simulating (%.1f%%)\n",
                        bounded, samples,
                        samples ? 100.0 * static_cast<double>(bounded) /
                                      static_cast<double>(samples)
                                : 0.0);
        }
        if (!snap.profile.empty()) {
            // Top-10 nodes by exclusive time; stable_sort keeps the
            // deterministic depth-first tree order among ties.
            std::vector<obs::ProfileSnap> top = snap.profile;
            std::stable_sort(top.begin(), top.end(),
                             [](const obs::ProfileSnap& x,
                                const obs::ProfileSnap& y) {
                                 return x.selfSeconds > y.selfSeconds;
                             });
            if (top.size() > 10)
                top.resize(10);
            std::printf("\nprofile (top %zu nodes by self time):\n",
                        top.size());
            for (const obs::ProfileSnap& p : top)
                // magma-lint: allow(double-format): console stats, never
                // reparsed (the machine-readable path is --metrics-out).
                std::printf("  %-44s count=%lld total=%.6fs self=%.6fs\n",
                            p.path.c_str(),
                            static_cast<long long>(p.count),
                            p.totalSeconds, p.selfSeconds);
        }
    }
    if (!args.metricsPath.empty() || !args.tracePath.empty()) {
        // One captureGlobal drains the tracer once; both artifacts
        // share the same snapshot.
        obs::MetricsSnapshot snap =
            obs::SnapshotWriter::captureGlobal("m3e_cli");
        if (!args.metricsPath.empty()) {
            if (!obs::SnapshotWriter::write(snap, args.metricsPath))
                return 1;
            std::printf("metrics round-trip OK: %s\n",
                        args.metricsPath.c_str());
        }
        if (!args.tracePath.empty()) {
            obs::ChromeTrace trace = obs::ChromeTrace::fromSnapshot(snap);
            if (!obs::TraceExporter::write(trace, args.tracePath))
                return 1;
            std::printf("trace round-trip OK: %s\n",
                        args.tracePath.c_str());
        }
    }
    return 0;
}
