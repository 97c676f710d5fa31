/**
 * @file
 * m3e_serve — CLI server for the online mapping service (src/serve/).
 *
 * Drives a synthetic multi-tenant request trace through a
 * serve::MappingService: `--requests` mapping requests from `--tenants`
 * round-robin tenants, each an independently drawn group of the chosen
 * task, served on `--workers` concurrent lanes. The whole trace is
 * queued before the workers start, so at `--workers 1` the serve order
 * (every 5th request is priority 0 and goes first) and the output
 * repeat run to run. Requests whose workload
 * fingerprint is already in the MappingStore are warm-started on a
 * quarter of the cold budget (Section V-C / Table V, now end-to-end).
 *
 * Usage:
 *   m3e_serve [--requests N] [--tenants N] [--workers N] [--threads N]
 *             [--task Vision|Lang|Recom|Mix] [--setting S1..S6]
 *             [--bw GBPS] [--group N] [--budget N] [--seed N]
 *             [--objective NAME] [--store PATH] [--no-warm] [--quiet]
 *             [--coalesce] [--max-queue N] [--deadline SEC]
 *             [--metrics-out FILE] [--trace-out FILE]
 *
 * The flags populate the api::ProblemSpec/api::SearchSpec embedded in
 * every serve::MapRequest — the same declarative artifacts `m3e_cli
 * --spec` runs offline. --threads N sets evaluation lanes per request
 * (0 = auto via MAGMA_THREADS / hardware concurrency). --store PATH
 * names the store snapshot: startup runs crash recovery (snapshot +
 * append-log replay), every write-back is then logged durably, and
 * shutdown compacts — a second run starts warm even after kill -9.
 * --no-warm disables the store (cold baseline).
 *
 * Production controls (docs/serving.md): --coalesce collapses identical
 * in-flight requests into one search, --max-queue N bounds the waiting
 * queue (overflow sheds the oldest lowest-priority request; the trace is
 * queued whole, so N below --requests sheds the excess), --deadline
 * SEC sheds requests that waited past SEC at dequeue. Shed/coalesced
 * requests show in the per-request table and a summary line — emitted
 * only when these flags are used, so default output is unchanged.
 *
 * --metrics-out FILE writes the process metrics registry — per-tenant
 * serve.wait_seconds/.service_seconds histograms, request counters,
 * EvalEngine/CostCache gauges, and at MAGMA_METRICS=trace or profile
 * the drained span trace (plus the profiler tree at profile) — as a
 * schema-1 obs::SnapshotWriter JSON artifact, round-trip-verified.
 * --trace-out FILE exports the drained span trace as Chrome
 * trace-event / Perfetto JSON (ui.perfetto.dev), reparse-verified;
 * with both flags the tracer is drained once and shared.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include <chrono>

#include "cli_flags.h"
#include "obs/snapshot.h"
#include "obs/trace_export.h"
#include "serve/service.h"

using namespace magma;
using cli::numberOrDie;
using cli::parseOrDie;

namespace {

struct ServeArgs {
    int requests = 12;
    int tenants = 3;
    int workers = 2;
    int threads = 1;
    api::ProblemSpec problem;
    sched::Objective objective = sched::Objective::Throughput;
    int64_t budget = 1600;
    uint64_t seed = 1;
    std::string storePath;
    bool warm = true;
    bool quiet = false;
    bool coalesce = false;
    int64_t maxQueue = 0;
    double deadline = 0.0;
    std::string metricsPath;
    std::string tracePath;
};

ServeArgs
parse(int argc, char** argv)
{
    ServeArgs a;
    a.problem.groupSize = 24;
    auto need = [&](int i) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(2);
        }
        return std::string(argv[i + 1]);
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--requests")
            a.requests = numberOrDie<int>(flag, need(i++));
        else if (flag == "--tenants")
            a.tenants = numberOrDie<int>(flag, need(i++));
        else if (flag == "--workers")
            a.workers = numberOrDie<int>(flag, need(i++));
        else if (flag == "--threads")
            a.threads = numberOrDie<int>(flag, need(i++));
        else if (flag == "--task")
            a.problem.task = parseOrDie(dnn::taskTypeFromName, need(i++));
        else if (flag == "--setting")
            a.problem.setting =
                parseOrDie(accel::settingFromName, need(i++));
        else if (flag == "--bw")
            a.problem.systemBwGbps = numberOrDie<double>(flag, need(i++));
        else if (flag == "--group")
            a.problem.groupSize = numberOrDie<int>(flag, need(i++));
        else if (flag == "--budget")
            a.budget = numberOrDie<int64_t>(flag, need(i++));
        else if (flag == "--seed")
            a.seed = numberOrDie<uint64_t>(flag, need(i++));
        else if (flag == "--objective")
            a.objective = parseOrDie(sched::objectiveFromName, need(i++));
        else if (flag == "--store")
            a.storePath = need(i++);
        else if (flag == "--no-warm")
            a.warm = false;
        else if (flag == "--quiet")
            a.quiet = true;
        else if (flag == "--coalesce")
            a.coalesce = true;
        else if (flag == "--max-queue")
            a.maxQueue = numberOrDie<int64_t>(flag, need(i++));
        else if (flag == "--deadline")
            a.deadline = numberOrDie<double>(flag, need(i++));
        else if (flag == "--metrics-out")
            a.metricsPath = need(i++);
        else if (flag == "--trace-out")
            a.tracePath = need(i++);
        else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            std::exit(2);
        }
    }
    a.requests = std::max(0, a.requests);
    a.tenants = std::max(1, a.tenants);
    a.workers = std::max(1, a.workers);
    a.problem.groupSize = std::max(1, a.problem.groupSize);
    return a;
}

}  // namespace

int
main(int argc, char** argv)
{
    ServeArgs args = parse(argc, argv);

    serve::ServiceConfig cfg;
    cfg.workers = args.workers;
    cfg.threadsPerRequest = args.threads;
    cfg.storePath = args.storePath;
    cfg.coalesce = args.coalesce;
    cfg.maxQueueDepth = args.maxQueue;
    // The workers start once the whole trace is queued, so the serve
    // order, and with it the store each warm request sees, follows from
    // the queue policy alone: at --workers 1 the output repeats exactly.
    cfg.autoStart = false;
    serve::MappingService service(cfg);
    const bool production_knobs =
        args.coalesce || args.maxQueue > 0 || args.deadline > 0.0;

    std::printf("mapping service: %d workers x %d eval lane(s), task %s, "
                "%s @ %g GB/s, group %d, cold budget %lld%s\n",
                args.workers, args.threads,
                dnn::taskTypeName(args.problem.task).c_str(),
                accel::settingName(args.problem.setting).c_str(),
                args.problem.systemBwGbps, args.problem.groupSize,
                static_cast<long long>(args.budget),
                args.storePath.empty()
                    ? ""
                    : (", store " + args.storePath).c_str());
    if (service.store().size() > 0)
        std::printf("loaded %lld stored solution(s) — starting warm\n",
                    static_cast<long long>(service.store().size()));

    // Synthetic multi-tenant trace: round-robin tenants, independently
    // drawn groups (distinct workload seeds), a high-priority request
    // every 5th submission.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<serve::MapResponse>> futures;
    futures.reserve(args.requests);
    for (int i = 0; i < args.requests; ++i) {
        serve::MapRequest req;
        req.tenant = "tenant-" + std::to_string(i % args.tenants);
        req.priority = (i % 5 == 0) ? 0 : 1;
        req.problem = args.problem;
        req.problem.workloadSeed = args.seed + i;
        req.search.objective = args.objective;
        req.search.sampleBudget = args.budget;
        req.search.seed = args.seed + i;
        req.search.warmStart = args.warm;
        req.deadlineSeconds = args.deadline;
        futures.push_back(service.submit(std::move(req)));
    }
    service.start();

    if (!args.quiet)
        std::printf("\n%-4s %-10s %4s %-6s %12s %9s %9s %9s\n", "id",
                    "tenant", "prio", "path", "fitness", "samples",
                    "wait-ms", "serve-ms");
    for (int i = 0; i < args.requests; ++i) {
        serve::MapResponse r = futures[i].get();
        if (args.quiet)
            continue;
        const char* path =
            r.shed ? "shed"
                   : (r.coalesced
                          ? "coal"
                          : (r.warmStart ? (r.exactHit ? "warm" : "warm~")
                                         : "cold"));
        std::printf("%-4d %-10s %4d %-6s %12.2f %9lld %9.1f %9.1f\n", i,
                    ("tenant-" + std::to_string(i % args.tenants)).c_str(),
                    (i % 5 == 0) ? 0 : 1, path, r.bestFitness,
                    static_cast<long long>(r.samplesUsed),
                    r.waitSeconds * 1e3, r.serviceSeconds * 1e3);
    }
    service.drain();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    serve::ServiceStats s = service.stats();
    serve::StoreStats st = service.store().stats();
    std::printf("\nserved %lld requests in %.2f s (%.1f req/s): %lld cold, "
                "%lld warm\n",
                static_cast<long long>(s.served), wall,
                s.served / std::max(wall, 1e-9),
                static_cast<long long>(s.coldServed),
                static_cast<long long>(s.warmServed));
    std::printf("samples spent %lld, saved by warm starts %lld (%.0f%% of "
                "a cold-only run)\n",
                static_cast<long long>(s.samplesSpent),
                static_cast<long long>(s.samplesSaved),
                100.0 * s.samplesSaved /
                    std::max<int64_t>(1, s.samplesSpent + s.samplesSaved));
    if (production_knobs)
        std::printf("production controls: %lld coalesced, %lld shed\n",
                    static_cast<long long>(s.coalesced),
                    static_cast<long long>(s.shed));
    std::printf("store: %lld entries, %lld exact + %lld coarse hits / %lld "
                "lookups, mean transfer quality %.2f\n",
                static_cast<long long>(service.store().size()),
                static_cast<long long>(st.exactHits),
                static_cast<long long>(st.coarseHits),
                static_cast<long long>(st.lookups),
                st.meanTransferQuality());

    service.stop();

    if (!args.metricsPath.empty() || !args.tracePath.empty()) {
        // One captureGlobal drains the tracer once; both artifacts
        // share the same snapshot.
        obs::MetricsSnapshot snap =
            obs::SnapshotWriter::captureGlobal("m3e_serve");
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
