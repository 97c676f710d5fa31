/**
 * @file
 * Micro-benchmarks for the framework's hot paths, backing the paper's
 * search-time claim (Section VI-B: ~0.25 s per MAGMA epoch, 25 s for a
 * full 10K-sample search on a desktop CPU) and the flat-evaluator
 * speedup claim:
 *   - one cost-model query (cold and through the exec::CostCache),
 *   - Job Analysis Table construction (group 100 on S4), and two
 *     builds of the flexible-array problem from a cleared global cost
 *     cache (one cold, one served by the cache),
 *   - candidate-evaluation throughput: a serial MappingEvaluator::fitness
 *     loop (the reference) against the flat kernel through
 *     exec::EvalEngine at threads = 1/2/4, so the exec-engine and
 *     FlatEvaluator speedups are measured rather than asserted,
 *   - a flat-vs-reference bitwise parity self-check over randomized
 *     candidates and all five objectives — the bench exits non-zero on
 *     any mismatch, which is what the CI perf-smoke step gates on;
 *   - common::Rng: a bitwise check of its stream against
 *     std::mt19937_64 and the std distributions (also fatal on any
 *     mismatch) and the Bernoulli-draw rate MAGMA's mutation runs on,
 *     next to the same draw through the std engine and distribution;
 *   - MAGMA's per-child mutation: a bitwise check of the skip-sampled
 *     MagmaGa::mutate, whose gaps come from a table of word cuts, against
 *     the same gaps found by comparing uniform() with (1 - rate)^k (fatal
 *     on any mismatch), and its children/s on a group-100 mapping;
 *   - dyn::WorkloadTrace::fromText on a seeded 19,500-event churn trace
 *     (events/s), after a round-trip check of the same trace (fatal on
 *     any difference).
 *
 * Self-timed (no google-benchmark dependency), so it always builds and
 * can run as a CI gate. Flags, on top of the shared bench_common.h set
 * (--full, --seed, --out-dir, --json FILE):
 *   --check-speedup X   exit non-zero unless flat >= X * reference
 *                       single-thread throughput (CI floor: 1.5)
 *
 * --json emits the shared telemetry schema
 *   { "schema": 1, "bench": "micro_speed", "config": {...},
 *     "metrics": {...},
 *     "samples": [ {name, mode, threads, evals_per_sec}, ... ] }
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "api/runner.h"
#include "bench/bench_common.h"
#include "dyn/trace.h"
#include "exec/cost_cache.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "obs/snapshot.h"
#include "opt/magma_ga.h"
#include "sched/flat_eval.h"
#include "sched/job_analyzer.h"

using namespace magma;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Run `fn` repeatedly for ~`budget_s` and return calls/second. */
template <typename Fn>
double
rate(Fn&& fn, double budget_s, int calls_per_rep = 1)
{
    fn();  // warm-up
    int64_t reps = 0;
    double t0 = nowSeconds(), t1;
    do {
        fn();
        ++reps;
        t1 = nowSeconds();
    } while (t1 - t0 < budget_s);
    return static_cast<double>(reps) * calls_per_rep / (t1 - t0);
}

struct Workload {
    dnn::TaskType task = dnn::TaskType::Mix;
    accel::Setting setting = accel::Setting::S4;
    double bwGbps = 64.0;
    int group = 100;
};

/**
 * Bitwise parity self-check: flat vs reference fitness, makespan and
 * energy on `n` random candidates per objective, plus one 4-thread
 * EvalEngine batch per objective against the serial reference loop.
 * Returns the number of mismatching candidates (0 = pass).
 */
int64_t
parityCheck(const Workload& w, uint64_t seed, int n, int64_t* checked)
{
    int64_t bad = 0;
    *checked = 0;
    for (sched::Objective obj :
         {sched::Objective::Throughput, sched::Objective::Latency,
          sched::Objective::Energy, sched::Objective::EnergyDelay,
          sched::Objective::PerfPerWatt}) {
        auto p = m3e::makeProblem(w.task, w.setting, w.bwGbps, w.group,
                                  seed, obj);
        const sched::MappingEvaluator& ev = p->evaluator();
        sched::FlatEvaluator flat(ev);
        sched::EvalScratch scratch;
        common::Rng rng(seed * 977 + static_cast<int>(obj));
        std::vector<sched::Mapping> batch;
        batch.reserve(n);
        for (int i = 0; i < n; ++i)
            batch.push_back(
                sched::Mapping::random(w.group, ev.numAccels(), rng));

        for (const sched::Mapping& m : batch) {
            ++*checked;
            const double makespan = ev.evaluate(m).makespanSeconds;
            const bool fitness_equal =
                flat.fitness(m, scratch) == ev.fitness(m) &&
                scratch.makespanSeconds() == makespan;
            sched::SimPoint sp = flat.simPoint(m, scratch);
            if (!fitness_equal || sp.makespanSeconds != makespan ||
                sp.joules != ev.totalJoules(m))
                ++bad;
        }

        // Batch path: 4 flat lanes vs the serial reference loop.
        exec::EvalEngine engine(ev, 4);
        std::vector<double> fits = engine.evaluateBatch(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
            ++*checked;
            if (fits[i] != ev.fitness(batch[i]))
                ++bad;
        }
    }
    return bad;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Stream-contract self-check: `n` draws from common::Rng against
 * std::mt19937_64 driving the std distributions Rng documents itself as
 * equal to, cycling through the draw shapes. Returns the number of
 * mismatching draws (0 = pass).
 */
int64_t
rngParityCheck(uint64_t seed, int64_t n)
{
    common::Rng rng(seed);
    std::mt19937_64 ref(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::normal_distribution<double> normal(0.0, 1.0);
    int64_t bad = 0;
    for (int64_t i = 0; i < n; ++i) {
        bool same = true;
        switch (i % 5) {
        case 0:
            same = rng.engine()() == ref();
            break;
        case 1:
            same = sameBits(rng.uniform(), unit(ref));
            break;
        case 2:
            same = rng.bernoulli(0.05) == (unit(ref) < 0.05);
            break;
        case 3: {
            int k = 1 + static_cast<int>(i % 100);
            same = rng.uniformInt(k) ==
                   std::uniform_int_distribution<int64_t>(0, k - 1)(ref);
            break;
        }
        default:
            same = sameBits(rng.gauss(), normal(ref));
            break;
        }
        bad += !same;
    }
    return bad;
}

/**
 * Mutation self-check: `n` children mutated by MagmaGa::mutate at the
 * gap table of `rate`, against the same gaps written as uniform()
 * compares with (1 - rate)^k on an identically seeded Rng. Returns the
 * number of mismatching children (0 = pass); a final engine word that
 * differs (a different number of draws) counts as one more.
 */
int64_t
mutateParityCheck(uint64_t seed, double rate, int group, int accels,
                  int64_t n)
{
    common::Rng init(seed);
    const sched::Mapping parent = sched::Mapping::random(group, accels, init);
    const int trials = 2 * group;
    const common::GeometricSkip skip(rate, trials);
    common::Rng by_table(seed + 1), by_compare(seed + 1);
    sched::Mapping got, want;
    int64_t bad = 0;
    for (int64_t c = 0; c < n; ++c) {
        got = parent;
        want = parent;
        opt::MagmaGa::mutate(got, skip, accels, by_table);
        for (int t = 0;; ++t) {
            const double u = by_compare.uniform();
            double all_fail = 1.0 - rate;
            for (int k = 0; k < trials && u < all_fail; ++k) {
                ++t;
                all_fail *= 1.0 - rate;
            }
            if (t >= trials)
                break;
            if (t & 1)
                want.priority[t >> 1] = by_compare.uniform();
            else
                want.accelSel[t >> 1] = by_compare.uniformInt(accels);
        }
        bad += !(got == want);
    }
    bad += by_table.engine()() != by_compare.engine()();
    return bad;
}

/**
 * A seeded event stream in the shape of the dyn_churn workload: epochs
 * that open with an arrival, churn through arrivals (up to 5 bundles),
 * swaps and departures of Mix bundles of 4-10 jobs drawn from 16
 * recurring seeds, then drain the platform; one event every 0.25 s.
 */
dyn::WorkloadTrace
churnTrace(uint64_t seed, int count)
{
    dyn::WorkloadTrace tr;
    tr.base.task = dnn::TaskType::Mix;
    tr.base.setting = accel::Setting::S2;
    tr.base.systemBwGbps = 16.0;
    common::Rng rng(seed);
    int next_name = 0;
    std::vector<std::string> active;
    auto add = [&](dyn::EventKind kind, const std::string& name) {
        dyn::WorkloadEvent ev;
        ev.timeSeconds = 0.25 * static_cast<double>(tr.events.size() + 1);
        ev.kind = kind;
        ev.bundle = name;
        if (kind != dyn::EventKind::Depart) {
            ev.jobs = rng.uniformInt(4, 10);
            ev.seed = static_cast<uint64_t>(rng.uniformInt(1, 16));
        }
        tr.events.push_back(ev);
    };
    auto arrive = [&] {
        active.push_back("b" + std::to_string(next_name++));
        add(dyn::EventKind::Arrive, active.back());
    };
    while (static_cast<int>(tr.events.size()) < count) {
        arrive();
        for (int churn = rng.uniformInt(16, 31); churn > 0; --churn) {
            const int n = static_cast<int>(active.size());
            const double u = rng.uniform();
            if (n < 2 || (n < 5 && u < 0.35)) {
                arrive();
            } else if (u < 0.7) {
                add(dyn::EventKind::Swap, active[rng.uniformInt(n)]);
            } else {
                const int k = rng.uniformInt(n);
                add(dyn::EventKind::Depart, active[k]);
                active.erase(active.begin() + k);
            }
        }
        while (!active.empty()) {
            add(dyn::EventKind::Depart, active.back());
            active.pop_back();
        }
    }
    tr.events.resize(static_cast<size_t>(count));
    return tr;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    double check_speedup = 0.0;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--check-speedup") == 0 && i + 1 < argc)
            check_speedup = std::strtod(argv[++i], nullptr);

    Workload w;
    const double budget_s = args.full ? 1.0 : 0.35;
    const int parity_n = args.full ? 400 : 120;
    const int batch_size = 256;
    const std::vector<int> thread_counts = {1, 2, 4};

    bench::printHeader(
        "micro_speed: hot-path timings + flat-evaluator speedup (" +
        dnn::taskTypeName(w.task) + " on " + accel::settingName(w.setting) +
        ", group " + std::to_string(w.group) + ")");

    // ---------------------------------------------------------- parity ---
    int64_t checked = 0;
    int64_t bad = parityCheck(w, args.seed, parity_n, &checked);
    std::printf("parity self-check: %lld candidates x 5 objectives -> %s\n",
                static_cast<long long>(checked),
                bad == 0 ? "OK (bitwise identical)" : "FAILED");
    if (bad != 0)
        std::fprintf(stderr, "flat/reference parity FAILED on %lld of %lld "
                             "checks\n",
                     static_cast<long long>(bad),
                     static_cast<long long>(checked));

    // ------------------------------------------------ micro hot paths ---
    cost::CostModel model;
    cost::SubAccelConfig cfg =
        accel::makeSubAccel(cost::DataflowStyle::HB, 128, 580);
    dnn::LayerShape layer = dnn::conv(256, 128, 28, 28, 3, 3);
    volatile double sink = 0.0;

    double q_per_s = rate(
        [&] { sink = model.analyze(layer, 4, cfg).noStallCycles; },
        budget_s);

    exec::CostCache cache;
    cache.analyze(model, layer, 4, cfg);
    double hit_per_s = rate(
        [&] { sink = cache.analyze(model, layer, 4, cfg).noStallCycles; },
        budget_s);

    dnn::WorkloadGenerator gen(args.seed);
    dnn::JobGroup group = gen.makeGroup(w.task, w.group);
    accel::Platform platform = accel::makeSetting(w.setting, w.bwGbps);
    sched::JobAnalyzer analyzer(model);
    double table_per_s =
        rate([&] { sink = analyzer.analyze(group, platform).numJobs(); },
             budget_s);
    // Two builds of one flexible-array problem from a cleared global
    // cache: the first runs every shape search, the second reads the
    // cache. Per build, so the rate falls if the cache stops serving
    // flexible problems.
    api::ProblemSpec flex;
    flex.task = w.task;
    flex.setting = w.setting;
    flex.flexible = true;
    flex.systemBwGbps = w.bwGbps;
    flex.groupSize = w.group;
    flex.workloadSeed = args.seed;
    double flex_table_per_s = rate(
        [&] {
            exec::CostCache::global().clear();
            for (int k = 0; k < 2; ++k)
                sink = api::buildProblem(flex)
                           ->evaluator()
                           .table()
                           .numJobs();
        },
        budget_s, 2);

    // magma-lint: allow(double-format): console display, never reparsed.
    std::printf("\ncost-model query     %10.0f /s  (%.2f us)\n", q_per_s,
                1e6 / q_per_s);
    // magma-lint: allow(double-format): console display, never reparsed.
    std::printf("cost-cache hit       %10.0f /s  (%.3f us)\n", hit_per_s,
                1e6 / hit_per_s);
    // magma-lint: allow(double-format): console display, never reparsed.
    std::printf("job-table build      %10.2f /s  (%.1f us)\n", table_per_s,
                1e6 / table_per_s);
    // magma-lint: allow(double-format): console display, never reparsed.
    std::printf("flexible build       %10.2f /s  (%.1f us, cold + cached)\n",
                flex_table_per_s, 1e6 / flex_table_per_s);

    // ------------------------------------------------------------- rng ---
    const int64_t rng_parity_n = 1000000;
    int64_t rng_bad = rngParityCheck(args.seed, rng_parity_n);
    if (rng_bad != 0)
        std::fprintf(stderr, "Rng/std stream parity FAILED on %lld of %lld "
                             "draws\n",
                     static_cast<long long>(rng_bad),
                     static_cast<long long>(rng_parity_n));
    // MAGMA's per-gene mutation test: bernoulli(0.05), 1000 per call.
    const int draws = 1000;
    common::Rng bern_rng(args.seed);
    int64_t hits = 0;
    double bern_per_s = rate(
        [&] {
            for (int i = 0; i < draws; ++i)
                hits += bern_rng.bernoulli(0.05);
        },
        budget_s, draws);
    std::mt19937_64 std_engine(args.seed);
    std::uniform_real_distribution<double> std_unit(0.0, 1.0);
    double std_bern_per_s = rate(
        [&] {
            for (int i = 0; i < draws; ++i)
                hits += std_unit(std_engine) < 0.05;
        },
        budget_s, draws);
    sink = static_cast<double>(hits);
    std::printf("rng stream parity    %lld draws -> %s\n",
                static_cast<long long>(rng_parity_n),
                rng_bad == 0 ? "OK (bitwise identical)" : "FAILED");
    // magma-lint: allow(double-format): console display, never reparsed.
    std::printf("Rng::bernoulli       %10.0f /s  (%.2f ns)\n", bern_per_s,
                1e9 / bern_per_s);
    // magma-lint: allow(double-format): console display, never reparsed.
    std::printf("std engine+dist      %10.0f /s  (%.2f ns)\n",
                std_bern_per_s, 1e9 / std_bern_per_s);

    // MAGMA's mutation at its default rate, as its run loop calls it.
    const int accels = platform.numSubAccels();
    const int64_t mutate_parity_n = 20000;
    int64_t mutate_bad = mutateParityCheck(args.seed, 0.05, w.group, accels,
                                           mutate_parity_n);
    if (mutate_bad != 0)
        std::fprintf(stderr, "table/compare mutate parity FAILED on %lld of "
                             "%lld children\n",
                     static_cast<long long>(mutate_bad),
                     static_cast<long long>(mutate_parity_n));
    common::Rng mutate_rng(args.seed);
    sched::Mapping child =
        sched::Mapping::random(w.group, accels, mutate_rng);
    const common::GeometricSkip mutation(0.05, 2 * w.group);
    const int children = 100;
    double mutate_per_s = rate(
        [&] {
            for (int c = 0; c < children; ++c)
                opt::MagmaGa::mutate(child, mutation, accels, mutate_rng);
        },
        budget_s, children);
    sink = child.priority[0];
    std::printf("mutate parity        %lld children -> %s\n",
                static_cast<long long>(mutate_parity_n),
                mutate_bad == 0 ? "OK (bitwise identical)" : "FAILED");
    // magma-lint: allow(double-format): console display, never reparsed.
    std::printf("MagmaGa::mutate      %10.0f /s  (%.2f us per child)\n",
                mutate_per_s, 1e6 / mutate_per_s);

    // ------------------------------------------------- trace parsing ---
    const int trace_events = 19500;
    const dyn::WorkloadTrace churn = churnTrace(args.seed, trace_events);
    const std::string churn_text = churn.toText();
    const bool trace_roundtrip_ok =
        dyn::WorkloadTrace::fromText(churn_text) == churn;
    if (!trace_roundtrip_ok)
        std::fprintf(stderr, "WorkloadTrace round-trip FAILED\n");
    double trace_per_s = rate(
        [&] {
            sink = static_cast<double>(
                dyn::WorkloadTrace::fromText(churn_text).events.size());
        },
        budget_s, trace_events);
    std::printf("trace round-trip     %d events (%zu bytes) -> %s\n",
                trace_events, churn_text.size(),
                trace_roundtrip_ok ? "OK (equal)" : "FAILED");
    // magma-lint: allow(double-format): console display, never reparsed.
    std::printf("WorkloadTrace parse  %10.0f events/s  (%.2f ms per "
                "trace)\n",
                trace_per_s, 1e3 * trace_events / trace_per_s);
    (void)sink;

    // ------------------------------- candidate-evaluation throughput ---
    auto problem = m3e::makeProblem(w.task, w.setting, w.bwGbps, w.group,
                                    args.seed);
    const sched::MappingEvaluator& ev = problem->evaluator();
    common::Rng rng(17);
    std::vector<sched::Mapping> batch;
    batch.reserve(batch_size);
    for (int i = 0; i < batch_size; ++i)
        batch.push_back(
            sched::Mapping::random(w.group, ev.numAccels(), rng));

    obs::JsonWriter json;
    obs::SnapshotWriter::beginBenchConfig(json, "micro_speed", args.full,
                                          args.seed,
                                          dnn::taskTypeName(w.task),
                                          accel::settingName(w.setting),
                                          w.bwGbps, w.group);
    json.field("batch_size", batch_size);
    json.field("parity_candidates", static_cast<int64_t>(parity_n));
    json.endObject();

    std::printf("\n%-10s %8s %16s %10s\n", "kernel", "threads",
                "candidates/s", "speedup");
    struct Sample {
        std::string mode;
        int threads;
        double evals_per_sec;
    };
    std::vector<Sample> samples;
    double flat_t1 = 0.0;
    const double ref_t1 = rate(
        [&] {
            for (const sched::Mapping& m : batch)
                sink = ev.fitness(m);
        },
        budget_s, batch_size);
    samples.push_back({"reference", 1, ref_t1});
    // magma-lint: allow(double-format): console display, never reparsed.
    std::printf("%-10s %8d %16.0f %9.2fx\n", "reference", 1, ref_t1, 1.0);
    for (int threads : thread_counts) {
        exec::EvalEngine engine(ev, threads);
        double eps = rate([&] { sink = engine.evaluateBatch(batch)[0]; },
                          budget_s, batch_size);
        samples.push_back({"flat", threads, eps});
        if (threads == 1)
            flat_t1 = eps;
        // magma-lint: allow(double-format): console display, never reparsed.
        std::printf("%-10s %8d %16.0f %9.2fx\n", "flat", threads, eps,
                    eps / ref_t1);
    }
    double speedup_t1 = ref_t1 > 0.0 ? flat_t1 / ref_t1 : 0.0;
    // magma-lint: allow(double-format): console display, never reparsed.
    std::printf("\nflat vs reference, single thread: %.2fx\n", speedup_t1);

    json.beginObject("metrics");
    json.field("parity_ok", bad == 0);
    json.field("parity_checked", checked);
    json.field("cost_model_query_per_sec", q_per_s);
    json.field("cost_cache_hit_per_sec", hit_per_s);
    json.field("job_table_build_per_sec", table_per_s);
    json.field("flex_job_table_build_per_sec", flex_table_per_s);
    json.field("rng_parity_ok", rng_bad == 0);
    json.field("rng_parity_checked", rng_parity_n);
    json.field("rng_bernoulli_per_sec", bern_per_s);
    json.field("std_bernoulli_per_sec", std_bern_per_s);
    json.field("mutate_parity_ok", mutate_bad == 0);
    json.field("mutate_children_per_sec", mutate_per_s);
    json.field("trace_roundtrip_ok", trace_roundtrip_ok);
    json.field("trace_parse_events_per_sec", trace_per_s);
    json.field("ref_evals_per_sec_t1", ref_t1);
    json.field("flat_evals_per_sec_t1", flat_t1);
    json.field("speedup_t1", speedup_t1);
    json.endObject();
    json.beginArray("samples");
    for (const Sample& s : samples) {
        json.beginObject();
        json.field("name", "batch_eval");
        json.field("mode", s.mode);
        json.field("threads", s.threads);
        json.field("evals_per_sec", s.evals_per_sec);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    std::string json_path = args.jsonOutPath();
    if (!json_path.empty()) {
        if (!json.writeFile(json_path))
            return 1;
        std::printf("JSON telemetry written to %s\n", json_path.c_str());
    }

    if (bad != 0 || rng_bad != 0 || mutate_bad != 0 || !trace_roundtrip_ok)
        return 1;
    if (check_speedup > 0.0 && speedup_t1 < check_speedup) {
        // magma-lint: allow(double-format): console display, never reparsed.
        std::fprintf(stderr,
                     "perf floor violated: flat/reference = %.2fx < "
                     "required %.2fx\n",
                     speedup_t1, check_speedup);
        return 1;
    }
    return 0;
}
