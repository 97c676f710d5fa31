// search_s4: closed loop, one client, one lane: back-to-back fixed-seed
// MAGMA searches at the paper's 10K-sample budget on Mix/S4 group-100
// problems built in set-up. Optimizer breeding and the flat kernel do
// almost all the work, so gains there must move these numbers. The exec
// pool is exercised off the clock: a share of the operations is re-run at
// two lanes and must match bit for bit, and the traced run replays the
// searches' candidates through a two-lane EvalEngine.
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "api/runner.h"
#include "bench.h"
#include "exec/cost_cache.h"
#include "exec/eval_engine.h"
#include "replay.h"

namespace perfbench {

namespace {

// Odd, so the median and p90 of the per-operation times fall inside one
// problem's cluster of times rather than between two.
constexpr int kProblems = 5;
constexpr int64_t kBudget = 10000;   // Section VI-B sample budget
constexpr double kOpsPerSecond = 6.7; // about one search per 150 ms
constexpr int kReplayOps = 8;        // traced ops whose samples are replayed
constexpr int kParityStride = 8;     // ops re-run at kPoolLanes lanes
constexpr int kPoolLanes = 2;

struct OpResult {
    sched::Mapping best;
    double fitness = 0.0;
    double makespan = 0.0;
    double gflops = 0.0;
};

// The problems are fixed, so quality compares across seeds; the seed
// draws the optimizer seeds.
api::ProblemSpec
problemSpec(int k)
{
    api::ProblemSpec p;
    p.task = dnn::TaskType::Mix;
    p.setting = accel::Setting::S4;
    p.groupSize = 100;
    p.systemBwGbps = 16.0;
    p.workloadSeed = static_cast<uint64_t>(k) + 1;
    return p;
}

api::SearchSpec
searchSpec(uint64_t seed, int64_t op, int lanes)
{
    api::SearchSpec s;
    s.method = "MAGMA";
    s.sampleBudget = kBudget;
    s.seed = subSeed(seed, 1000 + static_cast<uint64_t>(op));
    s.threads = lanes;
    return s;
}

uint64_t
fnv(uint64_t h, const void* data, std::size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h;
}

}  // namespace

Outcome
runSearch(const Args& args)
{
    Outcome out;
    const int ops = std::max<int>(
        static_cast<int>(minSamplesFor(0.90)),
        static_cast<int>(args.seconds * kOpsPerSecond));
    std::vector<api::ProblemSpec> specs;
    for (int k = 0; k < kProblems; ++k)
        specs.push_back(problemSpec(k));

    // Set-up: the problems' Job Analysis Tables, from a cold cost cache
    // as a fresh process would build them. Later repetitions run between
    // operations, which do not use the cache.
    auto buildRunners = [&] {
        exec::CostCache::global().clear();
        std::vector<std::unique_ptr<api::Runner>> rs;
        for (const api::ProblemSpec& spec : specs) {
            rs.push_back(std::make_unique<api::Runner>());
            rs.back()->problem(spec, sched::Objective::Throughput);
        }
        return rs;
    };
    std::vector<double> setup_s;
    std::vector<std::unique_ptr<api::Runner>> runners =
        timeSetup(setup_s, buildRunners);

    auto runOp = [&](int64_t i, int op_lanes, opt::SearchResult* raw,
                     bool record) {
        api::SearchSpec ss = searchSpec(args.seed, i, op_lanes);
        ss.recordSamples = record;
        const int k = static_cast<int>(i % kProblems);
        api::RunReport rep = runners[k]->run(specs[k], ss, raw);
        return OpResult{rep.best, rep.bestFitness, rep.makespanSeconds,
                        rep.throughputGflops};
    };

    // Untraced pass: the whole sequence (half of it when tracing, where
    // it is the baseline of trace_overhead_frac).
    const int untraced_ops = args.trace ? ops / 2 : ops;
    const exec::CostCacheStats cache0 = exec::CostCache::global().stats();
    std::vector<double> op_ms;
    std::vector<OpResult> results;
    const int64_t loop0 = nowNs();
    for (int i = 0; i < untraced_ops; ++i) {
        if (setupRepDue(i, untraced_ops, setup_s.size()))
            timeSetup(setup_s, buildRunners);
        ++out.attempted;
        int64_t t0 = nowNs();
        try {
            results.push_back(runOp(i, 1, nullptr, false));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "op %d threw: %s\n", i, e.what());
            ++out.failed;
            results.emplace_back();
        }
        op_ms.push_back(nsToMs(nowNs() - t0));
    }
    // The loop's wall time, less the set-up repetitions run inside it.
    double loop_s = static_cast<double>(nowNs() - loop0) * 1e-9;
    for (std::size_t r = 1; r < setup_s.size(); ++r)
        loop_s -= setup_s[r];
    const exec::CostCacheStats cache1 = exec::CostCache::global().stats();

    // Correctness: every result re-scored through the reference
    // evaluator (no cost cache, object path) must match bit for bit.
    std::vector<std::unique_ptr<sched::MappingEvaluator>> refs;
    for (int k = 0; k < kProblems; ++k) {
        m3e::Problem& p = runners[k]->problem(specs[k],
                                              sched::Objective::Throughput);
        refs.push_back(std::make_unique<sched::MappingEvaluator>(
            p.group(), p.platform(), p.costModel(), specs[k].bwPolicy,
            nullptr, sched::Objective::Throughput));
    }
    std::vector<double> quality;
    uint64_t digest = 0xcbf29ce484222325ULL;
    for (int i = 0; i < untraced_ops; ++i) {
        const OpResult& r = results[static_cast<std::size_t>(i)];
        if (r.best.size() == 0)
            continue;  // already counted as failed
        const sched::MappingEvaluator& ref = *refs[i % kProblems];
        sched::ScheduleResult sim = ref.evaluate(r.best);
        bool ok = ref.fitness(r.best) == r.fitness &&
                  sim.makespanSeconds == r.makespan &&
                  ref.throughputGflops(sim.makespanSeconds) == r.gflops;
        if (!ok) {
            std::fprintf(stderr, "op %d: result differs from reference\n",
                         i);
            ++out.failed;
        }
        quality.push_back(r.gflops);
        std::string text = r.best.toText();
        digest = fnv(digest, text.data(), text.size());
        digest = fnv(digest, &r.fitness, sizeof r.fitness);
    }
    // Lane parity: results at several lanes must equal 1-lane results.
    for (int i = 0; i < untraced_ops; i += kParityStride) {
        OpResult pooled = runOp(i, kPoolLanes, nullptr, false);
        const OpResult& r = results[static_cast<std::size_t>(i)];
        if (!(pooled.best == r.best) || pooled.fitness != r.fitness) {
            std::fprintf(stderr, "op %d: %d lanes differ from 1 lane\n", i,
                         kPoolLanes);
            ++out.failed;
        }
    }
    char buf[128];
    std::snprintf(buf, sizeof buf, "result digest %016llx over %d ops",
                  static_cast<unsigned long long>(digest), untraced_ops);
    out.notes.push_back(buf);

    if (!args.trace) {
        putLatencyMetrics(out, op_ms, loop_s, setup_s);
        out.metrics["quality_gflops_gmean"] = gmean(quality);
        return out;
    }

    // Traced pass: the same operations, each a span around
    // api::Runner::run; the first few have their sampled candidates
    // replayed through the flat kernel and the exec pool.
    SpanLog& log = out.spans;
    LayerSums sums;
    std::vector<double> traced_ms;
    int64_t samples = 0;
    double search_s = 0.0;
    std::vector<double> self_frac, breed_us, batch_us, lane_eff;
    for (int i = 0; i < untraced_ops; ++i) {
        opt::SearchResult raw;
        int64_t t0 = nowNs();
        ++out.attempted;
        OpResult r = runOp(i, 1, &raw, true);
        int64_t t1 = nowNs();
        int span = log.add("api.Runner::run", t0, t1, -1, i);
        traced_ms.push_back(nsToMs(t1 - t0));
        samples += raw.samplesUsed;
        search_s += static_cast<double>(t1 - t0) * 1e-9;
        if (!(r.best == results[static_cast<std::size_t>(i)].best))
            ++out.failed;  // recording samples must not change the result
        if (i >= kReplayOps)
            continue;

        const int k = i % kProblems;
        const sched::MappingEvaluator& eval =
            runners[k]->problem(specs[k], sched::Objective::Throughput)
                .evaluator();
        const int64_t serial_ns = replayCandidates(log, span, i, eval,
                                                   raw.sampled, sums);
        // The search scores whole generations; replay the same
        // candidates through EvalEngine in population-sized batches.
        exec::EvalEngine engine(eval, kPoolLanes);
        const std::size_t batch = 100;  // MAGMA's default population
        int64_t batches_ns = 0;
        int64_t nbatches = 0;
        for (std::size_t b = 0; b < raw.sampled.size(); b += batch) {
            std::size_t n = std::min(batch, raw.sampled.size() - b);
            batches_ns += log.time(
                "exec.EvalEngine::evaluateBatch", -1, i, false, [&] {
                    keep(engine.evaluateBatch(raw.sampled.data() + b, n));
                });
            ++nbatches;
        }
        batch_us.push_back(static_cast<double>(batches_ns) * 1e-3 /
                           static_cast<double>(nbatches));
        lane_eff.push_back(static_cast<double>(serial_ns) /
                           (kPoolLanes * static_cast<double>(batches_ns)));
        const double self_ns = static_cast<double>(
            selfTimeNs(log.spans(), static_cast<std::size_t>(span)));
        self_frac.push_back(self_ns / static_cast<double>(t1 - t0));
        breed_us.push_back(self_ns * 1e-3 /
                           static_cast<double>(raw.samplesUsed));
    }

    // Problem-build layers, replayed from a cold cache as set-up runs
    // them.
    std::vector<double> build_ms;
    for (int k = 0; k < kProblems; ++k) {
        exec::CostCache::global().clear();
        log.time("api::buildProblem", -1, -1, false, [&] {
            keep(api::buildProblem(specs[k]));
        });
        build_ms.push_back(nsToMs(log.spans().back().durationNs()));
        m3e::Problem& p = runners[k]->problem(specs[k],
                                              sched::Objective::Throughput);
        exec::CostCache cold;
        replayProblemLayers(log, -1, -1, p.group(), p.platform(),
                            p.evaluator(), &cold, sums);
    }

    sums.put(out);
    out.metrics["api.build_problem_ms"] = mean(build_ms);
    out.metrics["exec.batch_us"] = mean(batch_us);
    out.metrics["exec.lane_efficiency"] = mean(lane_eff);
    const int64_t probes =
        (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    out.metrics["exec.cost_cache.hit_frac"] =
        probes ? static_cast<double>(cache1.hits - cache0.hits) / probes
               : 0.0;
    out.metrics["opt.samples_per_s"] = static_cast<double>(samples) / search_s;
    out.metrics["opt.breed_us_per_child"] = mean(breed_us);
    out.metrics["opt.self_frac"] = mean(self_frac);
    out.metrics["trace_overhead_frac"] =
        percentile(traced_ms, 0.5) / percentile(op_ms, 0.5) - 1.0;
    return out;
}

}  // namespace perfbench
