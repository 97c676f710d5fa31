/**
 * @file Tests for the parallel search-execution engine (src/exec/):
 * ThreadPool, EvalEngine batch evaluation, CostCache memoization, and the
 * serial-vs-batch parity of every converted optimizer.
 */

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "exec/cost_cache.h"
#include "exec/eval_engine.h"
#include "exec/thread_pool.h"
#include "m3e/problem.h"
#include "obs/metrics.h"
#include "opt/cma_es.h"
#include "opt/de.h"
#include "opt/magma_ga.h"
#include "opt/pso.h"
#include "opt/random_search.h"
#include "opt/std_ga.h"
#include "opt/tbpsa.h"

using namespace magma;
using opt::SearchOptions;
using opt::SearchResult;
using sched::Mapping;

namespace {

std::unique_ptr<m3e::Problem>
smallProblem(uint64_t seed = 11)
{
    return m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0, 16,
                            seed);
}

std::vector<Mapping>
randomBatch(const sched::MappingEvaluator& eval, int n, uint64_t seed)
{
    common::Rng rng(seed);
    std::vector<Mapping> batch;
    batch.reserve(n);
    for (int i = 0; i < n; ++i)
        batch.push_back(Mapping::random(eval.groupSize(), eval.numAccels(),
                                        rng));
    return batch;
}

}  // namespace

// --------------------------------------------------------- ThreadPool ---

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    exec::ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);
    constexpr int kN = 1000;
    std::vector<std::atomic<int>> counts(kN);
    pool.parallelFor(kN, [&](int64_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (int i = 0; i < kN; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    exec::ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 1);
    std::vector<int> order;
    pool.parallelFor(5, [&](int64_t i) { order.push_back(int(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    exec::ThreadPool pool(3);
    for (int round = 0; round < 10; ++round) {
        std::atomic<int64_t> sum{0};
        pool.parallelFor(100, [&](int64_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 99 * 100 / 2);
    }
}

TEST(ThreadPool, PropagatesException)
{
    exec::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](int64_t i) {
                                      if (i == 17)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must survive the failed batch.
    std::atomic<int> n{0};
    pool.parallelFor(8, [&](int64_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 8);
}

// Reads MAGMA_THREADS through defaultThreads() only; no pool is ever
// built from these values.
TEST(ThreadPool, DefaultThreadsTakesOnlyWholePositiveDecimals)
{
    // NOLINTBEGIN(concurrency-mt-unsafe): no pool thread runs here.
    const char* saved = std::getenv("MAGMA_THREADS");
    const std::string restore = saved ? saved : "";
    unsetenv("MAGMA_THREADS");
    const int fallback = exec::ThreadPool::defaultThreads();
    EXPECT_GE(fallback, 1);

    // A count the fallback cannot equal, so a misread prefix shows.
    const std::string n = std::to_string(fallback + 1);
    setenv("MAGMA_THREADS", n.c_str(), 1);
    EXPECT_EQ(exec::ThreadPool::defaultThreads(), fallback + 1);
    for (const std::string& bad :
         {n + "abc", "+" + n, " " + n, n + " ", n + ".0", "-" + n,
          std::string("0"), std::string(""), std::string("0x3"),
          std::string("99999999999999999999")}) {
        setenv("MAGMA_THREADS", bad.c_str(), 1);
        EXPECT_EQ(exec::ThreadPool::defaultThreads(), fallback)
            << "'" << bad << "'";
    }
    if (saved)
        setenv("MAGMA_THREADS", restore.c_str(), 1);
    else
        unsetenv("MAGMA_THREADS");
    // NOLINTEND(concurrency-mt-unsafe)
}

TEST(ThreadPool, EmptyBatchIsNoop)
{
    exec::ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](int64_t) { ran = true; });
    EXPECT_FALSE(ran);
}

// --------------------------------------------------------- EvalEngine ---

TEST(EvalEngine, BatchMatchesSerialBitwise)
{
    auto p = smallProblem();
    std::vector<Mapping> batch = randomBatch(p->evaluator(), 64, 5);

    std::vector<double> serial;
    serial.reserve(batch.size());
    for (const Mapping& m : batch)
        serial.push_back(p->evaluator().fitness(m));

    exec::EvalEngine engine(p->evaluator(), 4);
    std::vector<double> parallel = engine.evaluateBatch(batch);

    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i]) << "candidate " << i;
}

TEST(EvalEngine, CountsOneSamplePerCandidate)
{
    auto p = smallProblem();
    std::vector<Mapping> batch = randomBatch(p->evaluator(), 50, 7);
    exec::EvalEngine engine(p->evaluator(), 4);
    const obs::MetricsLevel saved = obs::metricsLevel();
    obs::setMetricsLevel(obs::MetricsLevel::Counters);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    auto scored = [&] {
        return reg.counter("exec.eval.candidates").value() +
               reg.counter("exec.eval.singles").value();
    };
    const int64_t before = scored();
    engine.evaluateBatch(batch);
    EXPECT_EQ(scored() - before, 50);
    obs::setMetricsLevel(saved);
}

// ------------------------------------------------------ SearchRecorder ---

TEST(SearchRecorderBatch, TruncatesToRemainingBudget)
{
    auto p = smallProblem();
    SearchOptions opts;
    opts.sampleBudget = 10;
    exec::EvalEngine engine(p->evaluator(), 1);
    opt::SearchRecorder rec(engine, opts);
    std::vector<Mapping> batch = randomBatch(p->evaluator(), 25, 3);

    std::vector<double> fits = rec.evaluateBatch(batch);
    EXPECT_EQ(fits.size(), 10u);
    EXPECT_TRUE(rec.exhausted());
    EXPECT_EQ(rec.used(), 10);
    EXPECT_TRUE(rec.evaluateBatch(batch).empty());
    EXPECT_EQ(rec.finish().samplesUsed, 10);
}

TEST(SearchRecorderBatch, BitwiseIdenticalToSerialLoop)
{
    auto p = smallProblem();
    std::vector<Mapping> batch = randomBatch(p->evaluator(), 40, 9);

    SearchOptions serial_opts;
    serial_opts.sampleBudget = 40;
    serial_opts.recordConvergence = true;
    exec::EvalEngine serial_engine(p->evaluator(), 1);
    opt::SearchRecorder serial(serial_engine, serial_opts);
    std::vector<double> serial_fits;
    for (const Mapping& m : batch)
        serial_fits.push_back(serial.evaluate(m));
    SearchResult sr = serial.finish();

    exec::EvalEngine batch_engine(p->evaluator(), 4);
    opt::SearchRecorder batched(batch_engine, serial_opts);
    std::vector<double> batch_fits = batched.evaluateBatch(batch);
    SearchResult br = batched.finish();

    ASSERT_EQ(batch_fits.size(), serial_fits.size());
    for (size_t i = 0; i < serial_fits.size(); ++i)
        EXPECT_EQ(batch_fits[i], serial_fits[i]);
    EXPECT_EQ(br.bestFitness, sr.bestFitness);
    EXPECT_EQ(br.best, sr.best);
    EXPECT_EQ(br.samplesUsed, sr.samplesUsed);
    ASSERT_EQ(br.convergence.size(), sr.convergence.size());
    for (size_t i = 0; i < sr.convergence.size(); ++i)
        EXPECT_EQ(br.convergence[i], sr.convergence[i]);
}

/** A recorder scores on its caller's engine: it compiles no flat kernel
 * of its own. */
TEST(SearchRecorderBatch, ExternalEngineIsUsed)
{
    const obs::MetricsLevel saved = obs::metricsLevel();
    obs::setMetricsLevel(obs::MetricsLevel::Counters);
    obs::Counter& compiles =
        obs::MetricsRegistry::global().counter("sched.flat.compiles");
    auto p = smallProblem();
    exec::EvalEngine engine(p->evaluator(), 2);
    SearchOptions opts;
    opts.sampleBudget = 20;
    const int64_t before = compiles.value();
    opt::SearchRecorder rec(engine, opts);
    std::vector<double> fits =
        rec.evaluateBatch(randomBatch(p->evaluator(), 20, 1));
    EXPECT_EQ(fits.size(), 20u);
    EXPECT_EQ(compiles.value(), before);
    obs::setMetricsLevel(saved);
}

// -------------------------------------------- optimizer serial parity ---

namespace {

/**
 * Run one optimizer twice with the same RNG seed — once serial, once on
 * 4 evaluation lanes — and require identical bestFitness, samplesUsed and
 * convergence curve (acceptance criterion of the exec subsystem).
 */
void
expectSerialBatchParity(const std::string& method)
{
    auto p = smallProblem();
    SearchOptions opts;
    opts.sampleBudget = 400;
    opts.recordConvergence = true;

    const api::OptimizerRegistry& reg = api::OptimizerRegistry::global();
    auto serial_opt = reg.make(method, /*seed=*/42);
    SearchResult serial =
        serial_opt->search(exec::EvalEngine(p->evaluator(), 1), opts);

    auto batch_opt = reg.make(method, /*seed=*/42);
    SearchResult batched =
        batch_opt->search(exec::EvalEngine(p->evaluator(), 4), opts);

    EXPECT_EQ(batched.bestFitness, serial.bestFitness) << method;
    EXPECT_EQ(batched.best, serial.best) << method;
    EXPECT_EQ(batched.samplesUsed, serial.samplesUsed) << method;
    ASSERT_EQ(batched.convergence.size(), serial.convergence.size())
        << method;
    for (size_t i = 0; i < serial.convergence.size(); ++i)
        ASSERT_EQ(batched.convergence[i], serial.convergence[i])
            << method << " sample " << i;
}

}  // namespace

TEST(OptimizerBatchParity, Magma) { expectSerialBatchParity("MAGMA"); }
TEST(OptimizerBatchParity, StdGa) { expectSerialBatchParity("stdGA"); }
TEST(OptimizerBatchParity, Pso) { expectSerialBatchParity("PSO"); }
TEST(OptimizerBatchParity, De) { expectSerialBatchParity("DE"); }
TEST(OptimizerBatchParity, Cma) { expectSerialBatchParity("CMA"); }
TEST(OptimizerBatchParity, Tbpsa) { expectSerialBatchParity("TBPSA"); }
TEST(OptimizerBatchParity, Random) { expectSerialBatchParity("Random"); }
TEST(OptimizerBatchParity, Nsga2) { expectSerialBatchParity("NSGA-II"); }

// ---------------------------------------------------------- CostCache ---

TEST(CostCache, HitReturnsColdMissValue)
{
    exec::CostCache cache;
    cost::CostModel model;
    cost::SubAccelConfig cfg;
    dnn::LayerShape layer = dnn::conv(64, 32, 14, 14, 3, 3);

    cost::CostResult direct = model.analyze(layer, 4, cfg);
    cost::CostResult miss = cache.analyze(model, layer, 4, cfg);
    cost::CostResult hit = cache.analyze(model, layer, 4, cfg);

    EXPECT_EQ(miss.noStallCycles, direct.noStallCycles);
    EXPECT_EQ(miss.reqBwGbps, direct.reqBwGbps);
    EXPECT_EQ(miss.energyPj, direct.energyPj);
    EXPECT_EQ(miss.dramBytes, direct.dramBytes);
    EXPECT_EQ(miss.macs, direct.macs);

    EXPECT_EQ(hit.noStallCycles, miss.noStallCycles);
    EXPECT_EQ(hit.reqBwGbps, miss.reqBwGbps);
    EXPECT_EQ(hit.energyPj, miss.energyPj);

    exec::CostCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.entries, 1);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

TEST(CostCache, DiscriminatesConfigAndModelParams)
{
    exec::CostCache cache;
    cost::CostModel model;
    dnn::LayerShape layer = dnn::conv(64, 32, 14, 14, 3, 3);

    cost::SubAccelConfig hb;
    cost::SubAccelConfig lb;
    lb.dataflow = cost::DataflowStyle::LB;
    cache.analyze(model, layer, 4, hb);
    cache.analyze(model, layer, 4, lb);    // different dataflow
    cache.analyze(model, layer, 8, hb);    // different batch
    cost::SubAccelConfig tall = hb;
    tall.rows = 128;
    cache.analyze(model, layer, 4, tall);  // different shape
    cost::EnergyParams pricey;
    pricey.dramPjPerByte = 400.0;
    cost::CostModel model2(pricey);
    cache.analyze(model2, layer, 4, hb);   // different energy params

    exec::CostCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 0);
    EXPECT_EQ(s.misses, 5);
    EXPECT_EQ(s.entries, 5);

    // Every key field alone, each from the same base query.
    struct Query {
        dnn::LayerShape layer;
        int batch;
        cost::SubAccelConfig cfg;
        cost::EnergyParams energy;
        int bw_bucket;
    };
    const Query base{layer, 4, hb, {}, 0};
    std::vector<std::pair<const char*, void (*)(Query&)>> edits = {
        {"type",
         [](Query& q) { q.layer.type = dnn::LayerType::PointwiseConv2d; }},
        {"k", [](Query& q) { q.layer.k += 1; }},
        {"c", [](Query& q) { q.layer.c += 1; }},
        {"y", [](Query& q) { q.layer.y += 1; }},
        {"x", [](Query& q) { q.layer.x += 1; }},
        {"r", [](Query& q) { q.layer.r += 1; }},
        {"s", [](Query& q) { q.layer.s += 1; }},
        {"stride", [](Query& q) { q.layer.stride += 1; }},
        {"batch", [](Query& q) { q.batch = 2; }},
        {"dataflow",
         [](Query& q) { q.cfg.dataflow = cost::DataflowStyle::LB; }},
        {"rows", [](Query& q) { q.cfg.rows = 32; }},
        {"cols", [](Query& q) { q.cfg.cols = 32; }},
        {"slBytes", [](Query& q) { q.cfg.slBytes *= 2.0; }},
        {"sgBytes", [](Query& q) { q.cfg.sgBytes *= 2.0; }},
        {"freqGhz", [](Query& q) { q.cfg.freqGhz *= 2.0; }},
        {"bytesPerElem", [](Query& q) { q.cfg.bytesPerElem *= 2.0; }},
        {"nocElemsPerCycle", [](Query& q) { q.cfg.nocElemsPerCycle *= 2.0; }},
        {"nocLatency", [](Query& q) { q.cfg.nocLatency *= 2.0; }},
        {"flexibleShape", [](Query& q) { q.cfg.flexibleShape = true; }},
        {"macPj", [](Query& q) { q.energy.macPj *= 2.0; }},
        {"slPj", [](Query& q) { q.energy.slPj *= 2.0; }},
        {"sgPj", [](Query& q) { q.energy.sgPj *= 2.0; }},
        {"dramPjPerByte", [](Query& q) { q.energy.dramPjPerByte *= 2.0; }},
        {"bw_bucket", [](Query& q) { q.bw_bucket = 1; }},
        // +0.0 and -0.0 compare equal but are distinct keys.
        {"+0.0", [](Query& q) { q.cfg.nocLatency = 0.0; }},
        {"-0.0", [](Query& q) { q.cfg.nocLatency = -0.0; }},
        {"nudged", [](Query& q) {
             q.cfg.sgBytes = std::nextafter(q.cfg.sgBytes, 1e12);
         }},
    };
    exec::CostCache fields;
    auto run = [&fields](const Query& q) {
        fields.analyze(cost::CostModel(q.energy), q.layer, q.batch, q.cfg,
                       q.bw_bucket);
    };
    run(base);
    int64_t expected = 1;
    for (const auto& [name, edit] : edits) {
        Query q = base;
        edit(q);
        run(q);
        ++expected;
        s = fields.stats();
        EXPECT_EQ(s.misses, expected) << name;
        EXPECT_EQ(s.entries, expected) << name;
    }
    EXPECT_EQ(fields.stats().hits, 0);

    // The name is not a cost input: renaming the core hits.
    Query renamed = base;
    renamed.cfg.name = "another name";
    run(renamed);
    EXPECT_EQ(fields.stats().hits, 1);
    EXPECT_EQ(fields.stats().entries, expected);
}

TEST(CostCache, ClearResetsEverything)
{
    exec::CostCache cache;
    cost::CostModel model;
    cost::SubAccelConfig cfg;
    dnn::LayerShape layer = dnn::fc(256, 128);
    cache.analyze(model, layer, 1, cfg);
    cache.analyze(model, layer, 1, cfg);
    cache.clear();
    exec::CostCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 0);
    EXPECT_EQ(s.misses, 0);
    EXPECT_EQ(s.entries, 0);
}

TEST(CostCache, JobAnalyzerTableIdenticalWithAndWithoutCache)
{
    dnn::WorkloadGenerator gen(3);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Mix, 24);
    accel::Platform platform = accel::makeSetting(accel::Setting::S2, 8.0);
    cost::CostModel model;

    sched::JobAnalyzer plain(model);
    sched::JobAnalysisTable cold = plain.analyze(group, platform);

    exec::CostCache cache;
    sched::JobAnalyzer cached(model, &cache);
    sched::JobAnalysisTable warm1 = cached.analyze(group, platform);
    sched::JobAnalysisTable warm2 = cached.analyze(group, platform);
    EXPECT_GT(cache.stats().hits, 0);

    ASSERT_EQ(cold.numJobs(), warm1.numJobs());
    ASSERT_EQ(cold.numAccels(), warm1.numAccels());
    for (int j = 0; j < cold.numJobs(); ++j) {
        for (int a = 0; a < cold.numAccels(); ++a) {
            const sched::JobProfile& x = cold.lookup(j, a);
            const sched::JobProfile& y = warm1.lookup(j, a);
            const sched::JobProfile& z = warm2.lookup(j, a);
            EXPECT_EQ(x.noStallSeconds, y.noStallSeconds);
            EXPECT_EQ(x.reqBwGbps, y.reqBwGbps);
            EXPECT_EQ(x.energyPj, y.energyPj);
            EXPECT_EQ(y.noStallSeconds, z.noStallSeconds);
            EXPECT_EQ(y.reqBwGbps, z.reqBwGbps);
            EXPECT_EQ(y.energyPj, z.energyPj);
        }
    }
}

TEST(CostCache, ConcurrentLookupsAreSafeAndConsistent)
{
    exec::CostCache cache;
    cost::CostModel model;
    cost::SubAccelConfig cfg;
    dnn::LayerShape layer = dnn::conv(128, 64, 28, 28, 3, 3);
    cost::CostResult ref = model.analyze(layer, 4, cfg);

    exec::ThreadPool pool(8);
    std::vector<double> cycles(200);
    pool.parallelFor(200, [&](int64_t i) {
        cycles[i] = cache.analyze(model, layer, 4, cfg).noStallCycles;
    });
    for (double c : cycles)
        EXPECT_EQ(c, ref.noStallCycles);
    EXPECT_EQ(cache.stats().entries, 1);
}
