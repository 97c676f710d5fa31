/**
 * @file N-thread hammer tests for the shared mutable state of the
 * engine: serve::MappingStore (concurrent put/get/LRU-evict/save),
 * obs::MetricsRegistry (histogram record vs snapshot, counter identity),
 * exec::CostCache (contention on overlapping keys) and the
 * obs::Tracer rings (record vs drain).
 *
 * These tests are meaningful everywhere (the post-join invariants catch
 * lost updates and broken accounting) but earn their keep under the
 * `-DMAGMA_SANITIZE=thread` CI leg, where ThreadSanitizer turns any
 * unsynchronized access they provoke into a hard failure.
 */

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cost/cost_model.h"
#include "dnn/layer.h"
#include "dnn/workload.h"
#include "exec/cost_cache.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "sched/mapping.h"
#include "serve/fingerprint.h"
#include "serve/mapping_store.h"

using namespace magma;

namespace {

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 400;

dnn::JobGroup
makeGroup(dnn::TaskType task, int size, uint64_t seed)
{
    dnn::WorkloadGenerator gen(seed);
    return gen.makeGroup(task, size);
}

sched::Mapping
randomMapping(int group_size, int num_accels, uint64_t seed)
{
    common::Rng rng(seed);
    return sched::Mapping::random(group_size, num_accels, rng);
}

}  // namespace

// -------------------------------------------------------- MappingStore ---

TEST(RaceStress, MappingStorePutGetEvict)
{
    // Capacity far below the key population forces continuous LRU
    // eviction while other threads look up and write back.
    serve::MappingStore store(/*capacity=*/16);
    dnn::JobGroup group = makeGroup(dnn::TaskType::Mix, 8, 1);
    sched::Mapping mapping = randomMapping(8, 4, 2);

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                int k = (t * 7 + i) % 64;  // overlapping key space
                serve::Fingerprint fp{"race-key-" + std::to_string(k),
                                      "race-coarse-" + std::to_string(k % 4)};
                switch (i % 3) {
                case 0:
                    store.update(fp, dnn::TaskType::Mix, mapping, group,
                                 /*fitness=*/1.0 + i, /*samples=*/10);
                    break;
                case 1: {
                    auto hit = store.lookup(fp);
                    if (hit) {
                        EXPECT_EQ(hit->entry.mapping.size(), mapping.size());
                    }
                    break;
                }
                default:
                    (void)store.size();
                    (void)store.stats();
                    break;
                }
            }
        });
    }
    for (auto& th : threads)
        th.join();

    // Post-join invariants: capacity respected, accounting consistent.
    EXPECT_LE(store.size(), 16);
    serve::StoreStats s = store.stats();
    EXPECT_EQ(s.entries, store.size());
    EXPECT_EQ(s.inserts - s.evictions, s.entries);
    EXPECT_GT(s.lookups, 0);
}

TEST(RaceStress, MappingStoreSaveWhileMutating)
{
    serve::MappingStore store(/*capacity=*/32);
    dnn::JobGroup group = makeGroup(dnn::TaskType::Vision, 6, 3);
    sched::Mapping mapping = randomMapping(6, 2, 4);

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            int i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                serve::Fingerprint fp{
                    "save-key-" + std::to_string((t * 13 + i) % 48),
                    "save-coarse"};
                store.update(fp, dnn::TaskType::Vision, mapping, group,
                             1.0 + (i % 7), 5);
                ++i;
            }
        });
    }
    // Saves run concurrently with the writers: every snapshot must be a
    // well-formed, loadable store image (save holds the store mutex).
    for (int round = 0; round < 10; ++round) {
        std::ostringstream os;
        store.save(os);
        serve::MappingStore copy(/*capacity=*/64);
        std::istringstream is(os.str());
        EXPECT_NO_THROW(copy.load(is));
        EXPECT_LE(copy.size(), 48);
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : writers)
        th.join();
}

TEST(RaceStress, MappingStoreLogRecoversLiveContent)
{
    // Racing writers evict continuously while lookups reorder the LRU.
    // The log must list puts and evictions in the order they were
    // applied, so replaying it rebuilds exactly the live content.
    const std::string log_path = "race_store_recovery_test.log";
    std::remove(log_path.c_str());
    constexpr int kLoggedOps = 100;  // every put and evict is fsync'd
    serve::MappingStore store(/*capacity=*/4);
    ASSERT_TRUE(store.openLog(log_path));
    dnn::JobGroup group = makeGroup(dnn::TaskType::Mix, 8, 5);
    sched::Mapping mapping = randomMapping(8, 4, 6);

    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < kLoggedOps; ++i) {
                int k = (t * 5 + i) % 12;
                serve::Fingerprint fp{"log-key-" + std::to_string(k),
                                      "log-coarse-" + std::to_string(k % 3)};
                if (i % 2)
                    (void)store.lookup(fp);
                else
                    store.update(fp, dnn::TaskType::Mix, mapping, group,
                                 /*fitness=*/1.0 + (t * 7 + i) % 5,
                                 /*samples=*/t + 1);
            }
        });
    }
    for (auto& th : writers)
        th.join();
    store.closeLog();

    EXPECT_LE(store.size(), 4);
    serve::StoreStats s = store.stats();
    EXPECT_EQ(s.inserts - s.evictions, s.entries);

    std::ostringstream live, replayed;
    store.save(live);
    serve::MappingStore recovered(/*capacity=*/4);
    recovered.recover("race_store_no_such_snapshot", log_path);
    recovered.save(replayed);
    EXPECT_EQ(replayed.str(), live.str());
    std::remove(log_path.c_str());
}

// ---------------------------------------------------- MetricsRegistry ---

TEST(RaceStress, MetricsHistogramRecordVsSnapshot)
{
    obs::MetricsRegistry reg;
    obs::Histogram& hist = reg.histogram("race.latency");
    obs::Counter& ops = reg.counter("race.ops");

    std::atomic<bool> stop{false};
    std::thread snapshotter([&] {
        // Concurrent captures must always see internally consistent
        // metrics (they may trail in-flight records).
        while (!stop.load(std::memory_order_relaxed)) {
            obs::MetricsSnapshot snap =
                obs::SnapshotWriter::capture("race", reg, nullptr);
            (void)snap;
            (void)hist.quantile(0.5);
        }
    });

    std::vector<std::thread> recorders;
    recorders.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        recorders.emplace_back([&, t] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                hist.record(1.0 + ((t * kOpsPerThread + i) % 100));
                ops.add();
            }
        });
    }
    for (auto& th : recorders)
        th.join();
    stop.store(true, std::memory_order_relaxed);
    snapshotter.join();

    // No record may be lost and the exact extremes must survive.
    EXPECT_EQ(hist.count(), kThreads * kOpsPerThread);
    EXPECT_EQ(ops.value(), kThreads * kOpsPerThread);
    EXPECT_DOUBLE_EQ(hist.min(), 1.0);
    EXPECT_DOUBLE_EQ(hist.max(), 100.0);
}

TEST(RaceStress, MetricsRegistryLookupIdentity)
{
    // counter()/histogram() from many threads must converge on ONE
    // metric per name with no lost registrations.
    obs::MetricsRegistry reg;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kOpsPerThread; ++i)
                reg.counter("shared." + std::to_string(i % 8)).add();
        });
    }
    for (auto& th : threads)
        th.join();

    int64_t total = 0;
    reg.visit([&](const std::string&,
                  const obs::Counter& c) { total += c.value(); },
              nullptr, nullptr);
    EXPECT_EQ(total, int64_t{kThreads} * kOpsPerThread);
}

// ----------------------------------------------------------- CostCache ---

TEST(RaceStress, CostCacheOverlappingKeys)
{
    exec::CostCache cache;
    cost::CostModel model;
    cost::SubAccelConfig cfg;

    // A handful of distinct shapes queried by every thread: concurrent
    // misses on one key may both compute, but every returned result must
    // be bitwise identical to the serial answer.
    std::vector<dnn::LayerShape> shapes;
    for (int i = 0; i < 8; ++i)
        shapes.push_back(dnn::conv(32 + i, 16, 14, 14, 3, 3));
    std::vector<cost::CostResult> expected;
    expected.reserve(shapes.size());
    for (const auto& s : shapes)
        expected.push_back(model.analyze(s, 4, cfg));

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    std::atomic<int> mismatches{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                int k = (t + i) % static_cast<int>(shapes.size());
                cost::CostResult r =
                    cache.analyze(model, shapes[k], 4, cfg);
                if (r.noStallCycles != expected[k].noStallCycles ||
                    r.energyPj != expected[k].energyPj ||
                    r.macs != expected[k].macs)
                    mismatches.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto& th : threads)
        th.join();

    EXPECT_EQ(mismatches.load(), 0);
    exec::CostCacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, int64_t{kThreads} * kOpsPerThread);
    // Duplicate computes are allowed (racing cold misses) but bounded:
    // at most one extra compute per thread per key.
    EXPECT_GE(s.entries, static_cast<int64_t>(shapes.size()));
    EXPECT_LE(s.entries, static_cast<int64_t>(shapes.size()));
}

// -------------------------------------------------------------- Tracer ---

TEST(RaceStress, TracerRecordVsDrain)
{
    // The global tracer records only at Trace level; force it on for
    // this test and restore after.
    obs::MetricsLevel prev = obs::metricsLevel();
    obs::setMetricsLevel(obs::MetricsLevel::Trace);

    std::atomic<int64_t> drained{0};
    std::atomic<int64_t> dropped_total{0};
    std::atomic<bool> stop{false};
    std::thread drainer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            int64_t dropped = 0;
            auto events = obs::Tracer::global().drain(&dropped);
            drained.fetch_add(static_cast<int64_t>(events.size()),
                              std::memory_order_relaxed);
            dropped_total.fetch_add(dropped, std::memory_order_relaxed);
        }
    });

    std::vector<std::thread> recorders;
    recorders.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        recorders.emplace_back([&] {
            for (int i = 0; i < kOpsPerThread; ++i)
                obs::traceInstant("race.instant", i);
        });
    }
    for (auto& th : recorders)
        th.join();
    stop.store(true, std::memory_order_relaxed);
    drainer.join();

    int64_t dropped = 0;
    auto rest = obs::Tracer::global().drain(&dropped);
    drained.fetch_add(static_cast<int64_t>(rest.size()),
                      std::memory_order_relaxed);
    dropped_total.fetch_add(dropped, std::memory_order_relaxed);

    // Every recorded event is either drained or counted as dropped. The
    // main-thread ring may hold unrelated events from other tests in
    // this process, so allow >=.
    EXPECT_GE(drained.load() + dropped_total.load(),
              int64_t{kThreads} * kOpsPerThread);

    obs::setMetricsLevel(prev);
}
