/**
 * @file Tests for the online mapping service (src/serve/): workload
 * fingerprints, the fingerprint-keyed MappingStore (tiers, LRU bounds,
 * text persistence), mapping text serialization, and the MappingService
 * itself — per-request determinism under concurrency and queue
 * reordering, per-tenant fair admission, and the end-to-end Table V
 * warm-start effect across a save/load cycle.
 */

#include <sys/resource.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "api/spec.h"
#include "baselines/herald_like.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "serve/fingerprint.h"
#include "serve/mapping_store.h"
#include "serve/service.h"

using namespace magma;
using serve::Fingerprint;
using serve::MappingService;
using serve::MappingStore;
using serve::MapRequest;
using serve::MapResponse;
using serve::ServiceConfig;

namespace {

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

/** A small S2 request with everything pinned down (spec-carried). */
MapRequest
baseRequest(uint64_t seed)
{
    MapRequest req;
    req.problem.task = dnn::TaskType::Mix;
    req.problem.groupSize = 12;
    req.problem.workloadSeed = seed;
    req.problem.setting = accel::Setting::S2;
    req.problem.systemBwGbps = 4.0;
    req.search.sampleBudget = 300;
    req.search.seed = seed;
    return req;
}

}  // namespace

// ------------------------------------------------- mapping text form ---

TEST(MappingText, RoundTripsBitwise)
{
    sched::Mapping m = randomMapping(17, 4, 3);
    m.priority[0] = 1.0 / 3.0;
    m.priority[1] = 0.1 + 0.2;  // classic non-representable sum
    m.priority[2] = 1e-17;
    sched::Mapping back = sched::Mapping::fromText(m.toText());
    EXPECT_EQ(back, m);
}

TEST(MappingText, EmptyMappingRoundTrips)
{
    sched::Mapping m;
    EXPECT_EQ(sched::Mapping::fromText(m.toText()), m);
}

TEST(MappingText, RejectsGarbage)
{
    EXPECT_THROW(sched::Mapping::fromText(""), std::invalid_argument);
    EXPECT_THROW(sched::Mapping::fromText("-1"), std::invalid_argument);
    EXPECT_THROW(sched::Mapping::fromText("2 0 1 0.5"),
                 std::invalid_argument);
    EXPECT_THROW(sched::Mapping::fromText("2 0 x 0.5 0.5"),
                 std::invalid_argument);
}

TEST(MappingText, RejectsHostileLines)
{
    const char* const bad[] = {
        "10000000",                      // size the genes cannot fill
        "2 0 1 0.5 0.25 trailing junk",  // trailing tokens
        "2 0 1 0.5 0.25 7",
        "2 0 1 +0.5 0.25",               // '+' sign
        "+2 0 1 0.5 0.25",
        "1 1.5 0.5",                     // fractional accel gene
        "1 0x1 0.5",
        "1 0 0x1p-2",                    // hex float
        "1 0 1e400",                     // overflows a double
        "1 0 nan",
        "1 0 inf",
        "1 -1 0.5",                      // negative accel gene
        "2147483648 0 0",                // size outside int
        "1 0 0.5junk",
    };
    for (const char* line : bad)
        EXPECT_THROW(sched::Mapping::fromText(line), std::invalid_argument)
            << line;
    try {
        sched::Mapping::fromText("10000000");
        FAIL() << "accepted a size with no genes";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("needs 20000000 genes, found 0"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MappingText, AcceptsBlankRunsAroundTokens)
{
    sched::Mapping m;
    m.accelSel = {0, 1};
    m.priority = {0.5, 0.25};
    EXPECT_EQ(sched::Mapping::fromText(" 2 0 1 0.5 0.25 "), m);
    EXPECT_EQ(sched::Mapping::fromText("2\t0  1 0.5\t0.25\n"), m);
}

// ---------------------------------------------------- fingerprinting ---

TEST(Fingerprint, DeterministicAndSensitive)
{
    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    accel::Platform s4 = accel::makeSetting(accel::Setting::S4, 4.0);
    dnn::JobGroup g = makeGroup(dnn::TaskType::Mix, 16, 5);

    Fingerprint a = serve::fingerprintOf(g, s2);
    Fingerprint b = serve::fingerprintOf(makeGroup(dnn::TaskType::Mix, 16,
                                                   5),
                                         s2);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.coarse, b.coarse);

    // Platform changes both tiers.
    EXPECT_NE(a.key, serve::fingerprintOf(g, s4).key);
    EXPECT_NE(a.coarse, serve::fingerprintOf(g, s4).coarse);

    // A different task distribution changes the coarse tier.
    dnn::JobGroup lang = makeGroup(dnn::TaskType::Language, 16, 5);
    EXPECT_NE(a.coarse, serve::fingerprintOf(lang, s2).coarse);

    // Bandwidth regime and objective change BOTH tiers: mappings and
    // fitness values are not comparable across them.
    accel::Platform s2_slow = accel::makeSetting(accel::Setting::S2, 1.0);
    EXPECT_NE(a.key, serve::fingerprintOf(g, s2_slow).key);
    EXPECT_NE(a.coarse, serve::fingerprintOf(g, s2_slow).coarse);
    Fingerprint energy =
        serve::fingerprintOf(g, s2, sched::Objective::Energy);
    EXPECT_NE(a.key, energy.key);
    EXPECT_NE(a.coarse, energy.coarse);

    // Keys are single whitespace-free tokens (store-format requirement).
    EXPECT_EQ(a.key.find(' '), std::string::npos);
    EXPECT_EQ(a.key.find('\t'), std::string::npos);
}

TEST(Fingerprint, ProblemSpecOverloadMatchesPlatformOverload)
{
    // The spec overload (what MapRequest-carried specs key the store by)
    // must equal fingerprinting the platform the spec describes.
    api::ProblemSpec spec;
    spec.setting = accel::Setting::S2;
    spec.systemBwGbps = 4.0;
    dnn::JobGroup g = makeGroup(dnn::TaskType::Mix, 16, 5);

    Fingerprint via_spec =
        serve::fingerprintOf(g, spec, sched::Objective::Energy);
    Fingerprint via_platform = serve::fingerprintOf(
        g, api::buildPlatform(spec), sched::Objective::Energy);
    EXPECT_EQ(via_spec.key, via_platform.key);
    EXPECT_EQ(via_spec.coarse, via_platform.coarse);

    // The flexible flag changes the platform and with it both tiers.
    api::ProblemSpec flex = spec;
    flex.flexible = true;
    EXPECT_NE(serve::fingerprintOf(g, flex).key, via_spec.key);
}

TEST(Fingerprint, KeyBytesPinned)
{
    // Store keys are persisted (snapshot and log), so their bytes must
    // never change: a reloaded store would otherwise miss every entry.
    // The bandwidths cover an integer, a non-integer and one large
    // enough for the formatter's exponent form.
    struct Case {
        dnn::TaskType task;
        int size;
        uint64_t seed;
        accel::Platform platform;
        sched::Objective objective;
        const char* key;
        const char* coarse;
    };
    const Case cases[] = {
        {dnn::TaskType::Mix, 16, 5,
         accel::makeSetting(accel::Setting::S2, 16.0),
         sched::Objective::Throughput,
         "task=Mix|plat=S2#4@16|obj=throughput"
         "|hist=CONV:2,DWCONV:3,FC:3,PWCONV:8|size=4:3,5:5,6:8",
         "task=Mix|plat=S2#4@16|obj=throughput"},
        {dnn::TaskType::Vision, 24, 3,
         accel::makeSetting(accel::Setting::S4, 12.5),
         sched::Objective::Energy,
         "task=Vision|plat=S4#8@12.5|obj=energy"
         "|hist=CONV:7,DWCONV:2,PWCONV:15|size=4:1,5:8,6:12,7:3",
         "task=Vision|plat=S4#8@12.5|obj=energy"},
        {dnn::TaskType::Language, 7, 11,
         accel::makeFlexibleSetting(accel::Setting::S1, 1234567.0),
         sched::Objective::Latency,
         "task=Lang|plat=S1-flex#4@1.23457e+06|obj=latency"
         "|hist=FC:7|size=6:5,7:2",
         "task=Lang|plat=S1-flex#4@1.23457e+06|obj=latency"},
    };
    for (const Case& c : cases) {
        Fingerprint fp = serve::fingerprintOf(
            makeGroup(c.task, c.size, c.seed), c.platform, c.objective);
        EXPECT_EQ(fp.key, c.key);
        EXPECT_EQ(fp.coarse, c.coarse);
    }
}

TEST(Fingerprint, SameDistributionSharesCoarseTier)
{
    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    Fingerprint a =
        serve::fingerprintOf(makeGroup(dnn::TaskType::Vision, 16, 1), s2);
    Fingerprint b =
        serve::fingerprintOf(makeGroup(dnn::TaskType::Vision, 16, 2), s2);
    EXPECT_EQ(a.coarse, b.coarse);
}

// ------------------------------------------------------ MappingStore ---

TEST(MappingStore, ExactThenCoarseThenMiss)
{
    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    dnn::JobGroup g1 = makeGroup(dnn::TaskType::Mix, 12, 1);
    dnn::JobGroup g2 = makeGroup(dnn::TaskType::Mix, 12, 2);
    dnn::JobGroup lang = makeGroup(dnn::TaskType::Language, 12, 1);
    Fingerprint f1 = serve::fingerprintOf(g1, s2);
    Fingerprint f2 = serve::fingerprintOf(g2, s2);
    Fingerprint fl = serve::fingerprintOf(lang, s2);
    ASSERT_NE(f1.key, f2.key);  // independent draws differ in composition
    ASSERT_EQ(f1.coarse, f2.coarse);

    MappingStore store;
    sched::Mapping m = randomMapping(12, s2.numSubAccels(), 7);
    EXPECT_TRUE(store.update(f1, g1.task, m, g1, 100.0, 500));

    auto exact = store.lookup(f1);
    ASSERT_TRUE(exact.has_value());
    EXPECT_TRUE(exact->exact);
    EXPECT_EQ(exact->entry.mapping, m);
    EXPECT_EQ(exact->entry.fitness, 100.0);
    EXPECT_EQ(exact->entry.group.size(), 12);

    auto coarse = store.lookup(f2);
    ASSERT_TRUE(coarse.has_value());
    EXPECT_FALSE(coarse->exact);
    EXPECT_EQ(coarse->entry.key, f1.key);

    EXPECT_FALSE(store.lookup(fl).has_value());

    serve::StoreStats s = store.stats();
    EXPECT_EQ(s.lookups, 3);
    EXPECT_EQ(s.exactHits, 1);
    EXPECT_EQ(s.coarseHits, 1);
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.entries, 1);
}

TEST(MappingStore, CoarseFallbackPicksBestFitness)
{
    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    dnn::JobGroup g1 = makeGroup(dnn::TaskType::Mix, 12, 1);
    dnn::JobGroup g2 = makeGroup(dnn::TaskType::Mix, 12, 2);
    dnn::JobGroup g3 = makeGroup(dnn::TaskType::Mix, 12, 3);
    Fingerprint f1 = serve::fingerprintOf(g1, s2);
    Fingerprint f2 = serve::fingerprintOf(g2, s2);
    Fingerprint f3 = serve::fingerprintOf(g3, s2);
    ASSERT_NE(f1.key, f3.key);
    ASSERT_NE(f2.key, f3.key);

    MappingStore store;
    store.update(f1, g1.task, randomMapping(12, 4, 1), g1, 50.0, 100);
    store.update(f2, g2.task, randomMapping(12, 4, 2), g2, 80.0, 100);

    auto hit = store.lookup(f3);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->exact);
    EXPECT_EQ(hit->entry.key, f2.key);  // higher fitness wins
}

TEST(MappingStore, WriteBackKeepsBetterSolution)
{
    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    dnn::JobGroup g = makeGroup(dnn::TaskType::Mix, 12, 1);
    Fingerprint f = serve::fingerprintOf(g, s2);
    sched::Mapping good = randomMapping(12, 4, 1);
    sched::Mapping worse = randomMapping(12, 4, 2);
    sched::Mapping better = randomMapping(12, 4, 3);

    MappingStore store;
    EXPECT_TRUE(store.update(f, g.task, good, g, 100.0, 10));
    EXPECT_FALSE(store.update(f, g.task, worse, g, 90.0, 10));
    EXPECT_EQ(store.lookup(f)->entry.mapping, good);
    EXPECT_TRUE(store.update(f, g.task, better, g, 110.0, 10));
    EXPECT_EQ(store.lookup(f)->entry.mapping, better);

    serve::StoreStats s = store.stats();
    EXPECT_EQ(s.inserts, 1);
    EXPECT_EQ(s.improvements, 1);
    EXPECT_EQ(s.rejects, 1);
    // All three write-backs invested samples on this workload.
    EXPECT_EQ(store.lookup(f)->entry.samplesInvested, 30);
}

TEST(MappingStore, LruEvictionPastCapacity)
{
    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    MappingStore store(/*capacity=*/2);

    dnn::JobGroup g1 = makeGroup(dnn::TaskType::Vision, 8, 1);
    dnn::JobGroup g2 = makeGroup(dnn::TaskType::Language, 8, 1);
    dnn::JobGroup g3 = makeGroup(dnn::TaskType::Recommendation, 8, 1);
    Fingerprint f1 = serve::fingerprintOf(g1, s2);
    Fingerprint f2 = serve::fingerprintOf(g2, s2);
    Fingerprint f3 = serve::fingerprintOf(g3, s2);

    store.update(f1, g1.task, randomMapping(8, 4, 1), g1, 1.0, 0);
    store.update(f2, g2.task, randomMapping(8, 4, 2), g2, 1.0, 0);
    store.lookup(f1);  // f1 is now more recently used than f2
    store.update(f3, g3.task, randomMapping(8, 4, 3), g3, 1.0, 0);

    EXPECT_EQ(store.size(), 2);
    EXPECT_EQ(store.stats().evictions, 1);
    EXPECT_TRUE(store.lookup(f1).has_value());   // survived
    EXPECT_TRUE(store.lookup(f3).has_value());   // newest
    // f2 (LRU) was evicted; Language shares no coarse tier with f1/f3.
    EXPECT_FALSE(store.lookup(f2).has_value());
}

TEST(MappingStore, SaveLoadRoundTripsBitwise)
{
    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    MappingStore store;
    std::vector<Fingerprint> fps;
    std::vector<sched::Mapping> mappings;
    for (int i = 0; i < 3; ++i) {
        dnn::JobGroup g = makeGroup(dnn::TaskType::Mix, 10 + i, 40 + i);
        Fingerprint f = serve::fingerprintOf(g, s2);
        sched::Mapping m = randomMapping(10 + i, s2.numSubAccels(), i);
        store.update(f, g.task, m, g, 10.0 + i / 3.0, 100 * i);
        fps.push_back(f);
        mappings.push_back(m);
    }

    std::stringstream buf;
    store.save(buf);

    MappingStore reloaded;
    reloaded.load(buf);
    EXPECT_EQ(reloaded.size(), 3);
    for (size_t i = 0; i < fps.size(); ++i) {
        auto hit = reloaded.lookup(fps[i]);
        ASSERT_TRUE(hit.has_value()) << "entry " << i;
        EXPECT_TRUE(hit->exact);
        EXPECT_EQ(hit->entry.mapping, mappings[i]);  // bitwise
        EXPECT_EQ(hit->entry.fitness, 10.0 + i / 3.0);
        EXPECT_EQ(hit->entry.samplesInvested,
                  static_cast<int64_t>(100 * i));
        EXPECT_EQ(hit->entry.group.size(), static_cast<int>(10 + i));
    }

    // Save → load → save is byte-identical (deterministic format).
    std::stringstream buf2;
    reloaded.save(buf2);
    std::stringstream buf3;
    store.save(buf3);
    EXPECT_EQ(buf2.str(), buf3.str());
}

TEST(MappingStore, HashOrderCannotReachOutputs)
{
    // The store's three map-iteration sites (coarse scan, LRU victim
    // scan, save) must depend only on store content. Build the same
    // content in different insertion orders; every observable — saved
    // text, coarse winner, eviction survivor set — must be identical.
    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    std::vector<Fingerprint> fps;
    std::vector<sched::Mapping> mappings;
    std::vector<dnn::JobGroup> groups;
    for (int i = 0; i < 8; ++i) {
        dnn::JobGroup g = makeGroup(dnn::TaskType::Mix, 8, 70 + i);
        fps.push_back(serve::fingerprintOf(g, s2));
        mappings.push_back(randomMapping(8, s2.numSubAccels(), i));
        groups.push_back(g);
    }
    // Same fitness for several keys so tie-breaks are exercised.
    auto fitness = [](int i) { return 5.0 + (i % 3); };

    MappingStore forward(/*capacity=*/64);
    for (int i = 0; i < 8; ++i)
        forward.update(fps[i], groups[i].task, mappings[i], groups[i],
                       fitness(i), 10);
    MappingStore backward(/*capacity=*/64);
    for (int i = 7; i >= 0; --i)
        backward.update(fps[i], groups[i].task, mappings[i], groups[i],
                        fitness(i), 10);

    std::stringstream a, b;
    forward.save(a);
    backward.save(b);
    EXPECT_EQ(a.str(), b.str());

    // Coarse-tier winner: same fingerprint distribution -> same coarse
    // key; the highest-fitness (tie: lowest key) entry must win in both
    // stores regardless of insertion order.
    dnn::JobGroup probe = makeGroup(dnn::TaskType::Mix, 8, 99);
    Fingerprint pf = serve::fingerprintOf(probe, s2);
    auto ha = forward.lookup(pf);
    auto hb = backward.lookup(pf);
    ASSERT_TRUE(ha.has_value());
    ASSERT_TRUE(hb.has_value());
    EXPECT_FALSE(ha->exact);
    EXPECT_EQ(ha->entry.key, hb->entry.key);
    EXPECT_EQ(ha->entry.mapping, hb->entry.mapping);

    // Eviction: shrink both to the same capacity; the survivor sets
    // (and so the saved text) must still agree. Touch entries in the
    // same sequence to give both stores identical LRU clocks.
    MappingStore small_a(/*capacity=*/4);
    MappingStore small_b(/*capacity=*/4);
    for (int i = 0; i < 8; ++i) {
        small_a.update(fps[i], groups[i].task, mappings[i], groups[i],
                       fitness(i), 10);
        small_b.update(fps[i], groups[i].task, mappings[i], groups[i],
                       fitness(i), 10);
    }
    EXPECT_EQ(small_a.size(), 4);
    std::stringstream sa, sb;
    small_a.save(sa);
    small_b.save(sb);
    EXPECT_EQ(sa.str(), sb.str());
}

TEST(MappingStore, LoadRejectsGarbageAndLeavesContentUntouched)
{
    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    dnn::JobGroup g = makeGroup(dnn::TaskType::Mix, 8, 1);
    Fingerprint f = serve::fingerprintOf(g, s2);

    MappingStore store;
    store.update(f, g.task, randomMapping(8, 4, 1), g, 5.0, 10);

    std::stringstream bad("not-a-store v1 1\n");
    EXPECT_THROW(store.load(bad), std::invalid_argument);
    std::stringstream truncated("magma-store-snapshot v1 1\nentry\n");
    EXPECT_THROW(store.load(truncated), std::invalid_argument);

    // A failed load is atomic: the pre-existing entry survives.
    EXPECT_EQ(store.size(), 1);
    EXPECT_TRUE(store.lookup(f).has_value());
}

// ------------------------------------------- crash-safe persistence ---

namespace {

/** Read a whole file as raw bytes. */
std::string
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/** The store's canonical snapshot text (for state comparisons). */
std::string
saveText(const MappingStore& store)
{
    std::ostringstream os;
    store.save(os);
    return os.str();
}

}  // namespace

TEST(MappingStore, LoadRejectsHugeDeclaredCounts)
{
    // Every declared count must fail as a malformed stream, not as an
    // allocation of the size it claims.
    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    dnn::JobGroup g = makeGroup(dnn::TaskType::Mix, 8, 1);
    Fingerprint f = serve::fingerprintOf(g, s2);
    MappingStore store;
    store.update(f, g.task, randomMapping(8, 4, 1), g, 5.0, 10);
    std::ostringstream saved;
    store.save(saved);
    const std::string text = saved.str();
    const std::string body = text.substr(text.find('\n') + 1);
    ASSERT_NE(body.find("jobs 8\n"), std::string::npos);
    std::string huge_jobs = text;
    huge_jobs.replace(huge_jobs.find("jobs 8\n"), 7, "jobs 1000000000000\n");

    for (const std::string& bad :
         {"magma-store-snapshot v1 -1\n" + body,
          "magma-store-snapshot v1 1000000000000\n" + body, huge_jobs}) {
        std::stringstream is(bad);
        EXPECT_THROW(store.load(is), std::invalid_argument) << bad;
    }
    EXPECT_EQ(saveText(store), text);
}

/** A put record whose entry declares a huge job count passes the
 * checksum, so the entry parser must reject it: it ends the replay like
 * any other invalid record. */
TEST(MappingStoreLog, HugeJobCountRecordEndsReplay)
{
    const std::string log_path = "serve_store_huge_jobs_test.log";
    std::remove(log_path.c_str());
    dnn::JobGroup g = makeGroup(dnn::TaskType::Mix, 8, 1);
    MappingStore store;
    ASSERT_TRUE(store.openLog(log_path));
    store.update(Fingerprint{"a", "coarse"}, g.task, randomMapping(8, 4, 1),
                 g, 1.0, 5);
    const std::string prefix = saveText(store);
    const size_t good = slurp(log_path).size();
    store.update(Fingerprint{"b", "coarse"}, g.task, randomMapping(8, 4, 2),
                 g, 2.0, 5);
    const size_t second = slurp(log_path).size();
    store.update(Fingerprint{"c", "coarse"}, g.task, randomMapping(8, 4, 3),
                 g, 3.0, 5);
    store.closeLog();

    // Rewrite the second record's entry with a huge job count and a
    // matching byte count and checksum.
    const std::string log = slurp(log_path);
    const std::string record = log.substr(good, second - good);
    std::string body = record.substr(record.find('\n') + 1);
    ASSERT_NE(body.find("jobs 8\n"), std::string::npos);
    body.replace(body.find("jobs 8\n"), 7, "jobs 1000000000000\n");
    uint64_t h = 1469598103934665603ull;  // FNV-1a 64, as the log
    for (unsigned char c : body) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char sum[24];
    std::snprintf(sum, sizeof sum, "%016llx",
                  static_cast<unsigned long long>(h));
    {
        std::ofstream os(log_path, std::ios::binary | std::ios::trunc);
        os << log.substr(0, good) << "put " << body.size() << " " << sum
           << "\n"
           << body << log.substr(second);
    }

    MappingStore recovered;
    EXPECT_EQ(recovered.recover("serve_store_huge_jobs_no_snapshot",
                                log_path),
              1);
    EXPECT_EQ(saveText(recovered), prefix);
    std::remove(log_path.c_str());
}

TEST(MappingStoreLog, RecoveryAtEveryTruncationYieldsPrecrashPrefix)
{
    // The kill -9 contract, exhaustively: truncate the append-log at
    // EVERY byte offset; recovery must yield exactly the state at the
    // last complete record boundary — never a crash, never a torn entry.
    const std::string log_path = "serve_store_log_trunc_test.log";
    const std::string cut_path = log_path + ".cut";
    std::remove(log_path.c_str());

    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    dnn::JobGroup g1 = makeGroup(dnn::TaskType::Vision, 8, 1);
    dnn::JobGroup g2 = makeGroup(dnn::TaskType::Language, 8, 1);
    dnn::JobGroup g3 = makeGroup(dnn::TaskType::Recommendation, 8, 1);
    Fingerprint f1 = serve::fingerprintOf(g1, s2);
    Fingerprint f2 = serve::fingerprintOf(g2, s2);
    Fingerprint f3 = serve::fingerprintOf(g3, s2);

    // Build a log of 4 put records (3 inserts + 1 improvement), noting
    // the store's canonical text at every record boundary.
    MappingStore store;
    ASSERT_TRUE(store.openLog(log_path));
    std::vector<std::pair<size_t, std::string>> boundaries;
    boundaries.emplace_back(0, saveText(store));  // torn header = empty
    auto mark = [&]() {
        boundaries.emplace_back(slurp(log_path).size(), saveText(store));
    };
    mark();  // header written, no records yet
    store.update(f1, g1.task, randomMapping(8, 4, 1), g1, 10.0, 5);
    mark();
    store.update(f2, g2.task, randomMapping(8, 4, 2), g2, 20.0, 5);
    mark();
    store.update(f1, g1.task, randomMapping(8, 4, 3), g1, 30.0, 5);
    mark();  // improvement: same key, better fitness
    store.update(f3, g3.task, randomMapping(8, 4, 4), g3, 15.0, 5);
    mark();
    EXPECT_EQ(store.logRecords(), 4);
    store.closeLog();

    const std::string full = slurp(log_path);
    ASSERT_EQ(full.size(), boundaries.back().first);

    for (size_t len = 0; len <= full.size(); ++len) {
        {
            std::ofstream os(cut_path,
                             std::ios::binary | std::ios::trunc);
            os.write(full.data(), static_cast<std::streamsize>(len));
        }
        const std::string* expect = nullptr;
        for (const auto& [at, text] : boundaries)
            if (at <= len)
                expect = &text;
        MappingStore recovered;
        recovered.recover("serve_store_log_no_such_snapshot", cut_path);
        EXPECT_EQ(saveText(recovered), *expect)
            << "log truncated at byte " << len;
    }
    std::remove(log_path.c_str());
    std::remove(cut_path.c_str());
}

TEST(MappingStoreLog, CompactFoldsLogIntoLoadableSnapshot)
{
    const std::string snap = "serve_store_compact_test.snap";
    const std::string log_path = snap + ".log";
    std::remove(snap.c_str());
    std::remove(log_path.c_str());

    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    dnn::JobGroup g1 = makeGroup(dnn::TaskType::Vision, 8, 1);
    dnn::JobGroup g2 = makeGroup(dnn::TaskType::Language, 8, 1);
    dnn::JobGroup g3 = makeGroup(dnn::TaskType::Recommendation, 8, 1);

    MappingStore store;
    ASSERT_TRUE(store.openLog(log_path));
    store.update(serve::fingerprintOf(g1, s2), g1.task,
                 randomMapping(8, 4, 1), g1, 10.0, 5);
    store.update(serve::fingerprintOf(g2, s2), g2.task,
                 randomMapping(8, 4, 2), g2, 20.0, 5);
    EXPECT_EQ(store.logRecords(), 2);

    ASSERT_TRUE(store.compact(snap));
    EXPECT_EQ(store.logRecords(), 0);
    EXPECT_EQ(slurp(log_path), "magma-store-log v1\n");  // just a header

    // The compacted snapshot is an ordinary magma-store-snapshot: it
    // loads through loadFile and reproduces the content bitwise.
    MappingStore reloaded;
    ASSERT_TRUE(reloaded.loadFile(snap));
    EXPECT_EQ(saveText(reloaded), saveText(store));

    // Post-compaction appends land in the fresh log; snapshot + log
    // recover to the live state.
    store.update(serve::fingerprintOf(g3, s2), g3.task,
                 randomMapping(8, 4, 3), g3, 15.0, 5);
    EXPECT_EQ(store.logRecords(), 1);
    MappingStore recovered;
    EXPECT_EQ(recovered.recover(snap, log_path), 1);
    EXPECT_EQ(saveText(recovered), saveText(store));
    store.closeLog();

    std::remove(snap.c_str());
    std::remove(log_path.c_str());
}

TEST(MappingStoreLog, EvictionRecordsReplayAndConverge)
{
    const std::string log_path = "serve_store_log_evict_test.log";
    std::remove(log_path.c_str());

    accel::Platform s2 = accel::makeSetting(accel::Setting::S2, 4.0);
    dnn::JobGroup g1 = makeGroup(dnn::TaskType::Vision, 8, 1);
    dnn::JobGroup g2 = makeGroup(dnn::TaskType::Language, 8, 1);
    dnn::JobGroup g3 = makeGroup(dnn::TaskType::Recommendation, 8, 1);

    MappingStore store(/*capacity=*/2);
    ASSERT_TRUE(store.openLog(log_path));
    store.update(serve::fingerprintOf(g1, s2), g1.task,
                 randomMapping(8, 4, 1), g1, 10.0, 5);
    store.update(serve::fingerprintOf(g2, s2), g2.task,
                 randomMapping(8, 4, 2), g2, 20.0, 5);
    store.update(serve::fingerprintOf(g3, s2), g3.task,
                 randomMapping(8, 4, 3), g3, 15.0, 5);
    EXPECT_EQ(store.logRecords(), 4);  // 3 puts + the LRU evict
    store.closeLog();

    // Full replay into a same-capacity store reproduces the post-evict
    // content exactly.
    MappingStore recovered(/*capacity=*/2);
    recovered.recover("serve_store_log_no_such_snapshot", log_path);
    EXPECT_EQ(saveText(recovered), saveText(store));

    // Tearing the trailing evict record does not matter here: the
    // capacity pass at the end of recover() evicts the entry the lost
    // record named, since no lookup reordered the LRU in between.
    const std::string full = slurp(log_path);
    {
        std::ofstream os(log_path, std::ios::binary | std::ios::trunc);
        os.write(full.data(),
                 static_cast<std::streamsize>(full.size() - 3));
    }
    MappingStore torn(/*capacity=*/2);
    torn.recover("serve_store_log_no_such_snapshot", log_path);
    EXPECT_EQ(saveText(torn), saveText(store));

    std::remove(log_path.c_str());
}

TEST(MappingStoreLog, RecoveryReproducesLiveLruOrder)
{
    // Recovery must not re-run the LRU on clocks it cannot reconstruct:
    // a reloaded snapshot ticks its entries in key order, and lookups
    // are not logged. Both cases evict B live; a replay that re-ran the
    // LRU would evict A instead and then drop B on its evict record,
    // leaving one entry where the live store had two.
    const std::string snap = "serve_store_lru_recovery_test.snap";
    const std::string log_path = snap + ".log";
    dnn::JobGroup g = makeGroup(dnn::TaskType::Mix, 8, 1);
    const Fingerprint a{"store-a", "coarse-a"};
    const Fingerprint b{"store-b", "coarse-b"};
    const Fingerprint c{"store-c", "coarse-c"};
    auto put = [&](MappingStore& store, const Fingerprint& fp, int seed) {
        store.update(fp, g.task, randomMapping(8, 4, seed), g, 1.0, 5);
    };
    auto recoverText = [&]() {
        MappingStore recovered(/*capacity=*/2);
        recovered.recover(snap, log_path);
        return saveText(recovered);
    };

    {
        // Case 1: B is older than A live, but the snapshot reloads A
        // first.
        std::remove(snap.c_str());
        std::remove(log_path.c_str());
        MappingStore store(/*capacity=*/2);
        ASSERT_TRUE(store.openLog(log_path));
        put(store, b, 1);
        put(store, a, 2);
        ASSERT_TRUE(store.compact(snap));
        put(store, c, 3);
        store.closeLog();
        EXPECT_EQ(store.size(), 2);
        EXPECT_EQ(recoverText(), saveText(store));
    }
    {
        // Case 2: an unlogged lookup makes B the LRU entry live.
        std::remove(snap.c_str());
        std::remove(log_path.c_str());
        MappingStore store(/*capacity=*/2);
        ASSERT_TRUE(store.openLog(log_path));
        put(store, a, 1);
        put(store, b, 2);
        ASSERT_TRUE(store.lookup(a).has_value());
        put(store, c, 3);
        store.closeLog();
        EXPECT_EQ(store.size(), 2);
        EXPECT_EQ(recoverText(), saveText(store));
    }
    std::remove(snap.c_str());
    std::remove(log_path.c_str());
}

TEST(MappingStoreLog, FailedAppendLeavesReplayablePrefix)
{
    // A short write, forced by lowering RLIMIT_FSIZE (with SIGXFSZ
    // ignored, write() stops at the limit instead of killing the
    // process), must cost no record before it, and no record may land
    // behind the gap it leaves: recover() yields a prefix of the live
    // history. compact() then resumes the log.
    const std::string snap = "serve_store_short_write_test.snap";
    const std::string log_path = snap + ".log";
    std::remove(snap.c_str());
    std::remove(log_path.c_str());
    dnn::JobGroup g = makeGroup(dnn::TaskType::Mix, 8, 1);
    auto put = [&](MappingStore& store, const char* key, int seed) {
        store.update(Fingerprint{key, "coarse"}, g.task,
                     randomMapping(8, 4, seed), g, seed, 5);
    };
    auto recoverText = [&](const std::string& snapshot) {
        MappingStore recovered;
        recovered.recover(snapshot, log_path);
        return saveText(recovered);
    };

    MappingStore store;
    ASSERT_TRUE(store.openLog(log_path));
    put(store, "a", 1);
    put(store, "b", 2);
    const std::string prefix = saveText(store);
    const size_t good = slurp(log_path).size();

    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit low = saved;
    low.rlim_cur = good + 16;  // room for part of the next record
    auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &low), 0);
    put(store, "c", 3);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, old_handler);

    serve::StoreStats st = store.stats();
    EXPECT_EQ(st.logAppendFailures, 1);
    EXPECT_EQ(st.logBroken, 0);
    EXPECT_EQ(store.logRecords(), 2);
    EXPECT_EQ(slurp(log_path).size(), good);  // the torn record is cut off

    // The disk has room again, but a record behind the lost one would
    // replay onto a state the live store never had: the log stays
    // stopped, and the live store keeps serving.
    put(store, "d", 4);
    EXPECT_EQ(store.size(), 4);
    EXPECT_EQ(slurp(log_path).size(), good);
    EXPECT_EQ(recoverText("serve_store_no_such_snapshot"), prefix);

    ASSERT_TRUE(store.compact(snap));
    put(store, "e", 5);
    EXPECT_EQ(store.logRecords(), 1);
    store.closeLog();
    EXPECT_EQ(recoverText(snap), saveText(store));
    std::remove(snap.c_str());
    std::remove(log_path.c_str());
}

// ---------------------------------------------------- MappingService ---

/** Serve `reqs` one at a time on one lane and return the responses. */
static std::vector<MapResponse>
serveSerially(const std::vector<MapRequest>& reqs)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    MappingService service(cfg);
    std::vector<MapResponse> out;
    for (const MapRequest& r : reqs) {
        auto f = service.submit(r);
        out.push_back(f.get());
    }
    service.stop();
    return out;
}

TEST(MappingService, ConcurrentMatchesSerialBitwiseInAnyOrder)
{
    // Acceptance criterion (a): fixed seeds → bitwise identical mappings
    // whether requests run serially or on 4 lanes, in any queue order.
    std::vector<MapRequest> reqs;
    for (uint64_t i = 0; i < 8; ++i) {
        MapRequest r = baseRequest(/*seed=*/100 + i);
        r.tenant = "tenant-" + std::to_string(i % 3);
        r.search.warmStart = false;  // isolate from store-order effects
        r.writeBack = false;
        reqs.push_back(r);
    }
    std::vector<MapResponse> serial = serveSerially(reqs);

    ServiceConfig cfg;
    cfg.workers = 4;
    MappingService service(cfg);
    // Reversed submission order + scrambled priorities: admission order
    // changes, results must not.
    std::vector<std::future<MapResponse>> futures(reqs.size());
    for (size_t i = reqs.size(); i-- > 0;) {
        MapRequest r = reqs[i];
        r.priority = static_cast<int>(i % 2);
        futures[i] = service.submit(std::move(r));
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
        MapResponse got = futures[i].get();
        EXPECT_EQ(got.best, serial[i].best) << "request " << i;
        EXPECT_EQ(got.bestFitness, serial[i].bestFitness) << "request "
                                                          << i;
        EXPECT_EQ(got.samplesUsed, serial[i].samplesUsed) << "request "
                                                          << i;
    }
    service.stop();
}

TEST(MappingService, WarmRequestsDeterministicAgainstFrozenStore)
{
    // Per-request determinism also holds for warm requests when every
    // request sees the same store view (writeBack off → frozen store).
    MapRequest seed_req = baseRequest(1);
    std::vector<MapRequest> reqs;
    for (uint64_t i = 0; i < 4; ++i) {
        MapRequest r = baseRequest(/*seed=*/200 + i);
        r.writeBack = false;
        reqs.push_back(r);
    }

    auto runWith = [&](int workers, bool reversed) {
        ServiceConfig cfg;
        cfg.workers = workers;
        MappingService service(cfg);
        service.submit(seed_req).get();  // populate the store (writeBack)
        service.drain();
        std::vector<std::future<MapResponse>> futures(reqs.size());
        if (reversed) {
            for (size_t i = reqs.size(); i-- > 0;)
                futures[i] = service.submit(reqs[i]);
        } else {
            for (size_t i = 0; i < reqs.size(); ++i)
                futures[i] = service.submit(reqs[i]);
        }
        std::vector<MapResponse> out;
        for (auto& f : futures)
            out.push_back(f.get());
        service.stop();
        return out;
    };

    std::vector<MapResponse> a = runWith(1, false);
    std::vector<MapResponse> b = runWith(4, true);
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_TRUE(b[i].warmStart) << "request " << i;
        EXPECT_EQ(b[i].best, a[i].best) << "request " << i;
        EXPECT_EQ(b[i].bestFitness, a[i].bestFitness) << "request " << i;
        EXPECT_EQ(b[i].samplesUsed, a[i].samplesUsed) << "request " << i;
    }
}

TEST(MappingService, PerTenantFairAdmission)
{
    // One lane, admission deferred: tenant A floods 4 requests before B's
    // 2 arrive; fair admission must interleave A,B,A,B,A,A.
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.autoStart = false;
    MappingService service(cfg);

    std::vector<std::future<MapResponse>> futures;
    std::vector<std::string> tenants = {"A", "A", "A", "A", "B", "B"};
    for (size_t i = 0; i < tenants.size(); ++i) {
        MapRequest r = baseRequest(10 + i);
        r.tenant = tenants[i];
        r.search.sampleBudget = 60;
        r.search.warmStart = false;
        r.writeBack = false;
        futures.push_back(service.submit(std::move(r)));
    }
    service.start();

    // Map each request to its admission index.
    std::vector<int64_t> order;
    for (auto& f : futures)
        order.push_back(f.get().serveOrder);
    service.stop();

    // tenants:      A0 A1 A2 A3 B0 B1
    // fair order:   0  2  4  5  1  3
    EXPECT_EQ(order, (std::vector<int64_t>{0, 2, 4, 5, 1, 3}));
}

TEST(MappingService, PriorityLevelsBeforeFairness)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.autoStart = false;
    MappingService service(cfg);

    std::vector<std::future<MapResponse>> futures;
    // Assigned from a named string: g++ 12 at -O3 reports a false
    // -Wrestrict on assigning the literal inside this loop (GCC bug
    // 105651), which breaks the -DMAGMA_WERROR=ON build.
    const std::string tenant_a = "A";
    for (int i = 0; i < 3; ++i) {
        MapRequest r = baseRequest(20 + i);
        r.tenant = tenant_a;
        r.priority = 1;
        r.search.sampleBudget = 60;
        r.search.warmStart = false;
        futures.push_back(service.submit(std::move(r)));
    }
    MapRequest urgent = baseRequest(30);
    urgent.tenant = "B";
    urgent.priority = 0;
    urgent.search.sampleBudget = 60;
    urgent.search.warmStart = false;
    futures.push_back(service.submit(std::move(urgent)));
    service.start();

    std::vector<int64_t> order;
    for (auto& f : futures)
        order.push_back(f.get().serveOrder);
    service.stop();

    EXPECT_EQ(order.back(), 0) << "priority-0 request must be served "
                                  "first despite arriving last";
}

TEST(MappingService, WarmStartAcrossReloadReachesColdQualityAtQuarterBudget)
{
    // Acceptance criterion (b): store save→load round-trips and a warm
    // request after reload reaches cold-search quality with <= 25% of the
    // cold sample budget on a Table III setting (the Table V effect,
    // end-to-end through the service).
    const std::string path = "serve_store_roundtrip_test.txt";
    const std::string log_path = path + ".log";
    std::remove(path.c_str());
    std::remove(log_path.c_str());

    MapRequest cold = baseRequest(/*seed=*/7);
    cold.problem.groupSize = 16;
    cold.search.sampleBudget = 2000;

    MapResponse cold_resp;
    {
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.storePath = path;
        MappingService service(cfg);
        cold_resp = service.submit(cold).get();
        EXPECT_FALSE(cold_resp.warmStart);
        service.stop();  // persists the store
    }

    {
        // Fresh "process": the store comes back from disk only.
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.storePath = path;
        MappingService service(cfg);
        EXPECT_EQ(service.store().size(), 1);

        MapRequest warm = cold;  // same workload spec, same seed
        warm.warmBudget = cold.search.sampleBudget / 4;
        MapResponse warm_resp = service.submit(warm).get();

        EXPECT_TRUE(warm_resp.warmStart);
        EXPECT_TRUE(warm_resp.exactHit);
        EXPECT_LE(warm_resp.samplesUsed, cold.search.sampleBudget / 4);
        // The transferred seed is the stored cold solution verbatim, so
        // refinement can only match or improve it.
        EXPECT_GE(warm_resp.bestFitness, cold_resp.bestFitness);
        EXPECT_GT(warm_resp.trf0Fitness, 0.0);
        service.stop();
    }
    std::remove(path.c_str());
    std::remove(log_path.c_str());
}

TEST(MappingService, Trf0ExcludesTheHeuristicMember)
{
    // Every transferred seed of a serialized stored solution (all jobs
    // on core 0) is worse than the Herald-like member the cascade adds.
    // Trf-0-ep measures the transferred seeds alone, so it stays below
    // the heuristic's fitness, which the search reaches one sample later.
    MapRequest r = baseRequest(/*seed=*/5);
    r.writeBack = false;
    auto problem = m3e::makeProblem(r.problem.task, r.problem.setting,
                                    r.problem.systemBwGbps,
                                    r.problem.groupSize,
                                    r.problem.workloadSeed);
    const sched::MappingEvaluator& eval = problem->evaluator();
    const double heuristic =
        eval.fitness(baselines::HeraldLike::buildMapping(eval));

    ServiceConfig cfg;
    cfg.workers = 1;
    MappingService service(cfg);
    sched::Mapping serial;
    serial.accelSel.assign(r.problem.groupSize, 0);
    for (int i = 0; i < r.problem.groupSize; ++i)
        serial.priority.push_back((i + 0.5) / r.problem.groupSize);
    service.store().update(serve::fingerprintOf(eval.group(), r.problem),
                           eval.group().task, serial, eval.group(),
                           eval.fitness(serial), 100);
    MapResponse resp = service.submit(r).get();
    service.stop();

    ASSERT_TRUE(resp.warmStart);
    EXPECT_TRUE(resp.exactHit);
    EXPECT_GT(resp.trf0Fitness, 0.0);
    EXPECT_LT(resp.trf0Fitness, heuristic);
    EXPECT_GE(resp.bestFitness, heuristic);
}

TEST(MappingService, StoppedStoreLogResumesOnNextWriteBack)
{
    // A failed append stops the store log (see
    // MappingStoreLog.FailedAppendLeavesReplayablePrefix). The next
    // write-back that finds it stopped must compact, which rewrites the
    // snapshot and restarts the log, so a crash after it loses nothing.
    const std::string snap = "serve_stopped_log_test.snap";
    const std::string log_path = snap + ".log";
    std::remove(snap.c_str());
    std::remove(log_path.c_str());
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.storePath = snap;
    MappingService service(cfg);
    service.submit(baseRequest(1)).get();

    // Room for part of the next record only, and for no snapshot of two
    // entries, so the compact that follows the failed append fails too.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit low = saved;
    low.rlim_cur = slurp(log_path).size() + 16;
    auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &low), 0);
    MapResponse limited = service.submit(baseRequest(2)).get();
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, old_handler);
    EXPECT_GT(limited.samplesUsed, 0);  // the request itself is served
    EXPECT_EQ(service.store().stats().logAppendFailures, 1);
    EXPECT_TRUE(service.store().logStopped());

    // The disk has room again: the next write-back resumes the log.
    service.submit(baseRequest(3)).get();
    EXPECT_FALSE(service.store().logStopped());
    EXPECT_EQ(service.store().size(), 3);
    MappingStore recovered;
    recovered.recover(snap, log_path);
    EXPECT_EQ(saveText(recovered), saveText(service.store()));
    service.stop();
    std::remove(snap.c_str());
    std::remove(log_path.c_str());
}

TEST(MappingService, ConcurrentTenantsCompoundStoreKnowledge)
{
    // Write-backs from concurrent lanes land in one shared store: after a
    // burst of same-task requests, later requests hit warm.
    ServiceConfig cfg;
    cfg.workers = 4;
    MappingService service(cfg);

    std::vector<std::future<MapResponse>> futures;
    for (uint64_t i = 0; i < 6; ++i) {
        MapRequest r = baseRequest(300 + i);
        r.tenant = "tenant-" + std::to_string(i % 2);
        futures.push_back(service.submit(std::move(r)));
    }
    for (auto& f : futures)
        f.get();
    service.drain();

    // Same distribution again: every request must now find the store
    // populated (exact or coarse tier).
    MapRequest again = baseRequest(999);
    MapResponse resp = service.submit(again).get();
    EXPECT_TRUE(resp.warmStart);
    EXPECT_LT(resp.samplesUsed, again.search.sampleBudget);

    serve::ServiceStats s = service.stats();
    EXPECT_EQ(s.served, 7);
    EXPECT_GT(s.warmServed, 0);
    EXPECT_GT(s.samplesSaved, 0);
    service.stop();
}

TEST(MappingService, HonorsSearchSpecMethodBitwise)
{
    // The request's SearchSpec.method selects the optimizer: a stdGA
    // request must reproduce the hand-wired stdGA search bitwise. A cold
    // served search starts from the Herald-like member alone.
    MapRequest r = baseRequest(/*seed=*/55);
    r.search.method = "std-ga";  // aliases resolve too
    r.search.warmStart = false;
    r.writeBack = false;

    ServiceConfig cfg;
    cfg.workers = 1;
    MappingService service(cfg);
    MapResponse resp = service.submit(r).get();
    service.stop();

    auto problem = m3e::makeProblem(r.problem.task, r.problem.setting,
                                    r.problem.systemBwGbps,
                                    r.problem.groupSize,
                                    r.problem.workloadSeed);
    auto optimizer =
        api::OptimizerRegistry::global().make("stdGA", r.search.seed);
    opt::SearchOptions opts;
    opts.sampleBudget = r.search.sampleBudget;
    opts.seeds = {baselines::HeraldLike::buildMapping(problem->evaluator())};
    opt::SearchResult manual =
        optimizer->search(exec::EvalEngine(problem->evaluator(), 1), opts);
    EXPECT_EQ(resp.best, manual.best);
    EXPECT_EQ(resp.bestFitness, manual.bestFitness);
    EXPECT_EQ(resp.samplesUsed, manual.samplesUsed);
}

TEST(MappingService, UnknownMethodFailsTheRequestFuture)
{
    MapRequest r = baseRequest(1);
    r.search.method = "MAGMAA";

    ServiceConfig cfg;
    cfg.workers = 1;
    MappingService service(cfg);
    auto future = service.submit(std::move(r));
    EXPECT_THROW(future.get(), std::invalid_argument);
    serve::ServiceStats s = service.stats();
    EXPECT_EQ(s.failed, 1);
    EXPECT_EQ(s.served, 0);
    service.stop();
}

TEST(MappingService, MultiObjectiveSpecFailsTheRequestFuture)
{
    // objectives= is an offline (api::Runner) feature: the serve
    // response carries one mapping, not a front, so the request must
    // fail loudly rather than silently run a scalar search.
    MapRequest r = baseRequest(1);
    r.search.method = "nsga2";
    r.search.objectives = {sched::Objective::Throughput,
                           sched::Objective::Energy};

    ServiceConfig cfg;
    cfg.workers = 1;
    MappingService service(cfg);
    auto future = service.submit(std::move(r));
    EXPECT_THROW(future.get(), std::invalid_argument);
    serve::ServiceStats s = service.stats();
    EXPECT_EQ(s.failed, 1);
    service.stop();
}

TEST(MapRequestDefaults, ColdBudgetStaysAtServeDefault)
{
    // The serve-side default must not silently inherit SearchSpec's
    // offline 10K budget (a 5x cost regression for default requests).
    MapRequest r;
    EXPECT_EQ(r.search.sampleBudget, 2000);
    EXPECT_EQ(r.search.method, "MAGMA");
    EXPECT_TRUE(r.search.warmStart);
}

TEST(MappingService, ExplicitGroupRequestAndStats)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    MappingService service(cfg);

    MapRequest r;
    r.group = makeGroup(dnn::TaskType::Vision, 10, 77);
    r.problem.task = dnn::TaskType::Vision;
    r.problem.setting = accel::Setting::S1;
    r.problem.systemBwGbps = 8.0;
    r.search.sampleBudget = 200;
    MapResponse resp = service.submit(r).get();
    EXPECT_EQ(resp.best.size(), 10);
    EXPECT_GT(resp.bestFitness, 0.0);
    EXPECT_FALSE(resp.fingerprint.empty());

    serve::ServiceStats s = service.stats();
    EXPECT_EQ(s.submitted, 1);
    EXPECT_EQ(s.served, 1);
    EXPECT_EQ(s.queueDepth, 0);
    service.stop();
    EXPECT_THROW(service.submit(r), std::runtime_error);
}

// ------------------------------------------------ production controls ---

namespace {

/** A pinned-down request for the coalescing/shedding tests: no store
 * interaction, small budget, everything deterministic. */
MapRequest
controlRequest(uint64_t seed, int priority = 0)
{
    MapRequest r = baseRequest(seed);
    r.priority = priority;
    r.search.sampleBudget = 60;
    r.search.warmStart = false;
    r.writeBack = false;
    return r;
}

}  // namespace

TEST(MappingService, CoalescesIdenticalInflightRequests)
{
    // N identical concurrent requests (differing only in seed and
    // tenant — neither reaches the coalescing key) run ONE search: the
    // first arrival leads, everyone else becomes a follower carrying the
    // leader's mapping bitwise.
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.autoStart = false;
    cfg.coalesce = true;
    MappingService service(cfg);

    const int kN = 4;
    std::vector<std::future<MapResponse>> futures;
    for (int i = 0; i < kN; ++i) {
        MapRequest r = controlRequest(/*seed=*/400);  // same workload
        r.search.seed = 400 + i;  // the leader's seed wins
        r.tenant = "tenant-" + std::to_string(i % 2);
        futures.push_back(service.submit(std::move(r)));
    }
    service.start();

    std::vector<MapResponse> got;
    for (auto& f : futures)
        got.push_back(f.get());
    service.stop();

    EXPECT_FALSE(got[0].coalesced) << "first arrival must lead";
    int followers = 0;
    for (const MapResponse& r : got) {
        if (!r.coalesced)
            continue;
        ++followers;
        EXPECT_EQ(r.best, got[0].best);  // bitwise the leader's mapping
        EXPECT_EQ(r.bestFitness, got[0].bestFitness);
        EXPECT_EQ(r.samplesUsed, 0);  // followers spend nothing
    }
    EXPECT_EQ(followers, kN - 1);

    serve::ServiceStats s = service.stats();
    EXPECT_EQ(s.submitted, kN);
    EXPECT_EQ(s.served, kN);
    EXPECT_EQ(s.coalesced, kN - 1);
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.samplesSpent, got[0].samplesUsed);  // one search total

    // Coalescing changes cost, not answers: the leader's result is the
    // plain single-request result for its seed.
    std::vector<MapResponse> serial =
        serveSerially({controlRequest(400)});
    EXPECT_EQ(got[0].best, serial[0].best);
    EXPECT_EQ(got[0].bestFitness, serial[0].bestFitness);
    EXPECT_EQ(got[0].samplesUsed, serial[0].samplesUsed);
}

TEST(MappingService, GlobalQueueBoundShedsOldestLowestPriority)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.autoStart = false;
    cfg.maxQueueDepth = 2;
    MappingService service(cfg);

    auto f0 = service.submit(controlRequest(500, /*priority=*/1));
    auto f1 = service.submit(controlRequest(501, /*priority=*/1));
    auto f2 = service.submit(controlRequest(502, /*priority=*/0));

    // The third submission overflows the bound; the oldest request of
    // the lowest-priority level (f0) is shed — its future resolves
    // immediately, before any worker runs.
    MapResponse shed = f0.get();
    EXPECT_TRUE(shed.shed);
    EXPECT_EQ(shed.samplesUsed, 0);

    service.start();
    EXPECT_FALSE(f1.get().shed);
    EXPECT_FALSE(f2.get().shed);
    service.stop();

    serve::ServiceStats s = service.stats();
    EXPECT_EQ(s.submitted, 3);
    EXPECT_EQ(s.shed, 1);
    EXPECT_EQ(s.served, 2);
}

TEST(MappingService, IncomingRequestShedWhenItIsTheLowestPriority)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.autoStart = false;
    cfg.maxQueueDepth = 1;
    MappingService service(cfg);

    auto f0 = service.submit(controlRequest(510, /*priority=*/0));
    auto f1 = service.submit(controlRequest(511, /*priority=*/1));

    // Nothing waiting is as low-priority as the overflow arrival, so the
    // arrival itself is shed rather than anything already admitted.
    EXPECT_TRUE(f1.get().shed);
    service.start();
    EXPECT_FALSE(f0.get().shed);
    service.stop();
    EXPECT_EQ(service.stats().shed, 1);
}

TEST(MappingService, PerPriorityLimitShedsOldestInLevelFreshestWins)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.autoStart = false;
    cfg.priorityDepthLimits[1] = 1;
    MappingService service(cfg);

    auto a = service.submit(controlRequest(520, /*priority=*/1));
    auto b = service.submit(controlRequest(521, /*priority=*/1));
    // Level 1 was full, so b's arrival sheds the oldest level-1 request
    // (a): within a level the freshest request wins.
    EXPECT_TRUE(a.get().shed);

    // Levels without a configured limit are unbounded.
    auto c = service.submit(controlRequest(522, /*priority=*/0));
    auto d = service.submit(controlRequest(523, /*priority=*/0));

    service.start();
    EXPECT_FALSE(b.get().shed);
    EXPECT_FALSE(c.get().shed);
    EXPECT_FALSE(d.get().shed);
    service.stop();

    serve::ServiceStats s = service.stats();
    EXPECT_EQ(s.shed, 1);
    EXPECT_EQ(s.served, 3);
}

TEST(MappingService, ShedLeaderCascadesToFollowers)
{
    // A follower holds no queue slot but shares its leader's fate: when
    // admission control sheds the leader, every follower is shed too.
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.autoStart = false;
    cfg.coalesce = true;
    cfg.maxQueueDepth = 1;
    MappingService service(cfg);

    MapRequest leader = controlRequest(530, /*priority=*/1);
    MapRequest follower = leader;  // identical: coalesces onto the leader
    auto fl = service.submit(std::move(leader));
    auto ff = service.submit(std::move(follower));

    // One queue slot used (the follower doesn't occupy one); a
    // higher-priority arrival overflows the bound and sheds the leader —
    // and with it the follower.
    auto fv = service.submit(controlRequest(531, /*priority=*/0));
    EXPECT_TRUE(fl.get().shed);
    EXPECT_TRUE(ff.get().shed);

    service.start();
    EXPECT_FALSE(fv.get().shed);
    service.stop();

    serve::ServiceStats s = service.stats();
    EXPECT_EQ(s.submitted, 3);
    EXPECT_EQ(s.shed, 2);
    EXPECT_EQ(s.served, 1);
}

TEST(MappingService, DeadlineExpiredRequestsShedAtDequeue)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.autoStart = false;
    MappingService service(cfg);

    MapRequest stale = controlRequest(540);
    stale.deadlineSeconds = 1e-6;  // expires while waiting for start()
    MapRequest fresh = controlRequest(541);  // no deadline: never sheds
    auto fs = service.submit(std::move(stale));
    auto ff = service.submit(std::move(fresh));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.start();

    MapResponse rs = fs.get();
    EXPECT_TRUE(rs.shed);
    EXPECT_GT(rs.waitSeconds, 0.0);
    EXPECT_FALSE(ff.get().shed);
    service.stop();

    serve::ServiceStats s = service.stats();
    EXPECT_EQ(s.shed, 1);
    EXPECT_EQ(s.served, 1);
}
