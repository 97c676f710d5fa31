/**
 * @file Golden pins: fixed-seed search outcomes recorded as literal
 * values. Every other determinism test compares two runs of the current
 * build with each other; these compare against numbers captured once, so
 * a change to an RNG stream, an operator's draw order or an evaluation's
 * floating-point order shows up here even when it is self-consistent.
 *
 * A deliberate re-baseline (a documented change of streams or FP order)
 * updates the literals below; the failure messages print the new values
 * in the table's own format.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "api/runner.h"
#include "api/spec.h"
#include "dyn/engine.h"
#include "dyn/runner.h"
#include "dyn/trace.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "mo/nsga2.h"
#include "mo/pareto.h"
#include "serve/fingerprint.h"
#include "serve/mapping_store.h"
#include "serve/service.h"

using namespace magma;

namespace {

uint64_t
fnv1a64(const std::string& s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
bitsOf(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::unique_ptr<m3e::Problem>
goldenProblem()
{
    return m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0, 16,
                            11);
}

struct Pin {
    const char* method;
    int64_t budget;
    uint64_t fitnessBits;  ///< SearchResult::bestFitness, bit pattern
    uint64_t bestHash;     ///< fnv1a64(SearchResult::best.toText())
};

// Every registered method that draws from common::Rng. RL agents run at
// a tiny budget to keep the suite fast.
const Pin kPins[] = {
    {"MAGMA", 400, 0x408b8176b45a62d5ull, 0xc6c5be5804e15ab8ull},
    {"stdGA", 400, 0x408b8176b45a62d0ull, 0xdf9493fbc9d31b8bull},
    {"DE", 400, 0x408b8152e1a61d66ull, 0xc8926850698a8b4bull},
    {"PSO", 400, 0x408b8176b45a62caull, 0x7ad85f6cb0e278f0ull},
    {"CMA", 400, 0x408b8176b45a62d0ull, 0x265e036731160c14ull},
    {"TBPSA", 400, 0x408b8176b45a62ccull, 0x275cf7798bbfe79aull},
    {"Random", 400, 0x408b813f493c6554ull, 0x4563b98d7060cdd8ull},
    {"NSGA-II", 400, 0x408b8176b45a62d0ull, 0x0f4ee587f9ee4da8ull},
    {"RL A2C", 48, 0x4089ad70d36315cfull, 0xe2e18d9fe0c35e1aull},
    {"RL PPO2", 48, 0x4089b5bce2d20e22ull, 0x46cc2657fd3d134cull},
};

constexpr uint64_t kSeed = 2024;

}  // namespace

TEST(Golden, SearchResultsPinned)
{
    auto p = goldenProblem();
    for (const Pin& pin : kPins) {
        auto opt = api::OptimizerRegistry::global().make(pin.method, kSeed);
        opt::SearchOptions opts;
        opts.sampleBudget = pin.budget;
        opt::SearchResult r =
            opt->search(exec::EvalEngine(p->evaluator(), 1), opts);
        uint64_t fb = bitsOf(r.bestFitness);
        uint64_t bh = fnv1a64(r.best.toText());
        EXPECT_EQ(r.samplesUsed, pin.budget) << pin.method;
        EXPECT_TRUE(fb == pin.fitnessBits && bh == pin.bestHash)
            << "actual: {\"" << pin.method << "\", " << pin.budget << ", "
            << hex(fb) << ", " << hex(bh) << "},";
    }
}

TEST(Golden, Nsga2FrontPinned)
{
    auto p = goldenProblem();
    mo::Nsga2 nsga(kSeed);
    opt::SearchOptions opts;
    opts.sampleBudget = 400;
    mo::MoSearchResult r = nsga.searchMo(
        exec::EvalEngine(p->evaluator(), 1),
        {sched::Objective::Throughput, sched::Objective::Energy}, opts);
    uint64_t h = fnv1a64(r.front.toText());
    EXPECT_EQ(r.samplesUsed, 400);
    EXPECT_EQ(h, 0xe0397bf5b0bd7852ull) << "actual: " << hex(h);
}

TEST(Golden, RunnerParetoReportPinned)
{
    // goldenProblem()'s spec through api::Runner's Pareto path: the
    // front, the member it reports as best and the samples it spent.
    api::ProblemSpec ps;
    ps.task = dnn::TaskType::Mix;
    ps.setting = accel::Setting::S2;
    ps.systemBwGbps = 4.0;
    ps.groupSize = 16;
    ps.workloadSeed = 11;
    api::SearchSpec ss;
    ss.method = "nsga2";
    ss.objectives = {sched::Objective::Throughput, sched::Objective::Energy};
    ss.sampleBudget = 400;
    ss.seed = kSeed;
    for (int threads : {1, 2}) {
        ss.threads = threads;
        api::RunReport r = api::Runner().run(ps, ss);
        ASSERT_FALSE(r.front.empty());
        EXPECT_EQ(r.samplesUsed, 400);
        std::string digest;
        for (const mo::MoPoint& p : r.front)
            digest += p.toText() + "\n";
        digest += r.best.toText();
        digest += " fitness=" + hex(bitsOf(r.bestFitness));
        digest += " samples=" + std::to_string(r.samplesUsed);
        uint64_t h = fnv1a64(digest);
        EXPECT_EQ(h, 0xde438fb73ec35b9eull)
            << "threads " << threads << " actual: " << hex(h);
    }
}

namespace {

dyn::WorkloadTrace
goldenTrace()
{
    dyn::WorkloadTrace trace;
    trace.base.task = dnn::TaskType::Mix;
    trace.base.setting = accel::Setting::S2;
    trace.base.systemBwGbps = 8.0;
    trace.base.groupSize = 8;
    for (const char* line :
         {"t=0 kind=arrive task=Vision jobs=6 seed=11 name=a",
          "t=0.5 kind=arrive task=Lang jobs=5 seed=12 name=b",
          "t=1 kind=swap task=Lang jobs=5 seed=13 name=b",
          "t=1.5 kind=depart name=a"})
        trace.events.push_back(dyn::WorkloadEvent::fromText(line));
    trace.validate();
    return trace;
}

dyn::DynConfig
goldenDynConfig()
{
    dyn::DynConfig cfg;
    cfg.search.sampleBudget = 160;
    cfg.search.seed = 5;
    return cfg;
}

/** The replay's stdout form: one eventLine per event plus the summary. */
std::string
replayDigest(const dyn::DynResult& r)
{
    std::string digest;
    for (size_t i = 0; i < r.records.size(); ++i)
        digest += dyn::eventLine(static_cast<int64_t>(i), r.records[i]) +
                  "\n";
    digest += dyn::summaryLine(r) + "\n";
    return digest;
}

/** Random mappings with the given job counts on 4 cores, as mutually
 * non-dominated archive members (throughput rises as energy falls). */
mo::ParetoArchive
goldenArchive(const std::vector<int>& job_counts, uint64_t seed)
{
    const std::vector<sched::Objective> objectives = {
        sched::Objective::Throughput, sched::Objective::Energy};
    mo::ParetoArchive archive(objectives);
    common::Rng rng(seed);
    double rank = 0.0;
    for (int jobs : job_counts) {
        mo::MoPoint p;
        p.m = sched::Mapping::random(jobs, 4, rng);
        p.objs = {10.0 + rank, 10.0 - rank};
        EXPECT_TRUE(archive.insert(p));
        rank += 1.0;
    }
    return archive;
}

}  // namespace

TEST(Golden, DynReplayPinned)
{
    dyn::EventEngine engine(goldenDynConfig());
    std::string digest = replayDigest(engine.replay(goldenTrace()));
    uint64_t h = fnv1a64(digest);
    EXPECT_EQ(h, 0xd2d03e4b1e12ba2cull)
        << "actual: " << hex(h) << "\n"
        << digest;
}

TEST(Golden, DynStoreSeededReplayPinned)
{
    // The first replay writes its solutions back; the second starts with
    // no running mapping, so its first event takes the store tier.
    serve::MappingStore store;
    dyn::DynConfig cfg = goldenDynConfig();
    cfg.store = &store;
    dyn::EventEngine(cfg).replay(goldenTrace());
    dyn::DynResult r = dyn::EventEngine(cfg).replay(goldenTrace());
    ASSERT_EQ(dyn::RemapSource::Store, r.records[0].source);
    std::ostringstream saved;
    store.save(saved);
    std::string digest = replayDigest(r) + saved.str();
    uint64_t h = fnv1a64(digest);
    EXPECT_EQ(h, 0xb5d121a645cb9ab9ull)
        << "actual: " << hex(h) << "\n"
        << digest;
}

TEST(Golden, DynArchiveSeededReplayPinned)
{
    // Three members against a 6-job first event: positional tiling plus
    // the round-robin mutated top-up to the population of 8.
    mo::ParetoArchive archive = goldenArchive({4, 5, 6}, 21);
    dyn::DynConfig cfg = goldenDynConfig();
    cfg.archive = &archive;
    dyn::DynResult r = dyn::EventEngine(cfg).replay(goldenTrace());
    ASSERT_EQ(dyn::RemapSource::Archive, r.records[0].source);
    std::string digest = replayDigest(r);
    uint64_t h = fnv1a64(digest);
    EXPECT_EQ(h, 0x58af75087eccc60eull)
        << "actual: " << hex(h) << "\n"
        << digest;
}

namespace {

serve::MapRequest
goldenRequest()
{
    serve::MapRequest req;
    req.problem.task = dnn::TaskType::Mix;
    req.problem.setting = accel::Setting::S2;
    req.problem.systemBwGbps = 4.0;
    req.problem.groupSize = 12;
    req.problem.workloadSeed = 31;
    req.search.sampleBudget = 240;
    req.search.seed = 9;
    req.writeBack = false;
    return req;
}

/** A solved-looking entry for a different 10-job Mix group on the same
 * platform: the golden request hits it on the coarse tier. */
void
seedStore(serve::MappingStore& store, bool with_group)
{
    dnn::WorkloadGenerator gen(32);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Mix, 10);
    common::Rng rng(17);
    sched::Mapping m = sched::Mapping::random(group.size(), 4, rng);
    serve::Fingerprint fp =
        serve::fingerprintOf(group, goldenRequest().problem);
    dnn::JobGroup stored = with_group ? group : dnn::JobGroup{};
    store.update(fp, group.task, m, stored, 50.0, 100);
}

std::string
responseDigest(const serve::MapResponse& r)
{
    std::string d = r.best.toText();
    d += " fitness=" + hex(bitsOf(r.bestFitness));
    d += " samples=" + std::to_string(r.samplesUsed);
    d += " trf0=" + hex(bitsOf(r.trf0Fitness));
    return d;
}

/** What the service holds before the golden request arrives. */
enum class Prior { Empty, JobMatched, Groupless, Archive };

/** The golden request's response digest hash, served on a lane of
 * `threads` evaluation lanes; every result field must not depend on it. */
uint64_t
servedHash(Prior prior, int threads)
{
    // Five 8-job members for a 12-job request: tiled positionally and
    // topped up round-robin to the population of 12.
    mo::ParetoArchive archive = goldenArchive({8, 8, 8, 8, 8}, 23);
    serve::ServiceConfig cfg;
    cfg.threadsPerRequest = threads;
    if (prior == Prior::Archive)
        cfg.archive = &archive;
    serve::MappingService service(cfg);
    if (prior == Prior::JobMatched || prior == Prior::Groupless)
        seedStore(service.store(), prior == Prior::JobMatched);
    serve::MapResponse r = service.submit(goldenRequest()).get();
    EXPECT_EQ(prior == Prior::JobMatched || prior == Prior::Groupless,
              r.warmStart);
    EXPECT_FALSE(r.exactHit);
    EXPECT_EQ(prior == Prior::Archive, r.archiveSeeded);
    return fnv1a64(responseDigest(r));
}

}  // namespace

TEST(Golden, ServedJobMatchedStoreHitPinned)
{
    for (int threads : {1, 2}) {
        uint64_t h = servedHash(Prior::JobMatched, threads);
        EXPECT_EQ(h, 0xadd083c455481166ull)
            << "threads " << threads << " actual: " << hex(h);
    }
}

TEST(Golden, ServedGrouplessStoreHitPinned)
{
    for (int threads : {1, 2}) {
        uint64_t h = servedHash(Prior::Groupless, threads);
        EXPECT_EQ(h, 0x6ea1606de64cae6eull)
            << "threads " << threads << " actual: " << hex(h);
    }
}

TEST(Golden, ServedArchiveSeededPinned)
{
    for (int threads : {1, 2}) {
        uint64_t h = servedHash(Prior::Archive, threads);
        EXPECT_EQ(h, 0x05d4c85355d8c8e4ull)
            << "threads " << threads << " actual: " << hex(h);
    }
}

TEST(Golden, ServedColdPinned)
{
    // An empty store and no archive: the Herald-like member is the only
    // seed of a full-budget search.
    for (int threads : {1, 2}) {
        uint64_t h = servedHash(Prior::Empty, threads);
        EXPECT_EQ(h, 0xa14d3b4983195bc3ull)
            << "threads " << threads << " actual: " << hex(h);
    }
}
