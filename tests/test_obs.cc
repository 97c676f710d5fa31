/**
 * @file Tests for the observability subsystem (src/obs/): histogram
 * quantile edge cases (empty, single sample, saturated top bucket,
 * underflow bucket, shard merges), level parsing, registry identity and
 * thread-safety, tracer drain ordering and ring-overflow accounting,
 * which sinks an obs::Scope feeds at each level, snapshot JSON
 * round-trips under randomized (escape-hostile) metric names,
 * Chrome-trace export round-trips (hostile names, dropped-count
 * metadata, empty traces), hierarchical-profiler tree merges across
 * threads, the pinned span and profile shape of a search, a served
 * request and a dyn replay, and the invariant the whole subsystem is
 * built around: fixed-seed search results are bitwise identical whether
 * observability is off, at full trace, or at profile.
 */

#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dyn/engine.h"
#include "dyn/trace.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/scope.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "opt/magma_ga.h"
#include "serve/service.h"

using namespace magma;
using obs::Histogram;
using obs::MetricsLevel;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::SnapshotWriter;
using obs::TraceEvent;
using obs::Tracer;

namespace {

/** Restore the process metrics level on scope exit. */
class LevelGuard {
  public:
    LevelGuard() : saved_(obs::metricsLevel()) {}
    ~LevelGuard() { obs::setMetricsLevel(saved_); }

  private:
    MetricsLevel saved_;
};

}  // namespace

// -------------------------------------------------- level names ---

TEST(MetricsLevel, NamesRoundTrip)
{
    for (MetricsLevel l :
         {MetricsLevel::Off, MetricsLevel::Counters, MetricsLevel::Trace,
          MetricsLevel::Profile}) {
        EXPECT_EQ(obs::metricsLevelFromName(obs::metricsLevelName(l)), l);
    }
    EXPECT_THROW(obs::metricsLevelFromName("verbose"),
                 std::invalid_argument);
    EXPECT_THROW(obs::metricsLevelFromName(""), std::invalid_argument);
}

TEST(MetricsLevel, PredicatesFollowTheProcessLevel)
{
    LevelGuard guard;
    obs::setMetricsLevel(MetricsLevel::Off);
    EXPECT_FALSE(obs::countersOn());
    EXPECT_FALSE(obs::traceOn());
    obs::setMetricsLevel(MetricsLevel::Counters);
    EXPECT_TRUE(obs::countersOn());
    EXPECT_FALSE(obs::traceOn());
}

// ---------------------------------------------- histogram edges ---

TEST(Histogram, EmptyAnswersZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.0), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(1.0), 0.0);
    EXPECT_TRUE(h.buckets().empty());
}

TEST(Histogram, SingleSampleIsExactEverywhere)
{
    Histogram h;
    h.record(0.0375);
    EXPECT_EQ(h.count(), 1);
    EXPECT_EQ(h.min(), 0.0375);
    EXPECT_EQ(h.max(), 0.0375);
    // One sample: every quantile must return the sample exactly, not a
    // bucket midpoint.
    for (double q : {0.0, 0.01, 0.5, 0.99, 1.0})
        EXPECT_EQ(h.quantile(q), 0.0375);
}

TEST(Histogram, SaturatedTopBucketNeverFabricates)
{
    Histogram h;
    // Beyond the 2^64 octave range: both saturate into the top bucket.
    h.record(1e300);
    h.record(5e299);
    EXPECT_EQ(h.count(), 2);
    EXPECT_EQ(h.max(), 1e300);
    EXPECT_EQ(h.min(), 5e299);
    // The top bucket's midpoint is ~2^64; answering it would fabricate a
    // value 236 orders of magnitude off. The walk must fall back to the
    // exact extremes instead.
    EXPECT_EQ(h.quantile(1.0), 1e300);
    EXPECT_LE(h.quantile(0.9), 1e300);
    EXPECT_GE(h.quantile(0.1), 5e299);
}

TEST(Histogram, NonPositiveAndNonFiniteLandInUnderflowBucket)
{
    Histogram h;
    h.record(0.0);
    h.record(-3.5);
    h.record(std::numeric_limits<double>::quiet_NaN());
    h.record(std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.count(), 4);
    obs::HistogramBuckets b = h.buckets();
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].first, 0);  // the dedicated underflow bucket
    EXPECT_EQ(b[0].second, 4u);
}

TEST(Histogram, QuantileRelativeAccuracy)
{
    // Uniform grid: the exact quantile is known, the histogram answer
    // must be within the documented ~1/kSubBuckets relative error.
    Histogram h;
    const int n = 10000;
    std::vector<double> values;
    for (int i = 1; i <= n; ++i) {
        double v = 1e-3 * i;
        h.record(v);
        values.push_back(v);
    }
    for (double q : {0.10, 0.50, 0.90, 0.99}) {
        double exact = values[static_cast<size_t>(q * (n - 1))];
        double got = h.quantile(q);
        EXPECT_NEAR(got, exact, exact * 0.04)
            << "q=" << q << " exact=" << exact << " got=" << got;
    }
    EXPECT_EQ(h.quantile(0.0), 1e-3);      // exact min
    EXPECT_EQ(h.quantile(1.0), 1e-3 * n);  // exact max
}

TEST(Histogram, BucketIndexCoversDynamicRange)
{
    for (double v : {1e-18, 1e-6, 0.5, 1.0, 3.0, 1e6, 1e18}) {
        int idx = Histogram::bucketIndex(v);
        ASSERT_GT(idx, 0);
        ASSERT_LT(idx, Histogram::kNumBuckets);
        // The representative midpoint stays within one sub-bucket width.
        EXPECT_NEAR(Histogram::bucketValue(idx), v, v / Histogram::kSubBuckets)
            << "v=" << v;
    }
    EXPECT_EQ(Histogram::bucketIndex(-1.0), 0);
    EXPECT_EQ(Histogram::bucketIndex(0.0), 0);
}

// ----------------------------------------------------- registry ---

TEST(MetricsRegistry, SameNameSameObject)
{
    MetricsRegistry reg;
    EXPECT_EQ(&reg.counter("a.b"), &reg.counter("a.b"));
    EXPECT_EQ(&reg.gauge("a.b"), &reg.gauge("a.b"));
    EXPECT_EQ(&reg.histogram("a.b"), &reg.histogram("a.b"));
    // Kinds have independent namespaces.
    EXPECT_NE(static_cast<void*>(&reg.counter("a.b")),
              static_cast<void*>(&reg.gauge("a.b")));
    EXPECT_EQ(reg.findCounter("missing"), nullptr);
    EXPECT_EQ(reg.findGauge("missing"), nullptr);
    EXPECT_EQ(reg.findHistogram("missing"), nullptr);
}

TEST(MetricsRegistry, ConcurrentRecordingLosesNothing)
{
    MetricsRegistry reg;
    obs::Counter& c = reg.counter("t.count");
    obs::Histogram& h = reg.histogram("t.hist");
    const int threads = 4, per_thread = 20000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (int i = 0; i < per_thread; ++i) {
                c.add(1);
                h.record(1.0 + t);
            }
        });
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(c.value(), int64_t{threads} * per_thread);
    EXPECT_EQ(h.count(), int64_t{threads} * per_thread);
    EXPECT_EQ(h.min(), 1.0);
    EXPECT_EQ(h.max(), 4.0);
}

TEST(MetricsRegistry, GaugeProvidersRunBeforeVisit)
{
    MetricsRegistry reg;
    int runs = 0;
    reg.addGaugeProvider([&runs](MetricsRegistry& r) {
        r.gauge("pull.value").set(++runs);
    });
    MetricsSnapshot snap = SnapshotWriter::capture("test", reg);
    const obs::GaugeSnap* g = snap.findGauge("pull.value");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->value, 1.0);
    snap = SnapshotWriter::capture("test", reg);
    EXPECT_EQ(snap.findGauge("pull.value")->value, 2.0);
}

// ------------------------------------------------------- tracer ---

TEST(Tracer, DrainMergesInStartOrderAndCountsDrops)
{
    LevelGuard guard;
    obs::setMetricsLevel(MetricsLevel::Trace);
    Tracer& tracer = Tracer::global();
    tracer.drain();  // clear anything earlier tests traced

    // Overflow one thread's ring: capacity + extra events.
    const size_t extra = 100;
    for (size_t i = 0; i < Tracer::kRingCapacity + extra; ++i)
        obs::traceInstant("t.overflow", static_cast<int64_t>(i));
    // A second thread contributes its own ring.
    std::thread([] {
        for (int i = 0; i < 10; ++i)
            obs::traceInstant("t.other", i);
    }).join();

    int64_t dropped = -1;
    std::vector<TraceEvent> events = tracer.drain(&dropped);
    EXPECT_EQ(dropped, static_cast<int64_t>(extra));
    EXPECT_EQ(events.size(), Tracer::kRingCapacity + 10);
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].startSeconds, events[i].startSeconds);
    // The oldest `extra` events were overwritten: the survivors on the
    // overflowed ring start at index `extra`.
    int64_t min_overflow_i = std::numeric_limits<int64_t>::max();
    for (const TraceEvent& e : events)
        if (e.name == "t.overflow")
            min_overflow_i = std::min(min_overflow_i, e.i);
    EXPECT_EQ(min_overflow_i, static_cast<int64_t>(extra));

    // Drain clears: a second drain is empty with zero drops.
    dropped = -1;
    EXPECT_TRUE(tracer.drain(&dropped).empty());
    EXPECT_EQ(dropped, 0);
}

// -------------------------------------------------------- scope ---

class ScopeAtLevel : public ::testing::TestWithParam<MetricsLevel> {};

// One obs::Scope feeds both sinks, each from its own level: a span scope
// records a span from trace up, every scope a profile node at profile,
// and below its level a scope records nothing anywhere.
TEST_P(ScopeAtLevel, RecordsIntoTheSinksItsLevelEnables)
{
    const MetricsLevel level = GetParam();
    LevelGuard guard;
    obs::setMetricsLevel(level);
    Tracer::global().drain();
    obs::Profiler::global().reset();
    {
        // span payload: i/a/b exercise the setters
        obs::Scope span("s.span", 7);
        span.payload(1.0, 2.0);
        span.setIndex(8);
        obs::Scope profile_only("s.profile_only");
    }
    obs::traceInstant("s.instant", 1);

    std::vector<TraceEvent> events = Tracer::global().drain();
    std::vector<obs::ProfileRow> rows = obs::Profiler::global().rows();
    obs::Profiler::global().reset();
    if (level < MetricsLevel::Trace) {
        EXPECT_TRUE(events.empty());
        EXPECT_TRUE(rows.empty());
        return;
    }
    // The profile-only scope never records a span.
    ASSERT_EQ(events.size(), 2u);
    const TraceEvent& span = events[0];
    EXPECT_EQ(span.name, "s.span");
    EXPECT_EQ(span.i, 8);
    EXPECT_EQ(span.a, 1.0);
    EXPECT_EQ(span.b, 2.0);
    EXPECT_GE(span.durSeconds, 0.0);
    EXPECT_EQ(events[1].name, "s.instant");
    if (level == MetricsLevel::Trace) {
        EXPECT_TRUE(rows.empty());
        return;
    }
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].path, "s.span");
    EXPECT_EQ(rows[0].count, 1);
    EXPECT_EQ(rows[1].path, "s.span/s.profile_only");
    EXPECT_EQ(rows[1].count, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Levels, ScopeAtLevel,
    ::testing::Values(MetricsLevel::Off, MetricsLevel::Counters,
                      MetricsLevel::Trace, MetricsLevel::Profile),
    [](const ::testing::TestParamInfo<MetricsLevel>& level) {
        return obs::metricsLevelName(level.param);
    });

// --------------------------------------------- snapshot round-trip ---

namespace {

/** A name that stresses JSON escaping: quotes, backslashes, newlines,
 * control chars, and high-bit bytes. */
std::string
hostileName(common::Rng& rng, int salt)
{
    static const char kAlphabet[] =
        "abcXYZ019._-\"\\\n\t\r\x01\x1f{}[]:,/ \xc3\xa9";
    std::string name = "m" + std::to_string(salt) + ".";
    int len = 1 + rng.uniformInt(12);
    for (int i = 0; i < len; ++i)
        name += kAlphabet[rng.uniformInt(sizeof(kAlphabet) - 1)];
    return name;
}

double
hostileDouble(common::Rng& rng)
{
    switch (rng.uniformInt(6)) {
    case 0: return 0.1 + 0.2;
    case 1: return 1e-317;  // subnormal
    case 2: return -1.0 / 3.0;
    // NaN is the one non-finite that round-trips (null <-> NaN); +/-inf
    // collapses to NaN by design, so it lives in its own test below.
    case 3: return std::numeric_limits<double>::quiet_NaN();
    case 4: return 1.7e308;
    default: return rng.uniform() * 1e6 - 5e5;
    }
}

}  // namespace

TEST(MetricsSnapshot, RoundTripsUnderRandomizedHostileNames)
{
    common::Rng rng(2026);
    for (int trial = 0; trial < 25; ++trial) {
        MetricsSnapshot snap;
        snap.source = hostileName(rng, trial);
        snap.level = trial % 2 ? MetricsLevel::Trace : MetricsLevel::Off;
        int salt = 0;
        for (int i = 0; i < 1 + rng.uniformInt(4); ++i)
            snap.counters.push_back(
                {hostileName(rng, ++salt),
                 static_cast<int64_t>(rng.engine()())});
        for (int i = 0; i < 1 + rng.uniformInt(4); ++i)
            snap.gauges.push_back(
                {hostileName(rng, ++salt), hostileDouble(rng)});
        for (int i = 0; i < 1 + rng.uniformInt(3); ++i) {
            obs::HistogramSnap h;
            h.name = hostileName(rng, ++salt);
            h.count = 3;
            h.sum = hostileDouble(rng);
            h.min = 0.5;
            h.max = 2.0;
            h.buckets = {{0, 1},
                         {Histogram::bucketIndex(1.0), 2}};
            snap.histograms.push_back(std::move(h));
        }
        for (int i = 0; i < rng.uniformInt(5); ++i) {
            TraceEvent e;
            e.name = hostileName(rng, ++salt);
            e.startSeconds = rng.uniform();
            e.durSeconds = hostileDouble(rng);
            e.thread = rng.uniformInt(8);
            e.i = static_cast<int64_t>(rng.engine()());
            e.a = hostileDouble(rng);
            e.b = rng.uniform();
            snap.spans.push_back(std::move(e));
        }
        snap.spansDropped = rng.uniformInt(10);

        std::string text = snap.toJson();
        MetricsSnapshot back = MetricsSnapshot::fromJson(text);
        EXPECT_EQ(back, snap) << "trial " << trial << "\n" << text;
        // And the text itself is a fixed point.
        EXPECT_EQ(back.toJson(), text);
    }
}

TEST(MetricsSnapshot, NonFiniteDoublesCollapseToNaN)
{
    MetricsSnapshot snap;
    snap.source = "nonfinite";
    snap.gauges.push_back(
        {"g.inf", std::numeric_limits<double>::infinity()});
    snap.gauges.push_back(
        {"g.ninf", -std::numeric_limits<double>::infinity()});
    snap.gauges.push_back(
        {"g.nan", std::numeric_limits<double>::quiet_NaN()});
    MetricsSnapshot back = MetricsSnapshot::fromJson(snap.toJson());
    ASSERT_EQ(back.gauges.size(), 3u);
    for (const obs::GaugeSnap& g : back.gauges)
        EXPECT_TRUE(std::isnan(g.value)) << g.name;
    // A second trip is lossless: null <-> NaN is the fixed point.
    EXPECT_EQ(MetricsSnapshot::fromJson(back.toJson()), back);
}

TEST(MetricsSnapshot, ParserRejectsMalformedInput)
{
    EXPECT_THROW(MetricsSnapshot::fromJson(""), std::invalid_argument);
    EXPECT_THROW(MetricsSnapshot::fromJson("{}"), std::invalid_argument);
    EXPECT_THROW(MetricsSnapshot::fromJson("{\"schema\": 99}"),
                 std::invalid_argument);
    MetricsSnapshot snap;
    snap.source = "x";
    std::string good = snap.toJson();
    EXPECT_THROW(
        MetricsSnapshot::fromJson(good.substr(0, good.size() - 2)),
        std::invalid_argument);
}

TEST(MetricsSnapshot, CapturedQuantilesSurviveRoundTrip)
{
    MetricsRegistry reg;
    obs::Histogram& h = reg.histogram("rt.latency");
    common::Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        h.record(std::exp(rng.uniform() * 10.0 - 5.0));
    MetricsSnapshot snap = SnapshotWriter::capture("test", reg);
    MetricsSnapshot back = MetricsSnapshot::fromJson(snap.toJson());
    const obs::HistogramSnap* live = snap.findHistogram("rt.latency");
    const obs::HistogramSnap* parsed = back.findHistogram("rt.latency");
    ASSERT_NE(live, nullptr);
    ASSERT_NE(parsed, nullptr);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(parsed->quantile(q), live->quantile(q)) << "q=" << q;
    EXPECT_EQ(parsed->quantile(0.5), h.quantile(0.5));
}

// ----------------------------------- the determinism invariant ---

TEST(Observability, FixedSeedSearchBitwiseIdenticalOffVsTrace)
{
    LevelGuard guard;
    auto run = [](MetricsLevel level) {
        obs::setMetricsLevel(level);
        auto problem = m3e::makeProblem(dnn::TaskType::Mix,
                                        accel::Setting::S2, 4.0, 12, 9);
        opt::MagmaGa ga(9);
        opt::SearchOptions opts;
        opts.sampleBudget = 400;
        opt::SearchResult r =
            ga.search(exec::EvalEngine(problem->evaluator(), 1), opts);
        Tracer::global().drain();  // don't leak spans into later tests
        return r;
    };
    opt::SearchResult off = run(MetricsLevel::Off);
    opt::SearchResult trace = run(MetricsLevel::Trace);
    EXPECT_EQ(off.bestFitness, trace.bestFitness);  // bitwise
    EXPECT_EQ(off.best, trace.best);
    EXPECT_EQ(off.samplesUsed, trace.samplesUsed);
}

// ------------------------------------------- serve integration ---

TEST(Observability, ServeRecordsPerTenantHistograms)
{
    LevelGuard guard;
    obs::setMetricsLevel(MetricsLevel::Counters);
    MetricsRegistry reg;
    serve::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.registry = &reg;
    serve::MappingService service(cfg);
    std::vector<std::future<serve::MapResponse>> futures;
    for (int i = 0; i < 4; ++i) {
        serve::MapRequest req;
        req.tenant = "tenant-" + std::to_string(i % 2);
        req.problem.task = dnn::TaskType::Mix;
        req.problem.groupSize = 10;
        req.problem.workloadSeed = 40 + i;
        req.problem.setting = accel::Setting::S2;
        req.problem.systemBwGbps = 4.0;
        req.search.sampleBudget = 200;
        req.search.seed = 40 + i;
        futures.push_back(service.submit(std::move(req)));
    }
    for (auto& f : futures)
        f.get();
    service.stop();

    const obs::Counter* served = reg.findCounter("serve.requests");
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(served->value(), 4);
    for (const char* name :
         {"serve.wait_seconds", "serve.service_seconds",
          "serve.wait_seconds.tenant-0", "serve.wait_seconds.tenant-1",
          "serve.service_seconds.tenant-0",
          "serve.service_seconds.tenant-1"}) {
        const obs::Histogram* h = reg.findHistogram(name);
        ASSERT_NE(h, nullptr) << name;
        EXPECT_GT(h->count(), 0) << name;
    }
    // Aggregate = sum of the tenant shards.
    EXPECT_EQ(reg.findHistogram("serve.wait_seconds")->count(),
              reg.findHistogram("serve.wait_seconds.tenant-0")->count() +
                  reg.findHistogram("serve.wait_seconds.tenant-1")->count());
}

// --------------------------------------------- chrome trace export ---

TEST(ChromeTrace, ClassifiesInstantVsCompleteAndConvertsOnce)
{
    std::vector<TraceEvent> events(2);
    events[0].name = "span";
    events[0].startSeconds = 1.5;
    events[0].durSeconds = 0.25;
    events[0].thread = 3;
    events[0].i = 7;
    events[1].name = "instant";
    events[1].startSeconds = 2.0;
    events[1].durSeconds = 0.0;
    obs::ChromeTrace t = obs::ChromeTrace::fromEvents(events, "test", 0);
    ASSERT_EQ(t.events.size(), 2u);
    EXPECT_FALSE(t.events[0].instant);
    EXPECT_EQ(t.events[0].tsMicros, 1.5e6);
    EXPECT_EQ(t.events[0].durMicros, 0.25e6);
    EXPECT_EQ(t.events[0].tid, 3);
    EXPECT_EQ(t.events[0].i, 7);
    EXPECT_TRUE(t.events[1].instant);
}

TEST(ChromeTrace, RoundTripsUnderRandomizedHostileNames)
{
    common::Rng rng(77);
    for (int trial = 0; trial < 25; ++trial) {
        obs::ChromeTrace t;
        t.source = hostileName(rng, trial);
        t.droppedEvents = rng.uniformInt(100);
        int salt = 100;
        int n = rng.uniformInt(6);
        for (int e = 0; e < n; ++e) {
            obs::ChromeEvent ev;
            ev.name = hostileName(rng, ++salt);
            ev.instant = rng.uniformInt(2) == 0;
            ev.tsMicros = rng.uniform() * 1e6;
            // Only complete events carry "dur" in the JSON, so only they
            // can round-trip a nonzero (or NaN) duration.
            if (!ev.instant)
                ev.durMicros = hostileDouble(rng);
            ev.tid = rng.uniformInt(8);
            ev.i = static_cast<int64_t>(rng.engine()());
            ev.a = hostileDouble(rng);
            ev.b = rng.uniform();
            t.events.push_back(std::move(ev));
        }
        std::string text = t.toJson();
        obs::ChromeTrace back = obs::ChromeTrace::fromJson(text);
        EXPECT_EQ(back, t) << "trial " << trial << "\n" << text;
        // The text itself is a fixed point.
        EXPECT_EQ(back.toJson(), text);
    }
}

TEST(ChromeTrace, EmptyTraceAndDroppedMetadataRoundTrip)
{
    obs::ChromeTrace t;
    t.source = "empty";
    t.droppedEvents = 42;
    std::string text = t.toJson();
    obs::ChromeTrace back = obs::ChromeTrace::fromJson(text);
    EXPECT_EQ(back, t);
    EXPECT_EQ(back.droppedEvents, 42);
    EXPECT_TRUE(back.events.empty());
    // The loss count is visible in the artifact, not just the struct.
    EXPECT_NE(text.find("\"dropped_events\":42"), std::string::npos);
}

TEST(ChromeTrace, ParserRejectsMalformedInput)
{
    EXPECT_THROW(obs::ChromeTrace::fromJson(""), std::invalid_argument);
    // Valid JSON but not a trace: traceEvents is required.
    EXPECT_THROW(obs::ChromeTrace::fromJson("{}"), std::invalid_argument);
    obs::ChromeTrace t;
    t.source = "x";
    std::string good = t.toJson();
    EXPECT_THROW(
        obs::ChromeTrace::fromJson(good.substr(0, good.size() - 2)),
        std::invalid_argument);
}

// ------------------------------------------------------ profiler ---

TEST(Profiler, FourThreadTreeMergeIsDeterministic)
{
    LevelGuard guard;
    obs::setMetricsLevel(MetricsLevel::Profile);
    obs::Profiler& prof = obs::Profiler::global();
    prof.reset();
    const int threads = 4, reps = 50;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            for (int i = 0; i < reps; ++i) {
                obs::Scope outer("p.outer");
                obs::Scope inner("p.inner");  // child of p.outer
            }
        });
    for (auto& th : pool)
        th.join();

    std::vector<obs::ProfileRow> rows = prof.rows();
    ASSERT_EQ(rows.size(), 2u);
    // Depth-first with name-sorted siblings: parent before child, and
    // the four per-thread trees merge into one set of counts.
    EXPECT_EQ(rows[0].path, "p.outer");
    EXPECT_EQ(rows[0].count, int64_t{threads} * reps);
    EXPECT_EQ(rows[1].path, "p.outer/p.inner");
    EXPECT_EQ(rows[1].count, int64_t{threads} * reps);
    EXPECT_GE(rows[0].totalSeconds, rows[1].totalSeconds);
    EXPECT_GE(rows[0].selfSeconds, 0.0);
    EXPECT_GE(rows[1].selfSeconds, 0.0);

    // reportText lists the same structure (names, indentation).
    std::string report = prof.reportText();
    EXPECT_NE(report.find("p.outer"), std::string::npos);
    EXPECT_NE(report.find("  p.inner"), std::string::npos);

    prof.reset();
    EXPECT_TRUE(prof.rows().empty());
}

TEST(MetricsSnapshot, ProfileRowsRoundTripUnderHostileNames)
{
    common::Rng rng(99);
    MetricsSnapshot snap;
    snap.source = "profile.rt";
    snap.level = MetricsLevel::Profile;
    for (int i = 0; i < 5; ++i) {
        obs::ProfileSnap p;
        p.path = hostileName(rng, i) + "/" + hostileName(rng, i + 50);
        p.count = 1 + rng.uniformInt(1000);
        p.totalSeconds = rng.uniform();
        p.selfSeconds = hostileDouble(rng);
        snap.profile.push_back(std::move(p));
    }
    std::string text = snap.toJson();
    MetricsSnapshot back = MetricsSnapshot::fromJson(text);
    EXPECT_EQ(back, snap) << text;
    EXPECT_EQ(back.toJson(), text);
}

TEST(MetricsSnapshot, CaptureIncludesProfileRowsOnlyAtProfileLevel)
{
    LevelGuard guard;
    obs::Profiler::global().reset();
    obs::setMetricsLevel(MetricsLevel::Profile);
    {
        obs::Scope scope("cap.scope");
    }
    MetricsRegistry reg;
    MetricsSnapshot snap = SnapshotWriter::capture("test", reg);
    ASSERT_EQ(snap.profile.size(), 1u);
    EXPECT_EQ(snap.profile[0].path, "cap.scope");
    EXPECT_EQ(snap.profile[0].count, 1);

    // Below Profile the same tree is not captured (rows stay in the
    // profiler — capture is non-destructive — but the snapshot omits
    // them).
    obs::setMetricsLevel(MetricsLevel::Counters);
    MetricsSnapshot low = SnapshotWriter::capture("test", reg);
    EXPECT_TRUE(low.profile.empty());
    obs::Profiler::global().reset();
}

TEST(Observability, FixedSeedSearchBitwiseIdenticalOffVsProfile)
{
    LevelGuard guard;
    auto run = [](MetricsLevel level) {
        obs::setMetricsLevel(level);
        auto problem = m3e::makeProblem(dnn::TaskType::Mix,
                                        accel::Setting::S2, 4.0, 12, 9);
        opt::MagmaGa ga(9);
        opt::SearchOptions opts;
        opts.sampleBudget = 400;
        opt::SearchResult r =
            ga.search(exec::EvalEngine(problem->evaluator(), 1), opts);
        Tracer::global().drain();  // don't leak spans into later tests
        obs::Profiler::global().reset();
        return r;
    };
    opt::SearchResult off = run(MetricsLevel::Off);
    opt::SearchResult profile = run(MetricsLevel::Profile);
    EXPECT_EQ(off.bestFitness, profile.bestFitness);  // bitwise
    EXPECT_EQ(off.best, profile.best);
    EXPECT_EQ(off.samplesUsed, profile.samplesUsed);
}

// ------------------------------------------ instrumentation shape ---

namespace {

/** Every span name traced and every profile path, each with its count. */
struct Shape {
    std::map<std::string, int> spans;
    std::map<std::string, int64_t> profile;
};

/** The shape of what ran since the last call; clears both sinks. */
Shape
drainShape(std::vector<TraceEvent>* events = nullptr)
{
    Shape shape;
    std::vector<TraceEvent> drained = Tracer::global().drain();
    for (const TraceEvent& e : drained)
        ++shape.spans[e.name];
    for (const obs::ProfileRow& row : obs::Profiler::global().rows())
        shape.profile[row.path] = row.count;
    obs::Profiler::global().reset();
    if (events)
        *events = std::move(drained);
    return shape;
}

/** Two arrivals and a departure of small bundles. */
dyn::WorkloadTrace
shapeTrace()
{
    auto event = [](double t, dyn::EventKind kind, const char* bundle,
                    int jobs, dnn::TaskType task, uint64_t seed) {
        dyn::WorkloadEvent e;
        e.timeSeconds = t;
        e.kind = kind;
        e.bundle = bundle;
        e.jobs = jobs;
        e.task = task;
        e.seed = seed;
        return e;
    };
    dyn::WorkloadTrace trace;
    trace.base.task = dnn::TaskType::Mix;
    trace.base.setting = accel::Setting::S2;
    trace.base.systemBwGbps = 8.0;
    trace.base.groupSize = 8;
    trace.events = {
        event(0.0, dyn::EventKind::Arrive, "a", 6, dnn::TaskType::Vision, 11),
        event(0.5, dyn::EventKind::Arrive, "b", 5, dnn::TaskType::Language,
              12),
        event(1.0, dyn::EventKind::Depart, "a", 0, dnn::TaskType::Vision, 0)};
    trace.validate();
    return trace;
}

}  // namespace

// Pins the spans and profile nodes that one fixed-seed search, one
// served request and a short dyn replay produce at profile level, so a
// change to the instrumentation shows up as a diff of names and counts,
// not as a silently missing site. Every run is serial: with worker lanes
// the split of simulate nodes between threads would vary.
TEST(Observability, InstrumentationShapeIsPinned)
{
    LevelGuard guard;
    obs::setMetricsLevel(MetricsLevel::Counters);
    auto problem = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2,
                                    4.0, 12, 9);
    obs::setMetricsLevel(MetricsLevel::Profile);
    drainShape();

    // 1. A fixed-seed search.
    opt::MagmaGa ga(9);
    opt::SearchOptions opts;
    opts.sampleBudget = 400;
    opt::SearchResult result =
        ga.search(exec::EvalEngine(problem->evaluator(), 1), opts);
    std::vector<TraceEvent> events;
    Shape search = drainShape(&events);
    EXPECT_EQ(search.spans, (std::map<std::string, int>{
                                {"exec.eval.batch", 5},
                                {"opt.generation", 5},
                                {"opt.search", 1},
                                {"sched.flat.compile", 1},
                            }));
    const std::string gen = "opt.search/opt.generation";
    EXPECT_EQ(search.profile, (std::map<std::string, int64_t>{
                                  {"opt.search", 1},
                                  {"opt.search/opt.breed", 4},
                                  {gen, 5},
                                  {gen + "/exec.eval.batch", 5},
                                  {gen + "/opt.record", 5},
                                  // The caller builds the engine, so the
                                  // kernel compiles before the search.
                                  {"sched.flat.compile", 1},
                              }));
    const TraceEvent* opt_search = nullptr;
    const TraceEvent* last_generation = nullptr;
    for (const TraceEvent& e : events) {
        if (e.name == "opt.search")
            opt_search = &e;
        if (e.name == "opt.generation")
            last_generation = &e;
    }
    ASSERT_NE(opt_search, nullptr);
    ASSERT_NE(last_generation, nullptr);
    // opt.search: i = samples used, a = best fitness.
    EXPECT_EQ(result.samplesUsed, 400);
    EXPECT_EQ(opt_search->i, result.samplesUsed);
    EXPECT_EQ(opt_search->a, result.bestFitness);
    EXPECT_EQ(opt_search->b, 0.0);
    // opt.generation: i = generation index, a = best so far, b = samples
    // so far.
    EXPECT_EQ(last_generation->i, 4);
    EXPECT_EQ(last_generation->a, result.bestFitness);
    EXPECT_EQ(last_generation->b, static_cast<double>(result.samplesUsed));
    EXPECT_GT(last_generation->durSeconds, 0.0);

    // 2. One served request on one serial lane.
    serve::ServiceConfig cfg;
    cfg.workers = 1;
    serve::MappingService service(cfg);
    serve::MapRequest req;
    req.problem.task = dnn::TaskType::Mix;
    req.problem.groupSize = 10;
    req.problem.workloadSeed = 40;
    req.problem.setting = accel::Setting::S2;
    req.problem.systemBwGbps = 4.0;
    req.search.sampleBudget = 200;
    req.search.seed = 40;
    service.submit(std::move(req)).get();
    service.stop();
    Shape served = drainShape();
    EXPECT_EQ(served.spans, (std::map<std::string, int>{
                                {"exec.eval.batch", 25},
                                {"opt.generation", 25},
                                {"opt.search", 1},
                                {"sched.flat.compile", 1},
                                {"serve.request", 1},
                            }));
    const std::string sgen = "serve.request/serve.search/" + gen;
    EXPECT_EQ(served.profile,
              (std::map<std::string, int64_t>{
                  {"serve.queue_wait", 2},
                  {"serve.request", 1},
                  {"serve.request/serve.search", 1},
                  {"serve.request/serve.search/opt.search", 1},
                  {"serve.request/serve.search/opt.search/opt.breed", 24},
                  {sgen, 25},
                  {sgen + "/exec.eval.batch", 25},
                  {sgen + "/opt.record", 25},
                  // api::solve compiles on the lane pool's engine before
                  // the search starts, and seeds (so looks the store up)
                  // inside the serve.search scope.
                  {"serve.request/serve.search/sched.flat.compile", 1},
                  {"serve.request/serve.search/serve.store_lookup", 1},
                  {"serve.request/serve.store_write_back", 1},
              }));

    // 2b. The same request on the flexible variant of S2. Only
    // flexible-shape platforms build their table through the global cost
    // cache, so only this profile has probe nodes.
    serve::MappingService flex_service(cfg);
    serve::MapRequest flex_req;
    flex_req.problem.task = dnn::TaskType::Mix;
    flex_req.problem.groupSize = 10;
    flex_req.problem.workloadSeed = 40;
    flex_req.problem.setting = accel::Setting::S2;
    flex_req.problem.systemBwGbps = 4.0;
    flex_req.problem.flexible = true;
    flex_req.search.sampleBudget = 200;
    flex_req.search.seed = 40;
    flex_service.submit(std::move(flex_req)).get();
    flex_service.stop();
    Shape flex_served = drainShape();
    EXPECT_EQ(flex_served.spans, served.spans);
    std::map<std::string, int64_t> with_probes = served.profile;
    // 6 distinct (shape, batch) x 2 distinct S2 configs.
    with_probes["serve.request/exec.cost_cache.probe"] = 12;
    EXPECT_EQ(flex_served.profile, with_probes);

    // 3. A short dyn replay: one cold re-map, then two warm from the
    // running mapping.
    dyn::DynConfig dcfg;
    dcfg.search.sampleBudget = 160;
    dcfg.search.seed = 5;
    dyn::EventEngine(dcfg).replay(shapeTrace());
    Shape replayed = drainShape();
    EXPECT_EQ(replayed.spans, (std::map<std::string, int>{
                                  {"dyn.remap.search", 3},
                                  {"exec.eval.batch", 39},
                                  {"opt.generation", 39},
                                  {"opt.search", 3},
                                  {"sched.flat.compile", 3},
                              }));
    const std::string dgen = "dyn.remap.search/" + gen;
    EXPECT_EQ(replayed.profile,
              (std::map<std::string, int64_t>{
                  {"dyn.remap.search", 3},
                  {"dyn.remap.search/opt.search", 3},
                  {"dyn.remap.search/opt.search/opt.breed", 36},
                  {dgen, 39},
                  {dgen + "/exec.eval.batch", 39},
                  {dgen + "/opt.record", 39},
                  // The step compiles on its own pool's engine, before
                  // the search starts.
                  {"dyn.remap.search/sched.flat.compile", 3},
                  // api::seedSearch's previous tier, twice, run by
                  // api::solve inside the step's span.
                  {"dyn.remap.search/api.seed.previous", 2},
              }));
}
