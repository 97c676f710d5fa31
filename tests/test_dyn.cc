/**
 * @file Tests for the dynamic-workload engine (src/dyn/): trace text
 * round-trips (hostile bundle names, randomized timelines, malformed
 * rejection), reconfiguration-cost accounting inside the schedule
 * simulation, identity-preserving warm transfer across events
 * (opt::transfer::adaptMatched and the exact tier of adaptJobMatched),
 * bitwise replay determinism across thread counts, the serve layer's
 * Pareto-archive warm tier, and the timeline/obs surfaces.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cost/cost_key.h"
#include "dyn/engine.h"
#include "dyn/reconfig.h"
#include "dyn/runner.h"
#include "dyn/trace.h"
#include "m3e/problem.h"
#include "mo/pareto.h"
#include "obs/metrics.h"
#include "opt/warm_start.h"
#include "sched/job_analyzer.h"
#include "serve/fingerprint.h"
#include "serve/service.h"

using namespace magma;
using dyn::EventEngine;
using dyn::EventKind;
using dyn::WorkloadEvent;
using dyn::WorkloadTrace;

namespace {

WorkloadEvent
arrive(double t, const std::string& name, int jobs,
       dnn::TaskType task = dnn::TaskType::Vision, uint64_t seed = 7)
{
    WorkloadEvent e;
    e.timeSeconds = t;
    e.kind = EventKind::Arrive;
    e.bundle = name;
    e.jobs = jobs;
    e.task = task;
    e.seed = seed;
    return e;
}

WorkloadEvent
depart(double t, const std::string& name)
{
    WorkloadEvent e;
    e.timeSeconds = t;
    e.kind = EventKind::Depart;
    e.bundle = name;
    return e;
}

WorkloadEvent
swap(double t, const std::string& name, int jobs, uint64_t seed = 9)
{
    WorkloadEvent e = arrive(t, name, jobs, dnn::TaskType::Language, seed);
    e.kind = EventKind::Swap;
    return e;
}

/** A small, fast trace over tiny bundles. */
WorkloadTrace
smallTrace()
{
    WorkloadTrace trace;
    trace.base.task = dnn::TaskType::Mix;
    trace.base.setting = accel::Setting::S2;
    trace.base.systemBwGbps = 8.0;
    trace.base.groupSize = 8;
    trace.events = {arrive(0.0, "a", 6, dnn::TaskType::Vision, 11),
                    arrive(0.5, "b", 5, dnn::TaskType::Language, 12),
                    swap(1.0, "b", 5, 13), depart(1.5, "a")};
    trace.validate();
    return trace;
}

dyn::DynConfig
fastConfig(int64_t budget = 160)
{
    dyn::DynConfig cfg;
    cfg.search.sampleBudget = budget;
    cfg.search.seed = 5;
    return cfg;
}

}  // namespace

// ---------------------------------------------------------------------
// Trace text round-trips
// ---------------------------------------------------------------------

TEST(DynTrace, EventRoundTripsExactly)
{
    for (const WorkloadEvent& e :
         {arrive(0.25, "cam-feeds", 12, dnn::TaskType::Recommendation,
                 0xffffffffffffffffULL),
          depart(1e-9, "x"), swap(3.5, "llm", 40, 1)}) {
        WorkloadEvent back = WorkloadEvent::fromText(e.toText());
        EXPECT_EQ(e, back) << e.toText();
    }
}

TEST(DynTrace, ExtremeEventTimesRoundTripBitwise)
{
    // The smallest denormal, the largest finite double, a sum that is
    // not its decimal literal, and a value whose %.17g needs all 17
    // significant digits.
    const std::vector<double> times = {
        5e-324, 0.1 + 0.2, std::nextafter(1.0, 2.0),
        1.7976931348623157e308};
    WorkloadTrace t = smallTrace();
    t.events.clear();
    for (size_t i = 0; i < times.size(); ++i) {
        WorkloadEvent e = arrive(times[i], "b" + std::to_string(i), 2);
        WorkloadEvent back = WorkloadEvent::fromText(e.toText());
        EXPECT_EQ(std::bit_cast<uint64_t>(e.timeSeconds),
                  std::bit_cast<uint64_t>(back.timeSeconds))
            << e.toText();
        EXPECT_EQ(e.toText(), back.toText());
        t.events.push_back(e);
    }
    EXPECT_EQ("t=1.0000000000000002 kind=arrive jobs=2 task=Vision "
              "seed=7 name=b2",
              t.events[2].toText());
    WorkloadTrace back = WorkloadTrace::fromText(t.toText());
    EXPECT_EQ(t, back);
    EXPECT_EQ(t.toText(), back.toText());
    for (size_t i = 0; i < times.size(); ++i)
        EXPECT_EQ(std::bit_cast<uint64_t>(times[i]),
                  std::bit_cast<uint64_t>(back.events[i].timeSeconds));
}

TEST(DynTrace, HostileBundleNamesSurvive)
{
    // name= is the last token and captures the rest of the line, so
    // spaces, '=', '#' and key-like text are all legal bundle names.
    for (const char* name :
         {"my bundle", "a=b=c", "kind=depart", "x #y", "t=0 jobs=3",
          "trailing.inner  spaces ok (not at ends)"}) {
        ASSERT_TRUE(dyn::validBundleName(name)) << name;
        WorkloadEvent e = arrive(1.0, name, 3);
        EXPECT_EQ(e, WorkloadEvent::fromText(e.toText())) << name;
    }
    for (const char* bad :
         {"", " lead", "trail ", "\tlead", "nl\ninside"})
        EXPECT_FALSE(dyn::validBundleName(bad));
}

TEST(DynTrace, MalformedEventsRejected)
{
    // Missing required keys, recipe on a depart, junk keys/kinds.
    for (const char* line :
         {"", "kind=arrive jobs=3 task=Vision seed=1 name=x",
          "t=0 jobs=3 task=Vision seed=1 name=x",
          "t=0 kind=arrive jobs=3 task=Vision seed=1",
          "t=0 kind=arrive name=x",
          "t=0 kind=arrive jobs=3 task=Vision name=x",
          "t=0 kind=depart jobs=3 name=x",
          "t=0 kind=depart seed=1 name=x",
          "t=0 kind=vanish name=x", "t=0 kind=arrive bogus=1 name=x",
          "t=zero kind=depart name=x", "t=0 kind=arrive jobs=3 "
                                       "task=Basketweaving seed=1 name=x"})
        EXPECT_THROW(WorkloadEvent::fromText(line), std::invalid_argument)
            << line;
}

TEST(DynTrace, NonCanonicalNumbersRejected)
{
    // Every number is one whole std::from_chars token of its field's
    // type, so each of these throws, naming the field. All but the
    // `-1` seed and the `0x10` job count used to be read by
    // strtod/strtoull or wrapped by an int cast.
    const struct {
        std::string line;
        const char* field;
    } rejected[] = {
        {"t=+1 kind=depart name=x", "event t"},
        {"t=\t1 kind=depart name=x", "event t"},
        {"t=\v1 kind=depart name=x", "event t"},
        {"t=0x1p3 kind=depart name=x", "event t"},
        {"t=1e400 kind=depart name=x", "event t"},
        {"t=1e-400 kind=depart name=x", "event t"},
        {std::string("t=1\0x kind=depart name=x", 24), "event t"},
        {"t=0 kind=arrive jobs=4294967297 task=Vision seed=1 name=x",
         "event jobs"},
        {"t=0 kind=arrive jobs=2147483648 task=Vision seed=1 name=x",
         "event jobs"},
        {"t=0 kind=arrive jobs=+3 task=Vision seed=1 name=x", "event jobs"},
        {"t=0 kind=arrive jobs=\f3 task=Vision seed=1 name=x",
         "event jobs"},
        {"t=0 kind=arrive jobs=0x10 task=Vision seed=1 name=x",
         "event jobs"},
        {"t=0 kind=arrive jobs=3 task=Vision seed=\t-1 name=x",
         "event seed"},
        {"t=0 kind=arrive jobs=3 task=Vision seed=-1 name=x", "event seed"},
        {"t=0 kind=arrive jobs=3 task=Vision seed=+1 name=x", "event seed"},
        {"t=0 kind=arrive jobs=3 task=Vision seed=18446744073709551616 "
         "name=x",
         "event seed"},
    };
    for (const auto& r : rejected) {
        try {
            WorkloadEvent::fromText(r.line);
            ADD_FAILURE() << "accepted: " << r.line;
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()).rfind(std::string(r.field) + ": ",
                                                  0),
                      0u)
                << r.line << " -> " << e.what();
        }
        EXPECT_THROW(WorkloadTrace::fromText("magma-workload-trace v1\n"
                                             "event=" + r.line + "\n"),
                     std::invalid_argument)
            << r.line;
    }
    // The base block's keys follow the same grammar.
    for (const char* base : {"workload_seed=\v-1", "group_size=4294967304",
                             "system_bw_gbps=+16"})
        EXPECT_THROW(WorkloadTrace::fromText(
                         std::string("magma-workload-trace v1\n") + base +
                         "\n"),
                     std::invalid_argument)
            << base;

    // The extremes of each type still parse.
    WorkloadEvent e = WorkloadEvent::fromText(
        "t=0 kind=arrive jobs=2147483647 task=Mix "
        "seed=18446744073709551615 name=x");
    EXPECT_EQ(e.jobs, 2147483647);
    EXPECT_EQ(e.seed, 18446744073709551615ULL);
}

TEST(DynTrace, TraceTextRoundTripsBitwise)
{
    WorkloadTrace t = smallTrace();
    t.base.systemBwGbps = 1.0 / 3.0;  // exercise %.17g fidelity
    t.events[0].timeSeconds = 0.1 + 0.2;
    WorkloadTrace back = WorkloadTrace::fromText(t.toText());
    EXPECT_EQ(t, back);
    EXPECT_EQ(t.toText(), back.toText());
}

TEST(DynTrace, RandomizedTracesRoundTrip)
{
    const std::string charset =
        "abcdefghijklmnopqrstuvwxyzABC XYZ0123456789_=#.-/";
    common::Rng rng(123);
    for (int iter = 0; iter < 50; ++iter) {
        WorkloadTrace t;
        t.base.workloadSeed = rng.uniformInt(1, 1 << 20);
        t.base.systemBwGbps = rng.uniform(0.5, 64.0);
        double now = 0.0;
        std::vector<std::string> active;
        int n = rng.uniformInt(1, 12);
        for (int i = 0; i < n; ++i) {
            now += rng.uniform(0.0, 2.0);
            int kind = rng.uniformInt(3);
            if (!active.empty() && kind == 1) {
                int pick = rng.uniformInt(
                    static_cast<int>(active.size()));
                t.events.push_back(depart(now, active[pick]));
                active.erase(active.begin() + pick);
            } else if (!active.empty() && kind == 2) {
                int pick = rng.uniformInt(
                    static_cast<int>(active.size()));
                t.events.push_back(swap(now, active[pick],
                                        rng.uniformInt(1, 9),
                                        rng.uniformInt(1, 1000)));
            } else {
                std::string name;
                int len = rng.uniformInt(1, 18);
                for (int k = 0; k < len; ++k)
                    name += charset[rng.uniformInt(
                        static_cast<int>(charset.size()))];
                name = "j" + name + "j";  // no edge whitespace
                if (std::find(active.begin(), active.end(), name) !=
                    active.end())
                    continue;
                t.events.push_back(
                    arrive(now, name, rng.uniformInt(1, 9),
                           dnn::TaskType::Mix, rng.uniformInt(1, 1000)));
                active.push_back(name);
            }
        }
        ASSERT_NO_THROW(t.validate());
        WorkloadTrace back = WorkloadTrace::fromText(t.toText());
        EXPECT_EQ(t, back);
    }
}

TEST(DynTrace, HeaderCommentsAndRejects)
{
    WorkloadTrace t = smallTrace();
    std::string text = "# banner\n\n  # more\n" + t.toText();
    EXPECT_EQ(t, WorkloadTrace::fromText(text));

    EXPECT_THROW(WorkloadTrace::fromText(""), std::invalid_argument);
    EXPECT_THROW(WorkloadTrace::fromText("# only comments\n"),
                 std::invalid_argument);
    EXPECT_THROW(WorkloadTrace::fromText("task=Mix\n"),
                 std::invalid_argument);  // header missing
    EXPECT_THROW(WorkloadTrace::fromText("magma-workload-trace v1\n"
                                         "bogus_key=1\n"),
                 std::invalid_argument);
}

TEST(DynTrace, ValidateEnforcesTimelineInvariants)
{
    // Each rejection names the event, its bundle and the broken rule.
    auto expectInvalid = [](const WorkloadTrace& t, const char* message) {
        try {
            t.validate();
            ADD_FAILURE() << "accepted; want: " << message;
        } catch (const std::invalid_argument& e) {
            EXPECT_STREQ(e.what(), message);
        }
    };
    WorkloadTrace t = smallTrace();
    t.events[1].timeSeconds = -1.0;  // decreasing + negative
    expectInvalid(t, "event 1 ('b'): bad time");

    t = smallTrace();
    t.events[2].timeSeconds = 0.25;
    expectInvalid(t, "event 2 ('b'): time decreases");

    t = smallTrace();
    t.events[1].bundle = "";
    expectInvalid(t, "event 1 (''): bad bundle name");

    t = smallTrace();
    t.events.push_back(arrive(9.0, "b", 3));  // double arrive
    expectInvalid(t, "event 4 ('b'): arrive of an already-active bundle");

    t = smallTrace();
    t.events.push_back(depart(9.0, "ghost"));  // depart inactive
    expectInvalid(t, "event 4 ('ghost'): depart of an inactive bundle");

    t = smallTrace();
    t.events.push_back(swap(9.0, "a", 3));  // swap departed bundle
    expectInvalid(t, "event 4 ('a'): swap of an inactive bundle");

    t = smallTrace();
    t.events[2].jobs = 0;
    expectInvalid(t, "event 2 ('b'): swap needs jobs > 0");

    t = smallTrace();
    t.events[0].jobs = 0;  // arrive needs jobs > 0
    expectInvalid(t, "event 0 ('a'): arrive needs jobs > 0");
}

TEST(DynTrace, FileRoundTrip)
{
    WorkloadTrace t = smallTrace();
    std::string path = ::testing::TempDir() + "dyn_trace.txt";
    t.save(path);
    EXPECT_EQ(t, WorkloadTrace::load(path));
    EXPECT_THROW(WorkloadTrace::load(path + ".does-not-exist"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Reconfiguration cost
// ---------------------------------------------------------------------

TEST(DynReconfig, BillsMovedAndNewJobsOnly)
{
    dnn::WorkloadGenerator gen(3);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Vision, 3);
    std::vector<std::string> ids = {"a#0", "a#1", "b#0"};
    // Previous placement: a#0 on accel 0, a#1 on accel 1; b#0 is new.
    std::vector<std::pair<std::string, int>> prev = {{"a#0", 0},
                                                     {"a#1", 1}};
    sched::Mapping next;
    next.accelSel = {0, 2, 1};  // a#0 kept, a#1 moved, b#0 new
    next.priority = {0.1, 0.2, 0.3};

    dyn::ReconfigSpec spec;
    spec.retileStallSeconds = 1e-3;
    spec.bytesPerElem = 2.0;
    dyn::ReconfigCharge charge =
        dyn::computeReconfig(prev, ids, group, next, 16.0, spec);
    EXPECT_EQ(1, charge.keptJobs);
    EXPECT_EQ(1, charge.movedJobs);
    EXPECT_EQ(1, charge.newJobs);
    ASSERT_EQ(3u, charge.setupSeconds.size());
    EXPECT_DOUBLE_EQ(0.0, charge.setupSeconds[0]);
    double bytes1 =
        static_cast<double>(group.jobs[1].layer.weightElems()) * 2.0;
    double bytes2 =
        static_cast<double>(group.jobs[2].layer.weightElems()) * 2.0;
    EXPECT_DOUBLE_EQ(1e-3 + bytes1 / 16e9, charge.setupSeconds[1]);
    EXPECT_DOUBLE_EQ(1e-3 + bytes2 / 16e9, charge.setupSeconds[2]);
    EXPECT_DOUBLE_EQ(bytes1 + bytes2, charge.reloadBytes);
    EXPECT_DOUBLE_EQ(charge.setupSeconds[1] + charge.setupSeconds[2],
                     charge.totalStallSeconds);

    // Arrivals can be exempted; weight reload can be disabled.
    spec.chargeArrivals = false;
    charge = dyn::computeReconfig(prev, ids, group, next, 16.0, spec);
    EXPECT_DOUBLE_EQ(0.0, charge.setupSeconds[2]);
    EXPECT_DOUBLE_EQ(bytes1, charge.reloadBytes);

    spec.chargeArrivals = true;
    spec.chargeWeightReload = false;
    charge = dyn::computeReconfig(prev, ids, group, next, 16.0, spec);
    EXPECT_DOUBLE_EQ(0.0, charge.reloadBytes);
    EXPECT_DOUBLE_EQ(2e-3, charge.totalStallSeconds);
}

TEST(DynReconfig, SetupChargedInsideSchedule)
{
    auto problem = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2,
                                    8.0, 6, 42);
    const sched::MappingEvaluator& eval = problem->evaluator();
    common::Rng rng(7);
    sched::Mapping m =
        sched::Mapping::random(6, eval.numAccels(), rng);

    // All-zero setup is bitwise the plain simulation.
    sched::ScheduleResult plain = eval.evaluate(m);
    sched::ScheduleResult zero =
        eval.evaluateWithSetup(m, std::vector<double>(6, 0.0));
    EXPECT_EQ(plain.makespanSeconds, zero.makespanSeconds);
    EXPECT_EQ(plain.finishTime, zero.finishTime);

    // A uniform positive setup pushes the makespan out by at least one
    // stall. Per job only monotonicity holds: a job whose contenders
    // are still in setup inherits their bandwidth, so its finish can
    // land under plain + setup (but never under plain).
    std::vector<double> setup(6, 5e-3);
    sched::ScheduleResult stalled = eval.evaluateWithSetup(m, setup);
    EXPECT_GE(stalled.makespanSeconds, plain.makespanSeconds + 5e-3);
    for (int j = 0; j < 6; ++j)
        EXPECT_GE(stalled.finishTime[j], plain.finishTime[j]);
}

// ---------------------------------------------------------------------
// Warm transfer across events
// ---------------------------------------------------------------------

TEST(DynTransfer, AdaptMatchedInheritsGenesVerbatim)
{
    dnn::WorkloadGenerator gen(11);
    dnn::JobGroup stored_group = gen.makeGroup(dnn::TaskType::Mix, 8);
    common::Rng rng(19);
    sched::Mapping stored = sched::Mapping::random(8, 4, rng);

    // Target: jobs 2, 5 and 7 survive (in a new order) plus one new job.
    dnn::JobGroup target;
    target.task = stored_group.task;
    for (int src : {5, 2, 7})
        target.jobs.push_back(stored_group.jobs[src]);
    target.jobs.push_back(gen.makeGroup(dnn::TaskType::Vision, 1).jobs[0]);
    std::vector<int> match = {5, 2, 7, -1};

    sched::Mapping adapted = opt::transfer::adaptMatched(
        stored, stored_group, target, match, 4, rng);
    ASSERT_EQ(4, adapted.size());
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(stored.accelSel[match[i]], adapted.accelSel[i]);
        EXPECT_EQ(stored.priority[match[i]], adapted.priority[i]);
    }
    EXPECT_LT(adapted.accelSel[3], 4);

    // Accel genes clamp into a smaller platform.
    sched::Mapping clamped = opt::transfer::adaptMatched(
        stored, stored_group, target, match, 2, rng);
    for (int i = 0; i < 4; ++i)
        EXPECT_LT(clamped.accelSel[i], 2);

    // Malformed correspondences are loud, not silently fuzzy.
    EXPECT_THROW(opt::transfer::adaptMatched(stored, stored_group, target,
                                             {0, 1}, 4, rng),
                 std::invalid_argument);
    EXPECT_THROW(opt::transfer::adaptMatched(stored, stored_group, target,
                                             {0, 1, 2, 8}, 4, rng),
                 std::invalid_argument);
}

TEST(DynTransfer, AdaptJobMatchedShrinkHitsExactTier)
{
    // A departure-shrunk group (a prefix of the stored one) must keep
    // every surviving job's own gene — the exact-identity tier, not the
    // fuzzy size-class fallback.
    dnn::WorkloadGenerator gen(13);
    dnn::JobGroup stored_group = gen.makeGroup(dnn::TaskType::Mix, 10);
    common::Rng rng(23);
    sched::Mapping stored = sched::Mapping::random(10, 4, rng);

    dnn::JobGroup target;
    target.task = stored_group.task;
    target.jobs.assign(stored_group.jobs.begin(),
                       stored_group.jobs.begin() + 6);
    sched::Mapping adapted = opt::transfer::adaptJobMatched(
        stored, stored_group, target, 4, rng);
    ASSERT_EQ(6, adapted.size());
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(stored.accelSel[i], adapted.accelSel[i]) << i;
        EXPECT_EQ(stored.priority[i], adapted.priority[i]) << i;
    }
}

TEST(DynTransfer, AdaptMatchedExactTierKeysOnModelLayerAndBatch)
{
    // New jobs (match -1) that each equal one stored job in model, task,
    // layer and batch inherit that job's gene, even where the stored jobs
    // differ from each other in one of those fields alone.
    auto job = [](const char* model, dnn::LayerShape layer, int batch) {
        dnn::Job j;
        j.model = model;
        j.task = dnn::TaskType::Vision;
        j.layer = layer;
        j.batch = batch;
        return j;
    };
    dnn::JobGroup stored_group;
    stored_group.task = dnn::TaskType::Vision;
    stored_group.jobs = {
        job("A", dnn::fc(64, 32), 1),
        job("A", dnn::fc(64, 32), 4),
        job("B", dnn::fc(64, 32), 1),
        job("A", dnn::conv(16, 8, 7, 7, 3, 3, 1), 1),
        job("A", dnn::conv(16, 8, 7, 7, 3, 3, 2), 1),
    };
    const int n = stored_group.size();
    common::Rng rng(29);
    sched::Mapping stored = sched::Mapping::random(n, 4, rng);

    dnn::JobGroup target;
    target.task = stored_group.task;
    target.jobs.assign(stored_group.jobs.rbegin(), stored_group.jobs.rend());
    sched::Mapping adapted = opt::transfer::adaptMatched(
        stored, stored_group, target, std::vector<int>(n, -1), 4, rng);
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(stored.accelSel[n - 1 - i], adapted.accelSel[i]) << i;
        EXPECT_EQ(stored.priority[n - 1 - i], adapted.priority[i]) << i;
    }
}

// ---------------------------------------------------------------------
// Event engine
// ---------------------------------------------------------------------

TEST(DynEngine, ReplayBitwiseIdenticalAcrossThreadCounts)
{
    WorkloadTrace trace = smallTrace();
    dyn::DynConfig cfg = fastConfig();
    dyn::DynResult one = EventEngine(cfg).replay(trace);
    cfg.search.threads = 4;
    dyn::DynResult four = EventEngine(cfg).replay(trace);

    ASSERT_EQ(one.records.size(), four.records.size());
    for (size_t i = 0; i < one.records.size(); ++i) {
        EXPECT_EQ(one.records[i].mapping, four.records[i].mapping) << i;
        EXPECT_EQ(one.records[i].fitness, four.records[i].fitness) << i;
        EXPECT_EQ(one.records[i].samplesUsed, four.records[i].samplesUsed);
        EXPECT_EQ(one.records[i].makespanSeconds,
                  four.records[i].makespanSeconds);
        EXPECT_EQ(dyn::eventLine(static_cast<int64_t>(i), one.records[i]),
                  dyn::eventLine(static_cast<int64_t>(i),
                                 four.records[i]));
    }
    EXPECT_EQ(one.totalSamples, four.totalSamples);
    EXPECT_EQ(dyn::summaryLine(one), dyn::summaryLine(four));
}

TEST(DynEngine, WarmRemapSavesSamplesOverCold)
{
    WorkloadTrace trace = smallTrace();
    dyn::DynConfig cold_cfg = fastConfig(400);
    cold_cfg.warmRemap = false;
    dyn::DynConfig warm_cfg = fastConfig(400);
    warm_cfg.remapBudget = 100;

    dyn::DynResult cold = EventEngine(cold_cfg).replay(trace);
    dyn::DynResult warm = EventEngine(warm_cfg).replay(trace);

    for (const dyn::EventRecord& r : cold.records)
        EXPECT_EQ(dyn::RemapSource::Cold, r.source);
    EXPECT_EQ(dyn::RemapSource::Cold, warm.records[0].source);
    for (size_t i = 1; i < warm.records.size(); ++i) {
        EXPECT_EQ(dyn::RemapSource::Previous, warm.records[i].source);
        EXPECT_EQ(100, warm.records[i].budget);
    }
    EXPECT_LT(warm.totalSamples, cold.totalSamples);
    EXPECT_GT(warm.finalFitness, 0.6 * cold.finalFitness);
}

TEST(DynEngine, EventAccountingAndEmptyPlatform)
{
    WorkloadTrace trace;
    trace.base = smallTrace().base;
    trace.events = {arrive(0.0, "a", 6, dnn::TaskType::Vision, 11),
                    swap(1.0, "a", 4, 12), depart(2.0, "a")};
    trace.validate();
    dyn::DynResult r = EventEngine(fastConfig()).replay(trace);

    // Arrival: every job is new; nothing existed to keep or move.
    EXPECT_EQ(6, r.records[0].charge.newJobs);
    EXPECT_EQ(0, r.records[0].charge.keptJobs + r.records[0].charge.movedJobs);
    EXPECT_GT(r.records[0].charge.totalStallSeconds, 0.0);
    EXPECT_GT(r.records[0].makespanSeconds,
              r.records[0].steadyMakespanSeconds);

    // Swap: the regenerated jobs are NEW jobs (fresh identities).
    EXPECT_EQ(4, r.records[1].charge.newJobs);
    EXPECT_EQ(0, r.records[1].charge.keptJobs);
    EXPECT_EQ(4, r.records[1].activeJobs);

    // Depart to empty: idle platform, no search, empty mapping.
    EXPECT_EQ(0, r.records[2].activeJobs);
    EXPECT_EQ(0, r.records[2].mapping.size());
    EXPECT_EQ(0, r.records[2].samplesUsed);
    EXPECT_EQ(0.0, r.finalMakespanSeconds);
}

TEST(DynEngine, ParetoSpecIsRejected)
{
    // A re-map commits one mapping; an objectives list would otherwise
    // run a scalar search and drop the list without a word.
    dyn::DynConfig cfg = fastConfig();
    cfg.search.method = "nsga2";
    cfg.search.objectives = {sched::Objective::Throughput,
                             sched::Objective::Energy};
    EXPECT_THROW(EventEngine{cfg}, std::invalid_argument);
    cfg.search.objectives.clear();
    EXPECT_NO_THROW(EventEngine{cfg});
}

TEST(DynEngine, StepGuardsAndTierFallbacks)
{
    EventEngine engine(fastConfig());
    EXPECT_THROW(engine.step(arrive(0.0, "a", 2)), std::logic_error);

    // Store tier: a pre-populated MappingStore seeds the FIRST event
    // (no previous mapping yet) on the warm budget.
    WorkloadTrace trace;
    trace.base = smallTrace().base;
    trace.events = {arrive(0.0, "a", 6, dnn::TaskType::Vision, 11)};

    dyn::DynConfig cold_cfg = fastConfig(300);
    dyn::DynResult first = EventEngine(cold_cfg).replay(trace);
    EXPECT_EQ(dyn::RemapSource::Cold, first.records[0].source);

    serve::MappingStore store;
    dyn::DynConfig store_cfg = fastConfig(300);
    store_cfg.remapBudget = 60;
    store_cfg.store = &store;
    EXPECT_EQ(dyn::RemapSource::Cold,
              EventEngine(store_cfg).replay(trace).records[0].source);
    EXPECT_GT(store.size(), 0);  // replay wrote the solution back
    dyn::DynResult warmed = EventEngine(store_cfg).replay(trace);
    EXPECT_EQ(dyn::RemapSource::Store, warmed.records[0].source);
    EXPECT_EQ(60, warmed.records[0].budget);

    // Archive tier: store misses, Pareto members seed at FULL budget.
    mo::ParetoArchive archive({sched::Objective::Throughput});
    mo::MoPoint p;
    p.m = first.records[0].mapping;
    p.objs = {first.records[0].fitness};
    ASSERT_TRUE(archive.insert(p));
    dyn::DynConfig arch_cfg = fastConfig(300);
    arch_cfg.archive = &archive;
    dyn::DynResult seeded = EventEngine(arch_cfg).replay(trace);
    EXPECT_EQ(dyn::RemapSource::Archive, seeded.records[0].source);
    EXPECT_EQ(300, seeded.records[0].budget);
}

namespace {

/**
 * Seeded arrive/depart/swap churn over a small name pool, with a drain
 * to an empty platform in the middle after which earlier names arrive
 * again.
 */
WorkloadTrace
churnTrace(uint64_t seed)
{
    WorkloadTrace trace;
    trace.base = smallTrace().base;
    common::Rng rng(seed);
    std::vector<std::string> active;
    double t = 0.0;
    const dnn::TaskType tasks[] = {dnn::TaskType::Vision,
                                   dnn::TaskType::Language,
                                   dnn::TaskType::Recommendation};
    auto recipe = [&](WorkloadEvent e) {
        e.task = tasks[rng.uniformInt(3)];
        e.jobs = 1 + rng.uniformInt(5);
        e.seed = static_cast<uint64_t>(rng.uniformInt(1000));
        return e;
    };
    auto add = [&](WorkloadEvent e) {
        t += 0.5;
        e.timeSeconds = t;
        trace.events.push_back(e);
    };
    for (int phase = 0; phase < 2; ++phase) {
        for (int i = 0; i < 14; ++i) {
            const int n = static_cast<int>(active.size());
            const int u = rng.uniformInt(10);
            if (n < 2 || (n < 4 && u < 4)) {
                // Phase 1 re-uses phase 0's names.
                std::string name = "b" + std::to_string(rng.uniformInt(6));
                if (std::find(active.begin(), active.end(), name) !=
                    active.end())
                    continue;
                active.push_back(name);
                add(recipe(arrive(0.0, name, 1)));
            } else if (u < 7) {
                add(recipe(swap(0.0, active[rng.uniformInt(n)], 1)));
            } else {
                const int k = rng.uniformInt(n);
                add(depart(0.0, active[k]));
                active.erase(active.begin() + k);
            }
        }
        while (!active.empty()) {  // drain
            add(depart(0.0, active.back()));
            active.pop_back();
        }
    }
    trace.validate();
    return trace;
}

}  // namespace

TEST(DynEngine, StepStateMatchesIndependentRebuild)
{
    // Per event, the state a step works from (the assembled analysis
    // table, the survivors' correspondence, the reconfiguration bill and
    // the store key) must equal an independent rebuild of the active
    // set through the public APIs, with identities spelled
    // "bundle@generation#index" (a swap starts a new generation).
    const WorkloadTrace trace = churnTrace(17);
    const accel::Platform platform = api::buildPlatform(trace.base);
    const cost::CostModel model;
    for (bool warm : {true, false}) {
        SCOPED_TRACE(warm ? "warm" : "no-warm");
        serve::MappingStore store;
        dyn::DynConfig cfg = fastConfig(60);
        cfg.warmRemap = warm;
        cfg.store = &store;
        EventEngine engine(cfg);
        engine.reset(trace.base);

        struct Bundle {
            std::string name;
            int gen = 0;
            std::vector<dnn::Job> jobs;
        };
        std::vector<Bundle> bundles;
        std::vector<std::string> prev_ids;
        std::vector<std::pair<std::string, int>> placement;
        std::set<std::string> seen;
        int drains = 0, rearrivals = 0;
        for (size_t e = 0; e < trace.events.size(); ++e) {
            SCOPED_TRACE("event " + std::to_string(e));
            const WorkloadEvent& ev = trace.events[e];
            dyn::EventRecord rec = engine.step(ev);

            auto it = std::find_if(
                bundles.begin(), bundles.end(),
                [&](const Bundle& b) { return b.name == ev.bundle; });
            if (ev.kind == EventKind::Arrive) {
                rearrivals += !seen.insert(ev.bundle).second;
                dnn::WorkloadGenerator gen(ev.seed);
                bundles.push_back(
                    {ev.bundle, 0, gen.makeGroup(ev.task, ev.jobs).jobs});
            } else if (ev.kind == EventKind::Depart) {
                bundles.erase(it);
            } else {
                dnn::WorkloadGenerator gen(ev.seed ^ 0x5a5a5a5aULL);
                it->jobs = gen.makeGroup(ev.task, ev.jobs).jobs;
                ++it->gen;
            }
            dnn::JobGroup group;
            group.task = trace.base.task;
            std::vector<std::string> ids;
            for (const Bundle& b : bundles)
                for (size_t i = 0; i < b.jobs.size(); ++i) {
                    group.jobs.push_back(b.jobs[i]);
                    group.jobs.back().id = group.size() - 1;
                    ids.push_back(b.name + '@' + std::to_string(b.gen) +
                                  '#' + std::to_string(i));
                }

            ASSERT_EQ(group.size(), rec.activeJobs);
            ASSERT_EQ(group.size(), engine.group().size());
            for (int j = 0; j < group.size(); ++j) {
                const dnn::Job& a = engine.group().jobs[j];
                const dnn::Job& b = group.jobs[j];
                EXPECT_EQ(b.id, a.id);
                EXPECT_EQ(b.model, a.model);
                EXPECT_EQ(b.batch, a.batch);
                EXPECT_TRUE(cost::layerKey(b.layer, b.batch) ==
                            cost::layerKey(a.layer, a.batch));
            }
            if (group.jobs.empty()) {
                ++drains;
                prev_ids.clear();
                placement.clear();
                continue;
            }

            // Table: the bundles' rows, bitwise a whole-group analysis.
            sched::JobAnalysisTable want =
                sched::JobAnalyzer(model).analyze(group, platform);
            sched::JobAnalysisTable got = engine.table();
            ASSERT_EQ(want.numJobs(), got.numJobs());
            ASSERT_EQ(want.numAccels(), got.numAccels());
            for (int j = 0; j < want.numJobs(); ++j)
                for (int a = 0; a < want.numAccels(); ++a) {
                    const sched::JobProfile& w = want.lookup(j, a);
                    const sched::JobProfile& g = got.lookup(j, a);
                    EXPECT_EQ(w.noStallSeconds, g.noStallSeconds);
                    EXPECT_EQ(w.reqBwGbps, g.reqBwGbps);
                    EXPECT_EQ(w.dramBytes, g.dramBytes);
                    EXPECT_EQ(w.energyPj, g.energyPj);
                    EXPECT_EQ(w.macs, g.macs);
                }

            // Correspondence: a string-keyed identity map.
            std::map<std::string, int> prev_index;
            for (size_t k = 0; k < prev_ids.size(); ++k)
                prev_index[prev_ids[k]] = static_cast<int>(k);
            std::vector<int> match(ids.size(), -1);
            for (size_t i = 0; i < ids.size(); ++i)
                if (auto p = prev_index.find(ids[i]); p != prev_index.end())
                    match[i] = p->second;
            EXPECT_EQ(match, engine.match());

            // Reconfiguration: the identity-keyed bill.
            dyn::ReconfigCharge charge = dyn::computeReconfig(
                placement, ids, group, rec.mapping,
                trace.base.systemBwGbps, cfg.reconfig);
            EXPECT_EQ(charge.movedJobs, rec.charge.movedJobs);
            EXPECT_EQ(charge.newJobs, rec.charge.newJobs);
            EXPECT_EQ(charge.keptJobs, rec.charge.keptJobs);
            EXPECT_EQ(charge.reloadBytes, rec.charge.reloadBytes);
            EXPECT_EQ(charge.totalStallSeconds,
                      rec.charge.totalStallSeconds);
            EXPECT_EQ(charge.setupSeconds, rec.charge.setupSeconds);

            // Fingerprint: the step wrote its result back under the key
            // of the rebuilt group.
            std::optional<serve::MappingStore::Hit> hit = store.lookup(
                serve::fingerprintOf(group, platform, cfg.search.objective));
            ASSERT_TRUE(hit.has_value());
            EXPECT_TRUE(hit->exact);

            // And the record scores as the reference evaluator says.
            sched::MappingEvaluator ref(group, platform, model,
                                        trace.base.bwPolicy);
            EXPECT_EQ(ref.fitness(rec.mapping), rec.fitness);
            EXPECT_EQ(ref.evaluateWithSetup(rec.mapping, charge.setupSeconds)
                          .makespanSeconds,
                      rec.makespanSeconds);

            prev_ids = ids;
            placement.clear();
            for (size_t i = 0; i < ids.size(); ++i)
                placement.emplace_back(ids[i], rec.mapping.accelSel[i]);
        }
        EXPECT_EQ(2, drains);
        EXPECT_GT(rearrivals, 0);
    }
}

// ---------------------------------------------------------------------
// Serve integration: the archive as the third warm tier
// ---------------------------------------------------------------------

TEST(DynServe, ArchiveSeedsStoreMissingRequests)
{
    serve::MapRequest req;
    req.problem.task = dnn::TaskType::Mix;
    req.problem.groupSize = 10;
    req.problem.workloadSeed = 77;
    req.problem.systemBwGbps = 4.0;
    req.search.sampleBudget = 200;
    req.search.seed = 77;
    req.writeBack = false;

    mo::ParetoArchive archive({sched::Objective::Throughput});
    common::Rng rng(3);
    for (int i = 0; i < 3; ++i) {
        mo::MoPoint p;
        p.m = sched::Mapping::random(10, 4, rng);
        p.objs = {100.0 + i};
        archive.insert(p);
    }

    serve::ServiceConfig cfg;
    cfg.archive = &archive;
    serve::MappingService service(cfg);
    serve::MapResponse a = service.submit(req).get();
    EXPECT_TRUE(a.archiveSeeded);
    EXPECT_FALSE(a.warmStart);
    EXPECT_EQ(200, a.samplesUsed);  // full cold budget, not cut

    // Read-only tier: the same request is bitwise reproducible.
    serve::MapResponse b = service.submit(req).get();
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.bestFitness, b.bestFitness);
    EXPECT_EQ(2, service.stats().archiveSeeded);

    // Without the archive the identical request is a plain cold serve.
    serve::MappingService bare{serve::ServiceConfig{}};
    EXPECT_FALSE(bare.submit(req).get().archiveSeeded);
}

// ---------------------------------------------------------------------
// Observability + timeline artifact
// ---------------------------------------------------------------------

TEST(DynObs, CountersAndTimelineJson)
{
    obs::MetricsLevel before = obs::metricsLevel();
    obs::setMetricsLevel(obs::MetricsLevel::Counters);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    int64_t events0 = reg.counter("dyn.events").value();
    int64_t remaps0 = reg.counter("dyn.remaps").value();

    WorkloadTrace trace = smallTrace();
    dyn::DynConfig cfg = fastConfig();
    dyn::DynReport report;
    report.result = EventEngine(cfg).replay(trace);
    obs::setMetricsLevel(before);

    EXPECT_EQ(events0 + 4, reg.counter("dyn.events").value());
    EXPECT_EQ(remaps0 + 4, reg.counter("dyn.remaps").value());

    std::string json = dyn::timelineJson(trace, cfg, report);
    EXPECT_NE(std::string::npos, json.find("\"schema\":1"));
    EXPECT_NE(std::string::npos, json.find("\"bench\":\"dyn_timeline\""));
    EXPECT_NE(std::string::npos, json.find("\"samples\":["));
    EXPECT_NE(std::string::npos, json.find("\"source\":\"previous\""));
    size_t count = 0;
    for (size_t pos = 0;
         (pos = json.find("\"kind\":", pos)) != std::string::npos; ++pos)
        ++count;
    EXPECT_EQ(trace.events.size(), count);
}
