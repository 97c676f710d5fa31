/** @file Unit tests for M3E core: encoding, decoder, analyzer, allocator,
 * evaluator. */

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "exec/cost_cache.h"
#include "m3e/problem.h"
#include "sched/bw_allocator.h"
#include "sched/evaluator.h"
#include "sched/job_analyzer.h"
#include "sched/mapping.h"

using namespace magma;
using sched::BwAllocator;
using sched::BwPolicy;
using sched::DecodedMapping;
using sched::JobAnalysisTable;
using sched::JobProfile;
using sched::Mapping;

namespace {

/** Hand-built analysis table for allocator tests (1 accel profile each). */
JobAnalysisTable
makeTable(const std::vector<std::vector<JobProfile>>& rows)
{
    int jobs = static_cast<int>(rows.size());
    int accels = static_cast<int>(rows[0].size());
    JobAnalysisTable t(jobs, accels);
    for (int j = 0; j < jobs; ++j)
        for (int a = 0; a < accels; ++a)
            t.at(j, a) = rows[j][a];
    return t;
}

JobProfile
prof(double seconds, double bw)
{
    JobProfile p;
    p.noStallSeconds = seconds;
    p.reqBwGbps = bw;
    p.macs = 1000;
    return p;
}

}  // namespace

// ------------------------------------------------------------ mapping ----

TEST(Mapping, RandomIsWellFormed)
{
    common::Rng rng(1);
    Mapping m = Mapping::random(50, 4, rng);
    EXPECT_EQ(m.size(), 50);
    for (int i = 0; i < 50; ++i) {
        EXPECT_GE(m.accelSel[i], 0);
        EXPECT_LT(m.accelSel[i], 4);
        EXPECT_GE(m.priority[i], 0.0);
        EXPECT_LT(m.priority[i], 1.0);
    }
}

TEST(Mapping, FlatRoundTrip)
{
    common::Rng rng(2);
    Mapping m = Mapping::random(30, 5, rng);
    Mapping back = Mapping::fromFlat(m.toFlat(5), 5);
    EXPECT_EQ(back.accelSel, m.accelSel);
    for (int i = 0; i < m.size(); ++i)
        EXPECT_NEAR(back.priority[i], m.priority[i], 1e-12);
}

TEST(Mapping, FromFlatClampsOutOfRange)
{
    std::vector<double> flat = {-0.5, 1.7, 0.49, 2.0, -1.0, 0.999};
    Mapping m = Mapping::fromFlat(flat, 2);
    EXPECT_EQ(m.size(), 3);
    EXPECT_EQ(m.accelSel[0], 0);   // clamped low
    EXPECT_EQ(m.accelSel[1], 1);   // clamped high
    EXPECT_EQ(m.accelSel[2], 0);   // 0.49 * 2 = 0.98 -> 0
    for (double p : m.priority) {
        EXPECT_GE(p, 0.0);
        EXPECT_LT(p, 1.0);
    }
}

TEST(Mapping, DecodeGroupsByAccel)
{
    Mapping m;
    m.accelSel = {0, 1, 0, 1, 1};
    m.priority = {0.9, 0.2, 0.1, 0.8, 0.5};
    DecodedMapping d = sched::decode(m, 2);
    ASSERT_EQ(d.queues.size(), 2u);
    EXPECT_EQ(d.queues[0], (std::vector<int>{2, 0}));   // 0.1 before 0.9
    EXPECT_EQ(d.queues[1], (std::vector<int>{1, 4, 3}));
}

TEST(Mapping, DecodeTieBreaksStablyById)
{
    Mapping m;
    m.accelSel = {0, 0, 0};
    m.priority = {0.5, 0.5, 0.5};
    DecodedMapping d = sched::decode(m, 1);
    EXPECT_EQ(d.queues[0], (std::vector<int>{0, 1, 2}));
}

TEST(Mapping, DecodeEmptyAccelsAllowed)
{
    Mapping m;
    m.accelSel = {2, 2};
    m.priority = {0.1, 0.2};
    DecodedMapping d = sched::decode(m, 4);
    EXPECT_TRUE(d.queues[0].empty());
    EXPECT_TRUE(d.queues[1].empty());
    EXPECT_EQ(d.queues[2].size(), 2u);
    EXPECT_TRUE(d.queues[3].empty());
}

// ----------------------------------------------------------- analyzer ----

TEST(JobAnalyzer, TableMatchesDirectCostModelQueries)
{
    auto problem = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2,
                                    16.0, 12, 3);
    cost::CostModel model;
    sched::JobAnalyzer analyzer(model);
    JobAnalysisTable table =
        analyzer.analyze(problem->group(), problem->platform());
    for (int j = 0; j < problem->group().size(); ++j) {
        for (int a = 0; a < problem->platform().numSubAccels(); ++a) {
            const dnn::Job& job = problem->group().jobs[j];
            cost::CostResult r = model.analyze(
                job.layer, job.batch, problem->platform().subAccels[a]);
            const JobProfile& p = table.lookup(j, a);
            EXPECT_DOUBLE_EQ(
                p.noStallSeconds,
                r.noStallSeconds(problem->platform().subAccels[a]));
            EXPECT_DOUBLE_EQ(p.reqBwGbps, r.reqBwGbps);
            EXPECT_EQ(p.macs, r.macs);
        }
    }
}

TEST(JobAnalyzer, MemoisesRepeatedLayers)
{
    dnn::JobGroup g;
    g.task = dnn::TaskType::Recommendation;
    for (int i = 0; i < 20; ++i) {
        dnn::Job j;
        j.id = i;
        j.layer = dnn::fc(256, 128);  // identical layers
        j.batch = 4;
        j.task = dnn::TaskType::Recommendation;
        j.model = "NCF";
        g.jobs.push_back(j);
    }
    cost::CostModel model;
    sched::JobAnalyzer analyzer(model);
    accel::Platform p = accel::makeSetting(accel::Setting::S1, 16.0);
    analyzer.analyze(g, p);
    // 1 unique shape x 1 configuration shared by 4 identical cores.
    EXPECT_EQ(analyzer.lastUniqueQueries(), 1);
}

namespace {

/** Every setting, fixed-shape and flexible. */
std::vector<accel::Platform>
allPlatforms()
{
    std::vector<accel::Platform> out;
    for (accel::Setting s : {accel::Setting::S1, accel::Setting::S2,
                             accel::Setting::S3, accel::Setting::S4,
                             accel::Setting::S5, accel::Setting::S6}) {
        out.push_back(accel::makeSetting(s, 16.0));
        out.push_back(accel::makeFlexibleSetting(s, 16.0));
    }
    return out;
}

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Distinct (shape, batch) pairs, counted through the shape text. */
int64_t
distinctShapes(const dnn::JobGroup& g)
{
    std::set<std::pair<std::string, int>> seen;
    for (const dnn::Job& j : g.jobs)
        seen.emplace(j.layer.toString(), j.batch);
    return static_cast<int64_t>(seen.size());
}

}  // namespace

TEST(JobAnalyzer, TableBitwiseEqualsPerCellQueries)
{
    dnn::WorkloadGenerator gen(11);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Mix, 40);
    cost::CostModel model;
    for (const accel::Platform& p : allPlatforms()) {
        exec::CostCache cache;
        sched::JobAnalyzer plain(model);
        sched::JobAnalyzer cached(model, &cache);
        // Cold and warm cache builds.
        std::vector<JobAnalysisTable> tables = {
            plain.analyze(group, p), cached.analyze(group, p),
            cached.analyze(group, p)};
        for (int j = 0; j < group.size(); ++j) {
            const dnn::Job& job = group.jobs[j];
            for (int a = 0; a < p.numSubAccels(); ++a) {
                const cost::SubAccelConfig& cfg = p.subAccels[a];
                cost::CostResult r = model.analyze(job.layer, job.batch, cfg);
                for (const JobAnalysisTable& t : tables) {
                    const JobProfile& got = t.lookup(j, a);
                    ASSERT_EQ(bits(got.noStallSeconds),
                              bits(r.noStallSeconds(cfg)))
                        << p.name << " job " << j << " core " << a;
                    ASSERT_EQ(bits(got.reqBwGbps), bits(r.reqBwGbps));
                    ASSERT_EQ(bits(got.dramBytes), bits(r.dramBytes));
                    ASSERT_EQ(bits(got.energyPj), bits(r.energyPj));
                    ASSERT_EQ(got.macs, r.macs);
                }
            }
        }
    }
}

TEST(JobAnalyzer, OneQueryPerDistinctShapeAndConfiguration)
{
    dnn::WorkloadGenerator gen(5);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Mix, 60);
    const int64_t shapes = distinctShapes(group);
    ASSERT_LT(shapes, group.size());  // the group repeats layers
    cost::CostModel model;
    sched::JobAnalyzer analyzer(model);

    for (const accel::Platform& p : allPlatforms()) {
        std::set<std::string> configs;  // every core field but the name
        for (const cost::SubAccelConfig& c : p.subAccels) {
            cost::SubAccelConfig unnamed = c;
            unnamed.name.clear();
            std::ostringstream os;
            os << static_cast<int>(unnamed.dataflow) << ' ' << unnamed.rows
               << ' ' << unnamed.cols << ' ' << bits(unnamed.slBytes) << ' '
               << bits(unnamed.sgBytes) << ' ' << bits(unnamed.freqGhz)
               << ' ' << bits(unnamed.bytesPerElem) << ' '
               << bits(unnamed.nocElemsPerCycle) << ' '
               << bits(unnamed.nocLatency) << ' ' << unnamed.flexibleShape;
            configs.insert(os.str());
        }
        analyzer.analyze(group, p);
        EXPECT_EQ(analyzer.lastUniqueQueries(),
                  shapes * static_cast<int64_t>(configs.size()))
            << p.name;
    }

    // Cores that differ only in name share a column.
    accel::Platform twins = accel::makeSetting(accel::Setting::S1, 16.0);
    twins.subAccels.resize(2);
    twins.subAccels[1].name = "another name";
    analyzer.analyze(group, twins);
    EXPECT_EQ(analyzer.lastUniqueQueries(), shapes);

    // One cost field apart: two columns, and the second one differs.
    twins.subAccels[1].nocLatency = 7.0;
    JobAnalysisTable t = analyzer.analyze(group, twins);
    EXPECT_EQ(analyzer.lastUniqueQueries(), 2 * shapes);
    EXPECT_NE(t.lookup(0, 0).noStallSeconds, t.lookup(0, 1).noStallSeconds);
}

// ---------------------------------------------------------- allocator ----

TEST(BwAllocator, SingleJobRunsAtNoStallLatency)
{
    JobAnalysisTable t = makeTable({{prof(2.0, 4.0)}});
    DecodedMapping d;
    d.queues = {{0}};
    BwAllocator alloc(16.0);
    sched::ScheduleResult r = alloc.run(d, t);
    EXPECT_NEAR(r.makespanSeconds, 2.0, 1e-12);
    EXPECT_NEAR(r.finishTime[0], 2.0, 1e-12);
}

TEST(BwAllocator, SequentialJobsAddUp)
{
    JobAnalysisTable t = makeTable({{prof(1.0, 1.0)}, {prof(3.0, 1.0)}});
    DecodedMapping d;
    d.queues = {{0, 1}};
    BwAllocator alloc(16.0);
    sched::ScheduleResult r = alloc.run(d, t);
    EXPECT_NEAR(r.makespanSeconds, 4.0, 1e-12);
    EXPECT_NEAR(r.finishTime[0], 1.0, 1e-12);
    EXPECT_NEAR(r.finishTime[1], 4.0, 1e-12);
}

TEST(BwAllocator, ParallelJobsWithinBudgetDontSlow)
{
    JobAnalysisTable t = makeTable({{prof(2.0, 4.0), prof(9e9, 0)},
                                    {prof(2.0, 4.0), prof(9e9, 0)}});
    // Both jobs on different accels; total demand 8 < 16.
    JobAnalysisTable t2(2, 2);
    t2.at(0, 0) = prof(2.0, 4.0);
    t2.at(1, 1) = prof(2.0, 4.0);
    DecodedMapping d;
    d.queues = {{0}, {1}};
    BwAllocator alloc(16.0);
    sched::ScheduleResult r = alloc.run(d, t2);
    EXPECT_NEAR(r.makespanSeconds, 2.0, 1e-12);
}

TEST(BwAllocator, OversubscriptionSlowsProportionally)
{
    // Two identical jobs, each demanding 16 GB/s on an 16 GB/s system:
    // each gets 8, runs at half speed -> makespan 2x no-stall.
    JobAnalysisTable t(2, 2);
    t.at(0, 0) = prof(1.0, 16.0);
    t.at(1, 1) = prof(1.0, 16.0);
    DecodedMapping d;
    d.queues = {{0}, {1}};
    BwAllocator alloc(16.0);
    sched::ScheduleResult r = alloc.run(d, t);
    EXPECT_NEAR(r.makespanSeconds, 2.0, 1e-9);
}

TEST(BwAllocator, AsymmetricDemandSharesProportionally)
{
    // Job A needs 30, job B needs 10; system 20 -> both slowed by 2x
    // (proportional shares keep the ratio).
    JobAnalysisTable t(2, 2);
    t.at(0, 0) = prof(1.0, 30.0);
    t.at(1, 1) = prof(1.0, 10.0);
    DecodedMapping d;
    d.queues = {{0}, {1}};
    BwAllocator alloc(20.0);
    sched::ScheduleResult r = alloc.run(d, t);
    EXPECT_NEAR(r.finishTime[0], 2.0, 1e-9);
    EXPECT_NEAR(r.finishTime[1], 2.0, 1e-9);
}

TEST(BwAllocator, ReallocationAfterFinishSpeedsRemainder)
{
    // A: 1s @16; B: 2s @16 on a 16 GB/s system. Phase 1: both at half
    // speed for 2s (A finishes). Phase 2: B alone at full speed for the
    // remaining 1s of work -> makespan 3s.
    JobAnalysisTable t(2, 2);
    t.at(0, 0) = prof(1.0, 16.0);
    t.at(1, 1) = prof(2.0, 16.0);
    DecodedMapping d;
    d.queues = {{0}, {1}};
    BwAllocator alloc(16.0);
    sched::ScheduleResult r = alloc.run(d, t);
    EXPECT_NEAR(r.finishTime[0], 2.0, 1e-9);
    EXPECT_NEAR(r.makespanSeconds, 3.0, 1e-9);
}

TEST(BwAllocator, ProportionalCompletionOrderIgnoresSystemBw)
{
    // Proportional shares give every BW-bound job the same rate, so jobs
    // complete in the merged order of their queues' no-stall prefix sums
    // whatever the system BW; B only stretches the time between two
    // completions. At 1e9 GB/s nothing stalls; at 1 GB/s everything
    // does; 16 GB/s switches between the two.
    common::Rng rng(8);
    for (int trial = 0; trial < 20; ++trial) {
        int jobs = 30, accels = 4;
        JobAnalysisTable t(jobs, accels);
        for (int j = 0; j < jobs; ++j)
            for (int a = 0; a < accels; ++a)
                t.at(j, a) = prof(0.1 + rng.uniform(),
                                  0.5 + rng.uniform() * 20.0);
        DecodedMapping d = sched::decode(Mapping::random(jobs, accels, rng),
                                         accels);
        auto finishOrder = [&](double bw) {
            sched::ScheduleResult r = BwAllocator(bw).run(d, t);
            std::vector<int> order(jobs);
            for (int j = 0; j < jobs; ++j)
                order[j] = j;
            std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
                return r.finishTime[x] < r.finishTime[y];
            });
            return order;
        };
        std::vector<int> unconstrained = finishOrder(1e9);
        EXPECT_EQ(finishOrder(16.0), unconstrained) << "trial " << trial;
        EXPECT_EQ(finishOrder(1.0), unconstrained) << "trial " << trial;
    }
}

TEST(BwAllocator, ZeroBwJobsRunAtFullSpeed)
{
    JobAnalysisTable t(2, 2);
    t.at(0, 0) = prof(1.0, 0.0);
    t.at(1, 1) = prof(1.0, 100.0);
    DecodedMapping d;
    d.queues = {{0}, {1}};
    BwAllocator alloc(10.0);
    sched::ScheduleResult r = alloc.run(d, t);
    EXPECT_NEAR(r.finishTime[0], 1.0, 1e-9);
    EXPECT_NEAR(r.finishTime[1], 10.0, 1e-9);
}

TEST(BwAllocator, EvenSplitWastesUnusedShare)
{
    // A needs 2, B needs 30; system 16.
    // Proportional: both slowed to 16/32 = 0.5x -> makespan 2.0.
    // Static even split (8 GB/s per core, never reassigned): A runs at
    // full speed (2 < 8), B crawls at 8/30 the whole way -> 30/8 = 3.75.
    JobAnalysisTable t(2, 2);
    t.at(0, 0) = prof(1.0, 2.0);
    t.at(1, 1) = prof(1.0, 30.0);
    DecodedMapping d;
    d.queues = {{0}, {1}};
    sched::ScheduleResult prop =
        BwAllocator(16.0, BwPolicy::Proportional).run(d, t);
    sched::ScheduleResult even =
        BwAllocator(16.0, BwPolicy::EvenSplit).run(d, t);
    EXPECT_NEAR(prop.makespanSeconds, 2.0, 1e-9);
    EXPECT_NEAR(even.makespanSeconds, 30.0 / 8.0, 1e-9);
    EXPECT_GT(even.makespanSeconds, prop.makespanSeconds);
}

TEST(BwAllocator, AllJobsFinish)
{
    common::Rng rng(4);
    int jobs = 40, accels = 4;
    JobAnalysisTable t(jobs, accels);
    for (int j = 0; j < jobs; ++j)
        for (int a = 0; a < accels; ++a)
            t.at(j, a) = prof(0.1 + rng.uniform(), rng.uniform() * 40.0);
    Mapping m = Mapping::random(jobs, accels, rng);
    DecodedMapping d = sched::decode(m, accels);
    BwAllocator alloc(16.0);
    sched::ScheduleResult r = alloc.run(d, t);
    for (int j = 0; j < jobs; ++j) {
        EXPECT_GT(r.finishTime[j], 0.0) << j;
        EXPECT_LE(r.finishTime[j], r.makespanSeconds + 1e-9);
    }
}

TEST(BwAllocator, TimelineEventsCoverEveryJob)
{
    common::Rng rng(5);
    int jobs = 20, accels = 3;
    JobAnalysisTable t(jobs, accels);
    for (int j = 0; j < jobs; ++j)
        for (int a = 0; a < accels; ++a)
            t.at(j, a) = prof(0.1 + rng.uniform(), rng.uniform() * 30.0);
    DecodedMapping d = sched::decode(Mapping::random(jobs, accels, rng),
                                     accels);
    sched::ScheduleResult r =
        BwAllocator(8.0).run(d, t, /*record_timeline=*/true);
    ASSERT_FALSE(r.events.empty());
    std::vector<bool> seen(jobs, false);
    for (const auto& ev : r.events) {
        EXPECT_LE(ev.start, ev.end);
        EXPECT_GE(ev.start, 0.0);
        EXPECT_LE(ev.end, r.makespanSeconds + 1e-9);
        EXPECT_GE(ev.allocBw, 0.0);
        seen[ev.job] = true;
    }
    for (int j = 0; j < jobs; ++j)
        EXPECT_TRUE(seen[j]) << j;
}

TEST(BwAllocator, GrantedBwNeverExceedsSystemBw)
{
    common::Rng rng(6);
    int jobs = 30, accels = 4;
    JobAnalysisTable t(jobs, accels);
    for (int j = 0; j < jobs; ++j)
        for (int a = 0; a < accels; ++a)
            t.at(j, a) = prof(0.1 + rng.uniform(), 5.0 + rng.uniform() * 50);
    DecodedMapping d = sched::decode(Mapping::random(jobs, accels, rng),
                                     accels);
    double sys_bw = 16.0;
    sched::ScheduleResult r = BwAllocator(sys_bw).run(d, t, true);
    // Sum concurrent grants at each event start.
    for (const auto& probe : r.events) {
        double granted = 0.0;
        for (const auto& ev : r.events)
            if (ev.start <= probe.start + 1e-15 &&
                probe.start < ev.end - 1e-15)
                granted += ev.allocBw;
        EXPECT_LE(granted, sys_bw * (1.0 + 1e-6));
    }
}

// ----------------------------------------------------------- evaluator ---

TEST(Evaluator, FitnessIsFlopsOverMakespan)
{
    auto problem = m3e::makeProblem(dnn::TaskType::Vision,
                                    accel::Setting::S1, 16.0, 10, 7);
    common::Rng rng(7);
    Mapping m = Mapping::random(10, problem->evaluator().numAccels(), rng);
    sched::ScheduleResult r = problem->evaluator().evaluate(m);
    double expect = problem->group().totalFlops() /
                    r.makespanSeconds / 1e9;
    EXPECT_NEAR(problem->evaluator().fitness(m), expect, expect * 1e-12);
}

TEST(Evaluator, ThroughputNeverExceedsPeak)
{
    auto problem = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2,
                                    16.0, 30, 9);
    common::Rng rng(9);
    for (int i = 0; i < 50; ++i) {
        Mapping m =
            Mapping::random(30, problem->evaluator().numAccels(), rng);
        EXPECT_LE(problem->evaluator().fitness(m),
                  problem->platform().peakGflops() * (1.0 + 1e-9));
    }
}

TEST(Evaluator, HigherSystemBwNeverHurts)
{
    dnn::WorkloadGenerator gen(10);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Mix, 25);
    m3e::Problem low(group, accel::makeSetting(accel::Setting::S2, 1.0));
    m3e::Problem high(group, accel::makeSetting(accel::Setting::S2, 64.0));
    common::Rng rng(10);
    for (int i = 0; i < 20; ++i) {
        Mapping m = Mapping::random(25, low.evaluator().numAccels(), rng);
        EXPECT_LE(low.evaluator().fitness(m),
                  high.evaluator().fitness(m) * (1.0 + 1e-9));
    }
}

TEST(Evaluator, MakespanAtLeastBusiestQueue)
{
    auto problem = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2,
                                    16.0, 20, 11);
    const auto& eval = problem->evaluator();
    common::Rng rng(11);
    Mapping m = Mapping::random(20, eval.numAccels(), rng);
    DecodedMapping d = sched::decode(m, eval.numAccels());
    double busiest = 0.0;
    for (int a = 0; a < eval.numAccels(); ++a) {
        double sum = 0.0;
        for (int j : d.queues[a])
            sum += eval.table().lookup(j, a).noStallSeconds;
        busiest = std::max(busiest, sum);
    }
    EXPECT_GE(problem->evaluator().evaluate(m).makespanSeconds,
              busiest * (1.0 - 1e-9));
}
