/** @file Unit tests for analysis helpers: convergence, timeline, PCA
 * projection. */

#include <gtest/gtest.h>

#include "analysis/convergence.h"
#include "analysis/projection.h"
#include "analysis/timeline.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "opt/random_search.h"

using namespace magma;

// --------------------------------------------------------- convergence ---

TEST(Convergence, ResampleEvenGrid)
{
    std::vector<double> curve;
    for (int i = 1; i <= 100; ++i)
        curve.push_back(i);
    std::vector<double> r = analysis::resampleCurve(curve, 4);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_DOUBLE_EQ(r[0], 25.0);
    EXPECT_DOUBLE_EQ(r[1], 50.0);
    EXPECT_DOUBLE_EQ(r[2], 75.0);
    EXPECT_DOUBLE_EQ(r[3], 100.0);
}

TEST(Convergence, ResampleEmptyAndShort)
{
    EXPECT_EQ(analysis::resampleCurve({}, 3),
              (std::vector<double>{0.0, 0.0, 0.0}));
    std::vector<double> r = analysis::resampleCurve({5.0}, 3);
    EXPECT_EQ(r, (std::vector<double>{5.0, 5.0, 5.0}));
}

TEST(Convergence, ResampleGridCounts)
{
    EXPECT_EQ(analysis::resampleGrid(1000, 4),
              (std::vector<int>{250, 500, 750, 1000}));
}

TEST(Convergence, SamplesToFraction)
{
    std::vector<double> curve = {1.0, 2.0, 5.0, 9.0, 10.0};
    EXPECT_EQ(analysis::samplesToFraction(curve, 0.5), 2);   // first >= 5
    EXPECT_EQ(analysis::samplesToFraction(curve, 1.0), 4);
    EXPECT_EQ(analysis::samplesToFraction({}, 0.5), -1);
}

// ------------------------------------------------------------ timeline ---

namespace {

std::unique_ptr<m3e::Problem>
timelineProblem()
{
    return m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0, 20,
                            9);
}

}  // namespace

TEST(Timeline, GanttHasOneRowPerAccelAndTaskGlyphs)
{
    auto p = timelineProblem();
    common::Rng rng(1);
    sched::Mapping m =
        sched::Mapping::random(20, p->evaluator().numAccels(), rng);
    sched::ScheduleResult r = p->evaluator().evaluate(m, true);
    analysis::TimelineExporter tl(r, p->group(),
                                  p->evaluator().numAccels());
    std::string gantt = tl.renderGantt(60);
    int rows = 0;
    for (char c : gantt)
        if (c == '\n')
            ++rows;
    EXPECT_EQ(rows, p->evaluator().numAccels() + 1);  // + time axis
    // Glyphs restricted to task letters, '.', and frame characters.
    for (char c : gantt) {
        if (c == 'V' || c == 'L' || c == 'R')
            SUCCEED();
    }
    EXPECT_NE(gantt.find("S-Accel-0"), std::string::npos);
}

TEST(Timeline, BwRowsMatchEvents)
{
    auto p = timelineProblem();
    common::Rng rng(2);
    sched::Mapping m =
        sched::Mapping::random(20, p->evaluator().numAccels(), rng);
    sched::ScheduleResult r = p->evaluator().evaluate(m, true);
    analysis::TimelineExporter tl(r, p->group(),
                                  p->evaluator().numAccels());
    auto rows = tl.bwRows();
    EXPECT_EQ(rows.size(), r.events.size());
    for (const auto& row : rows)
        EXPECT_EQ(row.size(), 6u);
}

TEST(Timeline, BwProfileRendersPeak)
{
    auto p = timelineProblem();
    common::Rng rng(3);
    sched::Mapping m =
        sched::Mapping::random(20, p->evaluator().numAccels(), rng);
    sched::ScheduleResult r = p->evaluator().evaluate(m, true);
    analysis::TimelineExporter tl(r, p->group(),
                                  p->evaluator().numAccels());
    std::string profile = tl.renderBwProfile(50);
    EXPECT_NE(profile.find("peak granted BW"), std::string::npos);
    EXPECT_NE(profile.find('#'), std::string::npos);
}

TEST(Timeline, MakespanAccessor)
{
    auto p = timelineProblem();
    common::Rng rng(4);
    sched::Mapping m =
        sched::Mapping::random(20, p->evaluator().numAccels(), rng);
    sched::ScheduleResult r = p->evaluator().evaluate(m, true);
    analysis::TimelineExporter tl(r, p->group(),
                                  p->evaluator().numAccels());
    EXPECT_DOUBLE_EQ(tl.makespan(), r.makespanSeconds);
}

// ----------------------------------------------------------- projector ---

TEST(Projector, ProjectsAllSeriesTo2D)
{
    auto p = timelineProblem();
    opt::SearchOptions opts;
    opts.sampleBudget = 60;
    opts.recordSamples = true;
    opt::RandomSearch r1(1), r2(2);
    opt::SearchResult a = r1.search(exec::EvalEngine(p->evaluator(), 1), opts);
    opt::SearchResult b = r2.search(exec::EvalEngine(p->evaluator(), 1), opts);

    analysis::MapSpaceProjector proj;
    auto series = proj.project({"A", "B"}, {a.sampled, b.sampled},
                               {a.sampledFitness, b.sampledFitness},
                               p->evaluator().numAccels());
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].method, "A");
    EXPECT_EQ(series[0].points.size(), 60u);
    EXPECT_EQ(series[1].fitness.size(), 60u);
    for (const auto& pt : series[0].points)
        EXPECT_EQ(pt.size(), 2u);
    ASSERT_EQ(proj.explainedVariance().size(), 2u);
    EXPECT_GE(proj.explainedVariance()[0], proj.explainedVariance()[1]);
}
