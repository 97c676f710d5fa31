/** @file Tests for the m3e glue layer: Problem bundles and their wiring. */

#include <gtest/gtest.h>

#include "api/registry.h"
#include "api/runner.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"

using namespace magma;

TEST(Problem, MakeProblemWiresGroupPlatformEvaluator)
{
    auto p = m3e::makeProblem(dnn::TaskType::Vision, accel::Setting::S3,
                              64.0, 25, 5);
    EXPECT_EQ(p->group().size(), 25);
    EXPECT_EQ(p->platform().name, "S3");
    EXPECT_DOUBLE_EQ(p->platform().systemBwGbps, 64.0);
    EXPECT_EQ(p->evaluator().groupSize(), 25);
    EXPECT_EQ(p->evaluator().numAccels(), 8);
    EXPECT_EQ(p->evaluator().table().numJobs(), 25);
    EXPECT_EQ(p->evaluator().table().numAccels(), 8);
}

TEST(Problem, SameSeedSameWorkload)
{
    auto a = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              20, 9);
    auto b = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              20, 9);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(a->group().jobs[i].layer, b->group().jobs[i].layer);
    // And identical fitness for identical mappings.
    common::Rng rng(1);
    sched::Mapping m = sched::Mapping::random(20, 4, rng);
    EXPECT_DOUBLE_EQ(a->evaluator().fitness(m), b->evaluator().fitness(m));
}

TEST(Problem, FlexibleProblemUsesFlexiblePlatform)
{
    api::ProblemSpec spec;
    spec.setting = accel::Setting::S1;
    spec.flexible = true;
    spec.groupSize = 10;
    spec.workloadSeed = 2;
    auto p = api::buildProblem(spec);
    for (const auto& sub : p->platform().subAccels)
        EXPECT_TRUE(sub.flexibleShape);
    EXPECT_NE(p->platform().name.find("flex"), std::string::npos);
}

TEST(Problem, FlexibleFitnessAtLeastFixedForSameMapping)
{
    dnn::WorkloadGenerator gen(11);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Vision, 15);
    m3e::Problem fixed(group, accel::makeSetting(accel::Setting::S1, 64.0));
    m3e::Problem flex(group,
                      accel::makeFlexibleSetting(accel::Setting::S1, 64.0));
    common::Rng rng(12);
    for (int i = 0; i < 10; ++i) {
        sched::Mapping m = sched::Mapping::random(15, 4, rng);
        // Per-job latencies can only improve, so at abundant BW the same
        // mapping can only speed up on the flexible platform.
        EXPECT_GE(flex.evaluator().fitness(m),
                  fixed.evaluator().fitness(m) * (1.0 - 1e-9));
    }
}

TEST(Problem, ObjectiveSelectionFlowsThroughFitness)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              12, 13);
    auto p_lat = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2,
                                  8.0, 12, 13, sched::Objective::Latency);
    EXPECT_EQ(p_lat->evaluator().objective(), sched::Objective::Latency);
    common::Rng rng(13);
    sched::Mapping m = sched::Mapping::random(12, 4, rng);
    double tp = p->evaluator().fitness(m);
    double lat = p_lat->evaluator().fitness(m);
    EXPECT_NE(tp, lat);
    sched::ScheduleResult r = p->evaluator().evaluate(m);
    EXPECT_NEAR(lat, 1.0 / r.makespanSeconds, lat * 1e-9);
}

TEST(Factory, EveryMethodConstructsAndRunsOnce)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              8, 17);
    for (const std::string& m : api::tableIvMethods()) {
        auto o = api::OptimizerRegistry::global().make(m, 23);
        opt::SearchOptions opts;
        opts.sampleBudget = 30;
        opt::SearchResult r =
            o->search(exec::EvalEngine(p->evaluator(), 1), opts);
        EXPECT_GT(r.bestFitness, 0.0) << m;
        EXPECT_LE(r.samplesUsed, 30) << m;
    }
}
