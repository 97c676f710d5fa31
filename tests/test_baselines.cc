/** @file Unit tests for the Herald-like and AI-MT-like manual mappers. */

#include <gtest/gtest.h>

#include "api/runner.h"
#include "baselines/ai_mt_like.h"
#include "baselines/herald_like.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"

using namespace magma;
using baselines::AiMtLike;
using baselines::HeraldLike;

TEST(Baselines, ProduceValidMappings)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S4, 64.0,
                              30, 1);
    for (auto* build : {&HeraldLike::buildMapping, &AiMtLike::buildMapping}) {
        sched::Mapping m = build(p->evaluator());
        ASSERT_EQ(m.size(), 30);
        for (int i = 0; i < 30; ++i) {
            EXPECT_GE(m.accelSel[i], 0);
            EXPECT_LT(m.accelSel[i], p->evaluator().numAccels());
            EXPECT_GE(m.priority[i], 0.0);
            EXPECT_LT(m.priority[i], 1.0);
        }
    }
}

TEST(Baselines, Deterministic)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              25, 2);
    EXPECT_EQ(HeraldLike::buildMapping(p->evaluator()),
              HeraldLike::buildMapping(p->evaluator()));
    EXPECT_EQ(AiMtLike::buildMapping(p->evaluator()),
              AiMtLike::buildMapping(p->evaluator()));
}

TEST(Baselines, SearchUsesExactlyOneSample)
{
    auto p = m3e::makeProblem(dnn::TaskType::Vision, accel::Setting::S1,
                              16.0, 20, 3);
    HeraldLike herald(1);
    opt::SearchResult r = herald.search(exec::EvalEngine(p->evaluator(), 1));
    EXPECT_EQ(r.samplesUsed, 1);
    AiMtLike aimt(1);
    r = aimt.search(exec::EvalEngine(p->evaluator(), 1));
    EXPECT_EQ(r.samplesUsed, 1);
}

TEST(Baselines, HeraldKeepsLbCoreLoadBalanced)
{
    // On S2 the 4th core is LB-style where FC jobs are 30-200x slower.
    // Herald-like's earliest-finish placement may park a few tiny jobs
    // there, but the LB core's total occupancy (in seconds, on its own
    // clock) must stay balanced with the HB cores — it must not become
    // the makespan bottleneck.
    auto p = m3e::makeProblem(dnn::TaskType::Language, accel::Setting::S2,
                              16.0, 40, 4);
    sched::Mapping m = HeraldLike::buildMapping(p->evaluator());
    int lb_core = 3;  // S2 = 3x HB + 1x LB (last)
    ASSERT_EQ(p->platform().subAccels[lb_core].dataflow,
              cost::DataflowStyle::LB);
    std::vector<double> load(4, 0.0);
    for (int j = 0; j < m.size(); ++j)
        load[m.accelSel[j]] +=
            p->evaluator().table().lookup(j, m.accelSel[j]).noStallSeconds;
    double hb_max = std::max({load[0], load[1], load[2]});
    EXPECT_LE(load[lb_core], 1.5 * hb_max);
}

TEST(Baselines, AiMtSpreadsAcrossAllCoresBlindly)
{
    // AI-MT-like assumes homogeneity: its LPT balancing puts work on every
    // core, including the LB core where FC jobs crawl.
    auto p = m3e::makeProblem(dnn::TaskType::Language, accel::Setting::S2,
                              16.0, 40, 5);
    sched::Mapping m = AiMtLike::buildMapping(p->evaluator());
    std::vector<int> counts(4, 0);
    for (int a : m.accelSel)
        ++counts[a];
    for (int a = 0; a < 4; ++a)
        EXPECT_GT(counts[a], 0) << "core " << a;
}

TEST(Baselines, HeraldBeatsAiMtOnHeterogeneousMix)
{
    // Section VI-E: AI-MT-like collapses on heterogeneous platforms.
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              40, 6);
    double herald = p->evaluator().fitness(
        HeraldLike::buildMapping(p->evaluator()));
    double aimt = p->evaluator().fitness(
        AiMtLike::buildMapping(p->evaluator()));
    EXPECT_GT(herald, 2.0 * aimt);
}

TEST(Baselines, AiMtCompetitiveOnHomogeneousVision)
{
    // Section VI-D: on S1 both heuristics work "rather well" — AI-MT-like
    // must land within a modest factor of Herald-like.
    auto p = m3e::makeProblem(dnn::TaskType::Vision, accel::Setting::S1,
                              16.0, 40, 7);
    double herald = p->evaluator().fitness(
        HeraldLike::buildMapping(p->evaluator()));
    double aimt = p->evaluator().fitness(
        AiMtLike::buildMapping(p->evaluator()));
    EXPECT_GT(aimt, 0.4 * herald);
    EXPECT_LT(aimt, 2.5 * herald);
}

TEST(Baselines, ReachableThroughRunnerByRegistryName)
{
    // The manual mappers are first-class registry methods: a declarative
    // spec naming them (canonical name or alias) must run end-to-end
    // through api::Runner and resolve to the canonical plot label.
    api::ProblemSpec ps;
    ps.groupSize = 20;
    api::SearchSpec ss;
    ss.sampleBudget = 10;  // deterministic one-shot heuristics

    api::Runner runner;
    for (auto [key, canonical] :
         {std::pair<const char*, const char*>{"herald", "Herald-like"},
          {"Herald-like", "Herald-like"},
          {"ai-mt", "AI-MT-like"},
          {"AI-MT-like", "AI-MT-like"}}) {
        ss.method = key;
        api::RunReport rep = runner.run(ps, ss);
        EXPECT_EQ(rep.method, canonical) << key;
        EXPECT_EQ(rep.samplesUsed, 1) << key;  // one build, one sample
        EXPECT_GT(rep.bestFitness, 0.0) << key;
    }
}

TEST(Baselines, RunnerRunsAreFixedSeedDeterministic)
{
    // Same spec, fresh Runner each time: the mapping, fitness and all
    // derived report fields must be bitwise identical (wall time aside).
    api::ProblemSpec ps;
    ps.task = dnn::TaskType::Language;
    ps.groupSize = 24;
    ps.workloadSeed = 9;
    api::SearchSpec ss;
    ss.sampleBudget = 10;
    ss.seed = 9;

    for (const char* method : {"Herald-like", "AI-MT-like"}) {
        ss.method = method;
        api::Runner r1, r2;
        api::RunReport a = r1.run(ps, ss);
        api::RunReport b = r2.run(ps, ss);
        EXPECT_EQ(a.best, b.best) << method;
        EXPECT_EQ(a.bestFitness, b.bestFitness) << method;
        EXPECT_EQ(a.makespanSeconds, b.makespanSeconds) << method;
        EXPECT_EQ(a.energyJoules, b.energyJoules) << method;
        EXPECT_EQ(a.samplesUsed, b.samplesUsed) << method;
    }
}

TEST(Baselines, HeraldBalancesLoadOnHomogeneousPlatform)
{
    auto p = m3e::makeProblem(dnn::TaskType::Vision, accel::Setting::S1,
                              16.0, 40, 8);
    sched::Mapping m = HeraldLike::buildMapping(p->evaluator());
    std::vector<double> load(4, 0.0);
    for (int j = 0; j < 40; ++j)
        load[m.accelSel[j]] +=
            p->evaluator().table().lookup(j, m.accelSel[j]).noStallSeconds;
    double mx = *std::max_element(load.begin(), load.end());
    double mn = *std::min_element(load.begin(), load.end());
    EXPECT_LT(mx, 3.0 * (mn + 1e-12));
}
