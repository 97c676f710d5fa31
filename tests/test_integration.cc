/** @file End-to-end integration tests reproducing the paper's headline
 * orderings on reduced budgets. */

#include <chrono>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "baselines/ai_mt_like.h"
#include "baselines/herald_like.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "opt/magma_ga.h"
#include "opt/std_ga.h"

using namespace magma;

namespace {

double
runMethod(const std::string& method, m3e::Problem& p, int64_t budget,
          uint64_t seed = 3)
{
    auto o = api::OptimizerRegistry::global().make(method, seed);
    opt::SearchOptions opts;
    opts.sampleBudget = budget;
    return o->search(exec::EvalEngine(p.evaluator(), 1), opts).bestFitness;
}

}  // namespace

// ------------------------------------------------- platform/task sweep ---

struct Combo {
    dnn::TaskType task;
    accel::Setting setting;
    double bw;
};

class PipelineSweep : public ::testing::TestWithParam<Combo> {};

TEST_P(PipelineSweep, FullPipelineProducesFiniteThroughput)
{
    const Combo& c = GetParam();
    auto p = m3e::makeProblem(c.task, c.setting, c.bw, 20, 17);
    common::Rng rng(17);
    sched::Mapping m =
        sched::Mapping::random(20, p->evaluator().numAccels(), rng);
    double f = p->evaluator().fitness(m);
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, p->platform().peakGflops() * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    AllSettings, PipelineSweep,
    ::testing::Values(
        Combo{dnn::TaskType::Vision, accel::Setting::S1, 16},
        Combo{dnn::TaskType::Language, accel::Setting::S1, 16},
        Combo{dnn::TaskType::Recommendation, accel::Setting::S1, 16},
        Combo{dnn::TaskType::Mix, accel::Setting::S1, 16},
        Combo{dnn::TaskType::Mix, accel::Setting::S2, 16},
        Combo{dnn::TaskType::Mix, accel::Setting::S2, 1},
        Combo{dnn::TaskType::Mix, accel::Setting::S3, 256},
        Combo{dnn::TaskType::Mix, accel::Setting::S4, 256},
        Combo{dnn::TaskType::Mix, accel::Setting::S4, 1},
        Combo{dnn::TaskType::Mix, accel::Setting::S5, 64},
        Combo{dnn::TaskType::Mix, accel::Setting::S6, 256},
        Combo{dnn::TaskType::Vision, accel::Setting::S4, 64}));

// ------------------------------------------------------ paper orderings --

TEST(PaperClaims, MagmaBeatsHeraldInTheContentionRegime)
{
    // The BW-orchestration advantage shows where the system BW is scarce
    // but not yet saturating (Fig. 12's message): mid-BW on S2.
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0,
                              40, 7);
    double herald = runMethod("Herald-like", *p, 1);
    double magma = runMethod("MAGMA", *p, 2000);
    EXPECT_GT(magma, herald * 1.05);
}

TEST(PaperClaims, MagmaNearHeraldAtAbundantBw)
{
    // At abundant BW the problem degenerates to load balancing, where the
    // EFT heuristic is near-optimal; MAGMA must stay within a few percent.
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              30, 23);
    double herald = runMethod("Herald-like", *p, 1);
    double magma = runMethod("MAGMA", *p, 2000);
    EXPECT_GE(magma, herald * 0.93);
}

TEST(PaperClaims, MagmaCrushesAiMtOnHeterogeneousMix)
{
    // Section VI-E reports 39-52x; require a big margin (>5x) here.
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              30, 29);
    double aimt = runMethod("AI-MT-like", *p, 1);
    double magma = runMethod("MAGMA", *p, 2000);
    EXPECT_GT(magma, 5.0 * aimt);
}

TEST(PaperClaims, MagmaBeatsStdGaGivenSameBudget)
{
    // MAGMA's operators buy sample efficiency over the standard GA
    // (Fig. 2 / Section V). Compare best-of-3 seeds on the same budget.
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 2.0,
                              40, 31);
    double best_magma = 0.0, best_std = 0.0;
    for (uint64_t seed : {1u, 2u, 3u}) {
        best_magma = std::max(best_magma, runMethod("MAGMA", *p, 1500, seed));
        best_std = std::max(best_std, runMethod("stdGA", *p, 1500, seed));
    }
    EXPECT_GE(best_magma, best_std * 0.98);
}

TEST(PaperClaims, HeterogeneityHelpsWhenBwStarved)
{
    // Fig. 13: at BW=1 the heterogeneous S4 beats the homogeneous S3 on
    // Mix; at abundant BW S3 catches up (its cores are all compute-fast).
    dnn::WorkloadGenerator gen(37);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Mix, 40);

    m3e::Problem s3_low(group, accel::makeSetting(accel::Setting::S3, 1.0));
    m3e::Problem s4_low(group, accel::makeSetting(accel::Setting::S4, 1.0));
    double f3 = runMethod("MAGMA", s3_low, 2000);
    double f4 = runMethod("MAGMA", s4_low, 2000);
    EXPECT_GT(f4, f3 * 0.95);  // heterogeneous at least comparable at BW=1
}

TEST(PaperClaims, LowerBwReducesThroughput)
{
    dnn::WorkloadGenerator gen(41);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Mix, 30);
    m3e::Problem low(group, accel::makeSetting(accel::Setting::S2, 1.0));
    m3e::Problem high(group, accel::makeSetting(accel::Setting::S2, 16.0));
    double f_low = runMethod("MAGMA", low, 1500);
    double f_high = runMethod("MAGMA", high, 1500);
    EXPECT_LT(f_low, f_high);
}

TEST(PaperClaims, FlexibleArraysOutperformFixed)
{
    // Fig. 14: flexible >= fixed under the same PE budget.
    dnn::WorkloadGenerator gen(43);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Mix, 25);
    m3e::Problem fixed(group, accel::makeSetting(accel::Setting::S1, 16.0));
    m3e::Problem flex(group,
                      accel::makeFlexibleSetting(accel::Setting::S1, 16.0));
    double f_fixed = runMethod("MAGMA", fixed, 1200);
    double f_flex = runMethod("MAGMA", flex, 1200);
    EXPECT_GE(f_flex, f_fixed * 0.98);
}

TEST(PaperClaims, ProportionalBwAllocationBeatsEvenSplit)
{
    // Section IV-D1's motivation for the BW allocator.
    dnn::WorkloadGenerator gen(47);
    dnn::JobGroup group = gen.makeGroup(dnn::TaskType::Mix, 30);
    m3e::Problem prop(group, accel::makeSetting(accel::Setting::S2, 2.0),
                      sched::BwPolicy::Proportional);
    m3e::Problem even(group, accel::makeSetting(accel::Setting::S2, 2.0),
                      sched::BwPolicy::EvenSplit);
    double f_prop = runMethod("MAGMA", prop, 1500);
    double f_even = runMethod("MAGMA", even, 1500);
    EXPECT_GE(f_prop, f_even * 0.98);
}

TEST(PaperClaims, SearchTimeIsSubSecondPerEpoch)
{
    // Section VI-B: ~0.25s/epoch on a desktop. One epoch = population-size
    // samples; confirm we're within an order of magnitude (CI machines
    // vary) — this is a smoke guard against accidental slowdowns.
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              100, 53);
    opt::MagmaGa magma_ga(1);
    opt::SearchOptions opts;
    opts.sampleBudget = 1000;  // 10 epochs at population 100
    auto t0 = std::chrono::steady_clock::now();
    magma_ga.search(exec::EvalEngine(p->evaluator(), 1), opts);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0).count();
    EXPECT_LT(secs / 10.0, 2.5);  // per-epoch bound
}

TEST(PaperClaims, GroupLargerThanCoresUsesAllCores)
{
    // Section III: group size >= #sub-accelerators avoids idle cores; a
    // good mapping on a busy group should occupy every core.
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              40, 59);
    double f = runMethod("MAGMA", *p, 1500);
    EXPECT_GT(f, 0.0);
    opt::MagmaGa magma_ga(3);
    opt::SearchOptions opts;
    opts.sampleBudget = 1500;
    opt::SearchResult r =
        magma_ga.search(exec::EvalEngine(p->evaluator(), 1), opts);
    sched::DecodedMapping d =
        sched::decode(r.best, p->evaluator().numAccels());
    int used = 0;
    for (const auto& q : d.queues)
        if (!q.empty())
            ++used;
    EXPECT_GE(used, 3);
}
