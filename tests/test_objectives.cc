/** @file Tests for the Section IV-C objective options of the evaluator. */

#include <gtest/gtest.h>

#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "opt/magma_ga.h"

using namespace magma;
using sched::Mapping;
using sched::Objective;

namespace {

std::unique_ptr<m3e::Problem>
problem(uint64_t seed = 3, Objective objective = Objective::Throughput)
{
    return m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0, 20,
                            seed, objective);
}

}  // namespace

TEST(Objectives, Names)
{
    EXPECT_EQ(sched::objectiveName(Objective::Throughput), "throughput");
    EXPECT_EQ(sched::objectiveName(Objective::Latency), "latency");
    EXPECT_EQ(sched::objectiveName(Objective::Energy), "energy");
    EXPECT_EQ(sched::objectiveName(Objective::EnergyDelay),
              "energy-delay-product");
    EXPECT_EQ(sched::objectiveName(Objective::PerfPerWatt),
              "performance-per-watt");
}

TEST(Objectives, FromNameRoundTripsAndAcceptsCliSpellings)
{
    for (Objective o : {Objective::Throughput, Objective::Latency,
                        Objective::Energy, Objective::EnergyDelay,
                        Objective::PerfPerWatt})
        EXPECT_EQ(sched::objectiveFromName(sched::objectiveName(o)), o);
    // The short spellings the CLI has always accepted.
    EXPECT_EQ(sched::objectiveFromName("edp"), Objective::EnergyDelay);
    EXPECT_EQ(sched::objectiveFromName("perf-per-watt"),
              Objective::PerfPerWatt);
    EXPECT_THROW(sched::objectiveFromName("speed"), std::invalid_argument);
}

TEST(Objectives, DefaultIsThroughput)
{
    auto p = problem();
    EXPECT_EQ(p->evaluator().objective(), Objective::Throughput);
}

TEST(Objectives, ConstructorSelectsObjective)
{
    auto p = problem(3, Objective::Energy);
    EXPECT_EQ(p->evaluator().objective(), Objective::Energy);
}

TEST(Objectives, ConstructedObjectiveMatchesFreshEvaluator)
{
    // The setObjective() shim is gone (deprecated for one release after
    // the api/ redesign): an evaluator's objective is fixed at
    // construction, so selecting one means building the evaluator with
    // it — and that is equivalent to any other evaluator built with the
    // same objective.
    auto p = problem(3, Objective::Latency);
    EXPECT_EQ(p->evaluator().objective(), Objective::Latency);
    common::Rng rng(7);
    Mapping m = Mapping::random(20, p->evaluator().numAccels(), rng);
    EXPECT_EQ(p->evaluator().fitness(m),
              problem(3, Objective::Latency)->evaluator().fitness(m));
}

TEST(Objectives, ThroughputAndLatencyAgreeOnOrdering)
{
    // For a fixed group, throughput = totalFlops/makespan is a monotone
    // transform of 1/makespan, so the two objectives rank any two
    // mappings identically.
    auto p_tp = problem(3, Objective::Throughput);
    auto p_lat = problem(3, Objective::Latency);
    common::Rng rng(1);
    Mapping a = Mapping::random(20, p_tp->evaluator().numAccels(), rng);
    Mapping b = Mapping::random(20, p_tp->evaluator().numAccels(), rng);
    double ta = p_tp->evaluator().fitness(a);
    double tb = p_tp->evaluator().fitness(b);
    double la = p_lat->evaluator().fitness(a);
    double lb = p_lat->evaluator().fitness(b);
    EXPECT_EQ(ta > tb, la > lb);
}

TEST(Objectives, EnergyCountsAssignedCores)
{
    auto p = problem();
    auto& eval = p->evaluator();
    common::Rng rng(2);
    Mapping m = Mapping::random(20, eval.numAccels(), rng);
    double joules = eval.totalJoules(m);
    EXPECT_GT(joules, 0.0);
    double sum_pj = 0.0;
    for (int j = 0; j < 20; ++j)
        sum_pj += eval.table().lookup(j, m.accelSel[j]).energyPj;
    EXPECT_NEAR(joules, sum_pj * 1e-12, sum_pj * 1e-24);
}

TEST(Objectives, AllObjectivesFiniteAndPositive)
{
    common::Rng rng(3);
    Mapping m = Mapping::random(20, 4, rng);
    for (Objective o : {Objective::Throughput, Objective::Latency,
                        Objective::Energy, Objective::EnergyDelay,
                        Objective::PerfPerWatt}) {
        auto p = problem(3, o);
        double f = p->evaluator().fitness(m);
        EXPECT_TRUE(std::isfinite(f)) << sched::objectiveName(o);
        EXPECT_GT(f, 0.0) << sched::objectiveName(o);
    }
}

TEST(Objectives, EdpCombinesEnergyAndDelay)
{
    auto p = problem(4, Objective::EnergyDelay);
    auto& eval = p->evaluator();
    common::Rng rng(4);
    Mapping m = Mapping::random(20, eval.numAccels(), rng);
    sched::ScheduleResult r = eval.evaluate(m);
    double edp = eval.fitness(m);
    EXPECT_NEAR(edp,
                1.0 / (eval.totalJoules(m) * r.makespanSeconds),
                edp * 1e-9);
}

TEST(Objectives, SearchUnderEnergyPrefersLowEnergyMappings)
{
    // MAGMA optimizing the energy objective should find a mapping with no
    // more energy than the best throughput-optimized mapping it finds.
    opt::SearchOptions opts;
    opts.sampleBudget = 600;

    auto p_tp = problem(9, Objective::Throughput);
    opt::MagmaGa m1(1);
    sched::Mapping best_tp =
        m1.search(exec::EvalEngine(p_tp->evaluator(), 1), opts).best;

    auto p_en = problem(9, Objective::Energy);
    opt::MagmaGa m2(1);
    sched::Mapping best_en =
        m2.search(exec::EvalEngine(p_en->evaluator(), 1), opts).best;

    EXPECT_LE(p_en->evaluator().totalJoules(best_en),
              p_en->evaluator().totalJoules(best_tp) * 1.0001);
}

TEST(Objectives, PerfPerWattConsistency)
{
    auto p = problem(3, Objective::PerfPerWatt);
    auto& eval = p->evaluator();
    common::Rng rng(5);
    Mapping m = Mapping::random(20, eval.numAccels(), rng);
    sched::ScheduleResult r = eval.evaluate(m);
    double gflops = eval.throughputGflops(r.makespanSeconds);
    double watts = eval.totalJoules(m) / r.makespanSeconds;
    EXPECT_NEAR(eval.fitness(m), gflops / watts, gflops / watts * 1e-9);
}
