/** @file Parity tests for the allocation-free fast-path evaluator:
 * sched::FlatEvaluator must be bitwise identical to the reference
 * MappingEvaluator on every mapping, platform, BW policy and objective —
 * the contract that lets it score every search without perturbing any
 * search trajectory. */

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "sched/flat_eval.h"

using namespace magma;
using sched::EvalScratch;
using sched::FlatEvaluator;
using sched::Mapping;
using sched::Objective;

namespace {

constexpr Objective kObjectives[] = {
    Objective::Throughput, Objective::Latency, Objective::Energy,
    Objective::EnergyDelay, Objective::PerfPerWatt,
};

/** The kernel's scores of `m` equal the reference's bitwise: the
 * fitness, and simPoint's makespan and energy. fitness() and simPoint()
 * alternate on one scratch, so neither may depend on state the other
 * leaves behind. */
void
expectParity(const sched::MappingEvaluator& ev, const FlatEvaluator& flat,
             const Mapping& m, EvalScratch& scratch)
{
    const double makespan = ev.evaluate(m).makespanSeconds;
    EXPECT_EQ(flat.fitness(m, scratch), ev.fitness(m));
    EXPECT_EQ(scratch.makespanSeconds(), makespan);
    sched::SimPoint sp = flat.simPoint(m, scratch);
    EXPECT_EQ(sp.makespanSeconds, makespan);
    EXPECT_EQ(sp.joules, ev.totalJoules(m));
}

/** Priority genomes at the edges of what the decoder admits, each with
 * the jobs spread over the sub-accelerators (random), all on the first
 * and all on the last: 18 mappings of `g` jobs. */
std::vector<Mapping>
edgeCaseMappings(int g, int accels, common::Rng& rng)
{
    constexpr double kMax = std::numeric_limits<double>::max();
    constexpr double kTiny = std::numeric_limits<double>::denorm_min();
    const double kDuplicates[] = {0.75, 0.125, 0.75, 0.5};
    const double kSignedZeros[] = {0.0, -0.0, 0.0, 1e-300, -0.0};
    const double kOutOfRange[] = {-1e300, -1.0, -0.5,  1.0, 1.5,
                                  1e300,  kMax, -kMax, 0.5, 0.0};
    const double kSubnormals[] = {kTiny,   -kTiny, 1e-310, -1e-310,
                                  -0.0, 0.0,    2.2250738585072014e-308};

    std::vector<std::vector<double>> genomes;
    auto addGenome = [&](auto value_of) {
        std::vector<double> v(g);
        for (int j = 0; j < g; ++j)
            v[j] = value_of(j);
        genomes.push_back(v);
    };
    // Many distinct priorities inside one narrow interval, in reverse job
    // order.
    addGenome([&](int j) { return 0.25 + (g - j) * 1e-12; });
    // The same, straddling 0.5 from above and below.
    addGenome([&](int j) {
        return 0.5 + ((j % 2) ? 1.0 : -1.0) * (g - j) * 1e-15;
    });
    // Exact duplicates, within one queue and across queues.
    addGenome([&](int j) { return kDuplicates[j % 4]; });
    addGenome([&](int j) { return kSignedZeros[j % 5]; });
    // Negative, >= 1.0 and huge priorities.
    addGenome([&](int j) { return kOutOfRange[(j * 7) % 10]; });
    addGenome([&](int j) { return kSubnormals[(j * 3) % 7]; });

    std::vector<Mapping> cases;
    for (const std::vector<double>& genome : genomes) {
        for (int placement = 0; placement < 3; ++placement) {
            Mapping m = Mapping::random(g, accels, rng);
            m.priority = genome;
            if (placement == 1)
                m.accelSel.assign(g, 0);
            if (placement == 2)
                m.accelSel.assign(g, accels - 1);
            cases.push_back(m);
        }
    }
    return cases;
}

}  // namespace

/** The headline property: randomized mappings x platforms x BW policies x
 * all five objectives give bitwise-identical fitness, makespan and
 * energy. */
TEST(FlatEval, RandomizedBitwiseParityAcrossPlatformsPoliciesObjectives)
{
    common::Rng meta(0xf1a7);
    const accel::Setting settings[] = {accel::Setting::S1, accel::Setting::S2,
                                       accel::Setting::S4, accel::Setting::S6};
    const dnn::TaskType tasks[] = {dnn::TaskType::Vision,
                                   dnn::TaskType::Language,
                                   dnn::TaskType::Recommendation,
                                   dnn::TaskType::Mix};
    for (int trial = 0; trial < 12; ++trial) {
        dnn::TaskType task = tasks[meta.uniformInt(4)];
        accel::Setting setting = settings[meta.uniformInt(4)];
        double bw = 4.0 + 12.0 * meta.uniform();
        int group = 4 + meta.uniformInt(16);
        sched::BwPolicy policy = (trial % 2 == 0)
                                     ? sched::BwPolicy::Proportional
                                     : sched::BwPolicy::EvenSplit;
        Objective obj = kObjectives[trial % 5];
        auto p = m3e::makeProblem(task, setting, bw, group,
                                  /*seed=*/trial + 1, obj, policy);
        const sched::MappingEvaluator& ev = p->evaluator();
        FlatEvaluator flat(ev);
        EvalScratch scratch;
        common::Rng rng(100 + trial);
        for (int i = 0; i < 40; ++i) {
            Mapping m = Mapping::random(group, ev.numAccels(), rng);
            SCOPED_TRACE(testing::Message()
                         << "trial " << trial << " candidate " << i);
            expectParity(ev, flat, m, scratch);
        }
    }
}

/** The benchmark's shape (Mix, group 100, 16 GB/s) and its neighbours —
 * S3/S4/S5, groups of 1 and 300 — with mappings that leave
 * sub-accelerators empty and priorities of +-0.0 (equal under '<', so
 * the stable job-id order decides). fitness and simPoint alternate on
 * one scratch across the shapes' candidates. */
TEST(FlatEval, BenchmarkShapeParityAlternatingRecordFree)
{
    const accel::Setting settings[] = {accel::Setting::S3, accel::Setting::S4,
                                       accel::Setting::S5};
    int shape = 0;
    for (accel::Setting setting : settings) {
        for (int group : {100, 1, 300}) {
            ++shape;
            sched::BwPolicy policy = (shape % 3 == 0)
                                         ? sched::BwPolicy::EvenSplit
                                         : sched::BwPolicy::Proportional;
            auto p = m3e::makeProblem(dnn::TaskType::Mix, setting, 16.0,
                                      group, /*seed=*/100 + shape,
                                      Objective::Throughput, policy);
            const sched::MappingEvaluator& ev = p->evaluator();
            const int accels = ev.numAccels();
            FlatEvaluator flat(ev);
            EvalScratch scratch;
            common::Rng rng(200 + shape);
            for (int i = 0; i < 24; ++i) {
                Mapping m = Mapping::random(group, accels, rng);
                if (i % 3 == 1) {
                    // Only the first and last sub-accelerators get work.
                    for (int& a : m.accelSel)
                        a = (a % 2 == 0) ? 0 : accels - 1;
                }
                if (i % 3 == 2) {
                    for (double& pr : m.priority)
                        pr = rng.bernoulli(0.5) ? 0.0 : -0.0;
                }
                SCOPED_TRACE(testing::Message()
                             << "shape " << shape << " candidate " << i);
                expectParity(ev, flat, m, scratch);
            }
        }
    }
}

/** Equal priorities must keep the decoder's stable job-id order. */
TEST(FlatEval, TiedPrioritiesMatchStableDecodeOrder)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              12, 3);
    const sched::MappingEvaluator& ev = p->evaluator();
    FlatEvaluator flat(ev);
    EvalScratch scratch;
    Mapping m;
    m.accelSel.assign(12, 0);
    m.priority.assign(12, 0.5);  // all tied -> job-id order
    for (int j = 0; j < 12; ++j)
        m.accelSel[j] = j % ev.numAccels();
    expectParity(ev, flat, m, scratch);
}

/** Priority genomes at the edges of what the decoder admits —
 * Mapping::fromText accepts any finite priority, not just [0, 1) — on
 * groups of 1, 12, 100 and 300, with the jobs spread over the
 * sub-accelerators or all on one. Every case must decode to the
 * reference's (priority, job id) queue order, so fitness, makespan and
 * energy match bitwise. */
TEST(FlatEval, EdgeCasePrioritiesMatchReferenceDecodeOrder)
{
    struct Shape {
        accel::Setting setting;
        int group;
    };
    for (Shape shape : {Shape{accel::Setting::S2, 1},
                        Shape{accel::Setting::S2, 12},
                        Shape{accel::Setting::S4, 100},
                        Shape{accel::Setting::S4, 300}}) {
        const int g = shape.group;
        auto p = m3e::makeProblem(dnn::TaskType::Mix, shape.setting, 16.0,
                                  g, /*seed=*/g);
        const sched::MappingEvaluator& ev = p->evaluator();
        const int accels = ev.numAccels();
        FlatEvaluator flat(ev);
        EvalScratch scratch;
        common::Rng rng(300 + g);
        const std::vector<Mapping> cases = edgeCaseMappings(g, accels, rng);
        for (size_t c = 0; c < cases.size(); ++c) {
            const Mapping& m = cases[c];
            // fromText admits every one of these genomes.
            ASSERT_EQ(Mapping::fromText(m.toText()), m);
            SCOPED_TRACE(testing::Message() << "group " << g << " candidate "
                                            << c);
            expectParity(ev, flat, m, scratch);
        }
    }
}

/** Cells of zero demand (at or below kZeroDemandGbps) run on the wall
 * clock beside the BW-bound jobs, the path no cost-model table exercises:
 * a third of the cells get demand 0 or 1e-19, on both BW policies, BW
 * starved and not, under all five objectives. */
TEST(FlatEval, ZeroDemandCellsMatchReference)
{
    int shape = 0;
    for (sched::BwPolicy policy :
         {sched::BwPolicy::Proportional, sched::BwPolicy::EvenSplit}) {
        for (double bw : {1.0, 16.0}) {
            ++shape;
            auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S4,
                                      bw, 40, /*seed=*/shape);
            sched::JobAnalysisTable table = p->evaluator().table();
            common::Rng rng(700 + shape);
            for (int j = 0; j < table.numJobs(); ++j)
                for (int a = 0; a < table.numAccels(); ++a)
                    if (rng.uniformInt(3) == 0)
                        table.at(j, a).reqBwGbps =
                            rng.bernoulli(0.5) ? 0.0 : 1e-19;
            for (Objective obj : kObjectives) {
                sched::MappingEvaluator ev(p->group(), p->platform(), table,
                                           policy, obj);
                FlatEvaluator flat(ev);
                EvalScratch scratch;
                for (int i = 0; i < 12; ++i) {
                    Mapping m = Mapping::random(40, ev.numAccels(), rng);
                    SCOPED_TRACE(testing::Message() << "shape " << shape
                                                    << " candidate " << i);
                    expectParity(ev, flat, m, scratch);
                }
            }
        }
    }
}

/** With the system BW at least the summed demand nothing ever stalls, so
 * every queue runs back to back and the makespan is, bitwise, the largest
 * per-queue sum of no-stall seconds taken in queue order (starting from
 * 0.0) — under proportional sharing, whose virtual clock then is the wall
 * clock, and under the even split, whose wall ends chain exactly. */
TEST(FlatEval, UnconstrainedMakespanIsBusiestQueuePrefixSum)
{
    int shape = 0;
    for (sched::BwPolicy policy :
         {sched::BwPolicy::Proportional, sched::BwPolicy::EvenSplit}) {
        for (accel::Setting setting :
             {accel::Setting::S2, accel::Setting::S4, accel::Setting::S6}) {
            for (int g : {1, 12, 100}) {
                ++shape;
                auto p = m3e::makeProblem(dnn::TaskType::Mix, setting, 1e9, g,
                                          /*seed=*/shape,
                                          Objective::Throughput, policy);
                const sched::MappingEvaluator& ev = p->evaluator();
                const sched::JobAnalysisTable& table = ev.table();
                const int accels = ev.numAccels();
                double demand = 0.0;
                for (int j = 0; j < g; ++j)
                    for (int a = 0; a < accels; ++a) {
                        ASSERT_GT(table.lookup(j, a).reqBwGbps, 1e-18);
                        demand += table.lookup(j, a).reqBwGbps;
                    }
                ASSERT_LE(demand * accels, 1e9);  // even split too
                FlatEvaluator flat(ev);
                EvalScratch scratch;
                common::Rng rng(800 + shape);
                std::vector<Mapping> cases = edgeCaseMappings(g, accels, rng);
                for (int i = 0; i < 24; ++i)
                    cases.push_back(Mapping::random(g, accels, rng));
                for (size_t c = 0; c < cases.size(); ++c) {
                    const Mapping& m = cases[c];
                    SCOPED_TRACE(testing::Message() << "shape " << shape
                                                    << " candidate " << c);
                    double busiest = 0.0;
                    for (const std::vector<int>& q :
                         sched::decode(m, accels).queues) {
                        double sum = 0.0;
                        for (int j : q)
                            sum += table.lookup(j, m.accelSel[j])
                                       .noStallSeconds;
                        busiest = std::max(busiest, sum);
                    }
                    flat.fitness(m, scratch);
                    EXPECT_EQ(scratch.makespanSeconds(), busiest);
                    EXPECT_EQ(ev.evaluate(m).makespanSeconds, busiest);
                }
            }
        }
    }
}

/** The load bound L' never exceeds the simulated makespan — random and
 * edge-case mappings (jobs piled on one sub-accelerator make the bound
 * tightest) on both BW policies, BW-starved and not, groups of 1 to 300.
 * Each candidate is scored at a makespan cutoff of L' itself, where it
 * must stop at the bound with an upper bound on its fitness, and one ulp
 * above, where it must be simulated exactly. */
TEST(FlatEval, LoadBoundNeverExceedsSimulatedMakespan)
{
    const double kTiny = std::numeric_limits<double>::denorm_min();
    const double kInf = std::numeric_limits<double>::infinity();
    int shape = 0;
    int bounded = 0;
    double tightest = 0.0;  // largest bound / makespan seen
    for (sched::BwPolicy policy :
         {sched::BwPolicy::Proportional, sched::BwPolicy::EvenSplit}) {
        for (double bw : {1.0, 16.0}) {
            for (int g : {1, 12, 100, 300}) {
                ++shape;
                auto p = m3e::makeProblem(dnn::TaskType::Mix,
                                          accel::Setting::S4, bw, g,
                                          /*seed=*/shape,
                                          Objective::Throughput, policy);
                const sched::MappingEvaluator& ev = p->evaluator();
                FlatEvaluator flat(ev);
                EvalScratch scratch;
                common::Rng rng(500 + shape);
                std::vector<Mapping> cases =
                    edgeCaseMappings(g, ev.numAccels(), rng);
                for (int i = 0; i < 24; ++i)
                    cases.push_back(Mapping::random(g, ev.numAccels(), rng));
                for (size_t c = 0; c < cases.size(); ++c) {
                    const Mapping& m = cases[c];
                    SCOPED_TRACE(testing::Message() << "shape " << shape
                                                    << " candidate " << c);
                    const double exact = ev.fitness(m);
                    const double makespan = ev.evaluate(m).makespanSeconds;

                    // Any positive bound passes a cutoff of denorm_min.
                    double f = flat.fitness(m, scratch, kTiny);
                    if (!scratch.bounded()) {
                        EXPECT_EQ(f, exact);
                        continue;
                    }
                    const double bound = scratch.makespanSeconds();
                    ++bounded;
                    tightest = std::max(tightest, bound / makespan);
                    EXPECT_GT(bound, 0.0);
                    EXPECT_LE(bound, makespan);
                    EXPECT_GE(f, exact);

                    EXPECT_EQ(flat.fitness(m, scratch, bound), f);
                    EXPECT_TRUE(scratch.bounded());
                    EXPECT_EQ(flat.fitness(m, scratch,
                                           std::nextafter(bound, kInf)),
                              exact);
                    EXPECT_FALSE(scratch.bounded());
                    EXPECT_EQ(scratch.makespanSeconds(), makespan);
                }
            }
        }
    }
    // The bound is exercised, and in places it is as tight as its margin.
    EXPECT_GT(bounded, 100);
    EXPECT_GT(tightest, 1.0 - 1e-8);
}

/** makespanCutoff(T) is the least makespan scoring strictly below T, for
 * the two objectives that read the makespan alone, and +inf (bound
 * nothing) otherwise. */
TEST(FlatEval, MakespanCutoffIsLeastMakespanScoringBelow)
{
    const double kInf = std::numeric_limits<double>::infinity();
    for (Objective obj : kObjectives) {
        auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S4,
                                  16.0, 40, 3, obj);
        const sched::MappingEvaluator& ev = p->evaluator();
        FlatEvaluator flat(ev);
        EvalScratch scratch;
        common::Rng rng(77);
        const bool makespan_only =
            obj == Objective::Throughput || obj == Objective::Latency;
        for (int i = 0; i < 50; ++i) {
            Mapping m = Mapping::random(40, ev.numAccels(), rng);
            const double t = flat.fitness(m, scratch);
            const double cut = flat.makespanCutoff(t);
            if (!makespan_only) {
                EXPECT_EQ(cut, kInf);
                continue;
            }
            auto score = [&](double makespan) {
                return sched::objectiveFromSimulation(
                    obj, makespan, 0.0, ev.group().totalFlops());
            };
            ASSERT_LT(cut, kInf);
            EXPECT_LT(score(cut), t);
            EXPECT_GE(score(std::nextafter(cut, 0.0)), t);
            // The candidate's own makespan scores t, so it is below cut.
            EXPECT_LT(scratch.makespanSeconds(), cut);
        }
        for (double t : {0.0, -1.0, kInf, -kInf,
                         std::numeric_limits<double>::quiet_NaN()})
            EXPECT_EQ(flat.makespanCutoff(t), kInf);
    }
}

/** One scratch must be reusable across problems of different shapes. */
TEST(FlatEval, ScratchResizesAcrossProblems)
{
    EvalScratch scratch;
    common::Rng rng(7);
    for (int group : {20, 6, 33}) {
        auto p = m3e::makeProblem(dnn::TaskType::Vision, accel::Setting::S3,
                                  10.0, group, group);
        const sched::MappingEvaluator& ev = p->evaluator();
        FlatEvaluator flat(ev);
        for (int i = 0; i < 10; ++i) {
            Mapping m = Mapping::random(group, ev.numAccels(), rng);
            EXPECT_EQ(ev.fitness(m), flat.fitness(m, scratch));
        }
    }
}

/** EvalEngine batch parity: a 4-lane flat batch must equal the serial
 * reference loop element-by-element, in submission order. */
TEST(FlatEval, EvalEngineFourThreadBatchMatchesSerialReference)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S4, 16.0,
                              24, 11);
    const sched::MappingEvaluator& ev = p->evaluator();
    common::Rng rng(21);
    std::vector<Mapping> batch;
    for (int i = 0; i < 96; ++i)
        batch.push_back(Mapping::random(24, ev.numAccels(), rng));

    exec::EvalEngine flat4(ev, 4);
    EXPECT_EQ(flat4.numThreads(), 4);
    std::vector<double> got = flat4.evaluateBatch(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(got[i], ev.fitness(batch[i])) << "candidate " << i;

    // fitnessOne (the recorder's serial path) agrees too.
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(flat4.fitnessOne(batch[i]), ev.fitness(batch[i]));
}

