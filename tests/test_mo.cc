/**
 * @file
 * Unit tests for the multi-objective subsystem (src/mo/): dominance and
 * front machinery, ParetoArchive invariants + text persistence,
 * vector-objective evaluation parity against scalar evaluators, NSGA-II
 * determinism across thread counts and kernels, and front quality
 * against the five single-objective optima on Mix/S2.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <vector>

#include "api/runner.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "mo/nsga2.h"
#include "mo/pareto.h"
#include "mo/vector_fitness.h"
#include "obs/metrics.h"
#include "opt/magma_ga.h"

using namespace magma;
using mo::MoPoint;
using mo::ObjectiveVector;
using mo::ParetoArchive;

namespace {

const std::vector<sched::Objective> kAllObjectives = {
    sched::Objective::Throughput, sched::Objective::Latency,
    sched::Objective::Energy, sched::Objective::EnergyDelay,
    sched::Objective::PerfPerWatt};

/** Mix/S2 under bandwidth pressure — the regime where throughput and
 * energy genuinely trade off (at compute-bound BW the front collapses
 * toward a single jointly-optimal point). */
std::unique_ptr<m3e::Problem>
mixS2Problem(int group = 30, uint64_t seed = 1)
{
    return m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 2.0,
                            group, seed);
}

/** Element k of vecs[i] is the fitness a fresh MappingEvaluator fixed on
 * objectives[k] gives ms[i], over the same group, platform and cost
 * model. */
void
expectMatchesScalarEvaluators(const m3e::Problem& p,
                              const std::vector<sched::Objective>& objectives,
                              const std::vector<sched::Mapping>& ms,
                              const std::vector<ObjectiveVector>& vecs)
{
    ASSERT_EQ(vecs.size(), ms.size());
    for (size_t k = 0; k < objectives.size(); ++k) {
        sched::MappingEvaluator scalar(p.group(), p.platform(),
                                       p.costModel(),
                                       sched::BwPolicy::Proportional,
                                       nullptr, objectives[k]);
        for (size_t i = 0; i < ms.size(); ++i)
            EXPECT_EQ(vecs[i][k], scalar.fitness(ms[i]))
                << "objective " << sched::objectiveName(objectives[k])
                << " candidate " << i;
    }
}

MoPoint
point(std::vector<double> objs)
{
    MoPoint p;
    p.objs = std::move(objs);
    p.m.accelSel = {0};
    p.m.priority = {0.5};
    return p;
}

}  // namespace

// ------------------------------------------------- dominance basics ---

TEST(Dominance, StrictAndWeak)
{
    ObjectiveVector a = {2.0, 3.0};
    ObjectiveVector b = {1.0, 3.0};
    ObjectiveVector c = {3.0, 1.0};
    EXPECT_TRUE(mo::dominates(a, b));
    EXPECT_FALSE(mo::dominates(b, a));
    EXPECT_FALSE(mo::dominates(a, c));
    EXPECT_FALSE(mo::dominates(c, a));
    EXPECT_FALSE(mo::dominates(a, a));  // equal: not strict
    EXPECT_TRUE(mo::weaklyDominates(a, a));
    EXPECT_TRUE(mo::weaklyDominates(a, b));
    EXPECT_FALSE(mo::weaklyDominates(b, a));
}

TEST(Dominance, NonDominatedRanksHandCase)
{
    // Front 0: (4,1), (1,4), (3,3); front 1: (2,2); front 2: (1,1).
    std::vector<ObjectiveVector> objs = {
        {4, 1}, {1, 4}, {2, 2}, {3, 3}, {1, 1}};
    std::vector<int> rank = mo::nonDominatedRanks(objs);
    EXPECT_EQ(rank, (std::vector<int>{0, 0, 1, 0, 2}));
}

TEST(Dominance, CrowdingBoundariesAreInfinite)
{
    std::vector<ObjectiveVector> objs = {{1, 4}, {2, 3}, {3, 2}, {4, 1}};
    std::vector<int> front = {0, 1, 2, 3};
    std::vector<double> crowd = mo::crowdingDistances(objs, front);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(crowd[0], kInf);
    EXPECT_EQ(crowd[3], kInf);
    EXPECT_GT(crowd[1], 0.0);
    EXPECT_LT(crowd[1], kInf);
    // Symmetric spacing: the two interior points are equally crowded.
    EXPECT_DOUBLE_EQ(crowd[1], crowd[2]);
}

// --------------------------------------------------- ParetoArchive ---

TEST(ParetoArchive, KeepsMutuallyNonDominated)
{
    ParetoArchive arch({sched::Objective::Throughput,
                        sched::Objective::Energy});
    EXPECT_TRUE(arch.insert(point({2.0, 2.0})));
    EXPECT_FALSE(arch.insert(point({1.0, 2.0})));  // dominated
    EXPECT_FALSE(arch.insert(point({2.0, 2.0})));  // duplicate
    EXPECT_TRUE(arch.insert(point({3.0, 1.0})));   // trade-off
    EXPECT_TRUE(arch.insert(point({1.0, 3.0})));   // trade-off
    ASSERT_EQ(arch.size(), 3u);
    EXPECT_TRUE(arch.insert(point({4.0, 4.0})));   // dominates all
    ASSERT_EQ(arch.size(), 1u);
    EXPECT_EQ(arch.points()[0].objs, (ObjectiveVector{4.0, 4.0}));

    EXPECT_THROW(arch.insert(point({1.0})), std::invalid_argument);
}

TEST(ParetoArchive, CapacityPrunesLeastCrowded)
{
    ParetoArchive arch(
        {sched::Objective::Throughput, sched::Objective::Energy}, 3);
    EXPECT_TRUE(arch.insert(point({1.0, 10.0})));
    EXPECT_TRUE(arch.insert(point({10.0, 1.0})));
    EXPECT_TRUE(arch.insert(point({5.0, 5.0})));
    // (5.2, 4.9): non-dominated, but squeezes next to (5,5); one of the
    // two interior points must go — the extremes always survive.
    arch.insert(point({5.2, 4.9}));
    ASSERT_EQ(arch.size(), 3u);
    bool has_lo = false, has_hi = false;
    for (const MoPoint& p : arch.points()) {
        has_lo |= p.objs == ObjectiveVector{1.0, 10.0};
        has_hi |= p.objs == ObjectiveVector{10.0, 1.0};
    }
    EXPECT_TRUE(has_lo);
    EXPECT_TRUE(has_hi);
}

TEST(ParetoArchive, TextRoundTripIsExact)
{
    common::Rng rng(7);
    ParetoArchive arch(
        {sched::Objective::Throughput, sched::Objective::EnergyDelay}, 16);
    for (int i = 0; i < 10; ++i) {
        MoPoint p;
        p.m = sched::Mapping::random(12, 4, rng);
        // Anti-correlated objectives keep most points on the front.
        double t = rng.uniform();
        p.objs = {1.0 + t, 2.0 - t};
        arch.insert(p);
    }
    ASSERT_GT(arch.size(), 2u);
    ParetoArchive back = ParetoArchive::fromText(arch.toText());
    EXPECT_EQ(back, arch);

    std::string path = ::testing::TempDir() + "mo_front.txt";
    arch.save(path);
    EXPECT_EQ(ParetoArchive::load(path), arch);
    std::remove(path.c_str());

    EXPECT_THROW(ParetoArchive::fromText("no header\n"),
                 std::invalid_argument);
    // The capacity is one whole unsigned token: `-1` used to wrap to
    // 2^64 - 1, an unbounded archive.
    for (const char* capacity : {"-1", "\v8", "+8", "18446744073709551616"})
        EXPECT_THROW(ParetoArchive::fromText(
                         std::string("magma-pareto-front v1\ncapacity=") +
                         capacity + "\n"),
                     std::invalid_argument)
            << capacity;
    EXPECT_THROW(ParetoArchive::load("/nonexistent/front.txt"),
                 std::runtime_error);
}

TEST(ParetoArchive, HypervolumeKnownValues)
{
    ParetoArchive arch(
        {sched::Objective::Throughput, sched::Objective::Energy});
    ObjectiveVector origin = {0.0, 0.0};
    EXPECT_EQ(arch.hypervolume(origin), 0.0);
    arch.insert(point({3.0, 1.0}));
    EXPECT_DOUBLE_EQ(arch.hypervolume(origin), 3.0);
    arch.insert(point({1.0, 2.0}));
    // Union of [0,3]x[0,1] and [0,1]x[0,2]: 3 + 1 = 4.
    EXPECT_DOUBLE_EQ(arch.hypervolume(origin), 4.0);
    // Shifted reference clips: ref (1,0) leaves [1,3]x[0,1] = 2 plus
    // nothing from (1,2) (not strictly inside on obj0).
    EXPECT_DOUBLE_EQ(arch.hypervolume({1.0, 0.0}), 2.0);

    ParetoArchive arch3({sched::Objective::Throughput,
                         sched::Objective::Energy,
                         sched::Objective::Latency});
    arch3.insert(point({2.0, 3.0, 4.0}));
    EXPECT_DOUBLE_EQ(arch3.hypervolume({0.0, 0.0, 0.0}), 24.0);
    arch3.insert(point({3.0, 2.0, 4.0}));
    // Adds (3-2)*2*4 = 8 beyond the first box.
    EXPECT_DOUBLE_EQ(arch3.hypervolume({0.0, 0.0, 0.0}), 32.0);
}

TEST(ParetoArchive, EpsilonIndicator)
{
    std::vector<ObjectiveVector> a = {{2.0, 2.0}};
    std::vector<ObjectiveVector> b = {{3.0, 1.0}, {1.0, 3.0}};
    // Each b needs a shifted up by 1 in one objective.
    EXPECT_DOUBLE_EQ(ParetoArchive::epsilonIndicator(a, b), 1.0);
    // a covers itself with no shift; b covers a with eps -1 (b's (3,1)
    // is 1 short on obj1, (1,3) is 1 short on obj0 -> min over b is 1).
    EXPECT_DOUBLE_EQ(ParetoArchive::epsilonIndicator(a, a), 0.0);
    EXPECT_DOUBLE_EQ(ParetoArchive::epsilonIndicator(b, a), 1.0);
    EXPECT_EQ(ParetoArchive::epsilonIndicator({}, b),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(ParetoArchive::epsilonIndicator(a, {}), 0.0);
}

TEST(ParetoArchive, SeedMappingsPreserveInsertionOrder)
{
    common::Rng rng(3);
    ParetoArchive arch({sched::Objective::Throughput});
    sched::Mapping m = sched::Mapping::random(8, 4, rng);
    MoPoint p;
    p.m = m;
    p.objs = {1.0};
    arch.insert(p);
    std::vector<sched::Mapping> seeds = arch.seedMappings();
    ASSERT_EQ(seeds.size(), 1u);
    EXPECT_EQ(seeds[0], m);
}

// --------------------------------------------- vector evaluation ---

TEST(VectorFitness, BitwiseEqualsPerObjectiveScalarEvaluation)
{
    const int group = 20;
    auto base = mixS2Problem(group);
    common::Rng rng(42);

    exec::EvalEngine engine(base->evaluator(), 1);
    mo::VectorFitness vf(engine, kAllObjectives);
    std::vector<sched::Mapping> batch;
    for (int i = 0; i < 16; ++i)
        batch.push_back(sched::Mapping::random(
            group, base->evaluator().numAccels(), rng));
    std::vector<ObjectiveVector> vecs = vf.evaluateBatch(batch);
    expectMatchesScalarEvaluators(*base, kAllObjectives, batch, vecs);
}

TEST(VectorFitness, OneSamplePerCandidateNotPerObjective)
{
    auto p = mixS2Problem(16);
    exec::EvalEngine engine(p->evaluator(), 1);
    mo::VectorFitness vf(engine, kAllObjectives);
    common::Rng rng(5);
    std::vector<sched::Mapping> batch;
    for (int i = 0; i < 10; ++i)
        batch.push_back(
            sched::Mapping::random(16, p->evaluator().numAccels(), rng));
    const obs::MetricsLevel saved = obs::metricsLevel();
    obs::setMetricsLevel(obs::MetricsLevel::Counters);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    auto scored = [&] {
        return reg.counter("exec.eval.candidates").value() +
               reg.counter("exec.eval.singles").value();
    };
    const int64_t before = scored();
    vf.evaluateBatch(batch);
    EXPECT_EQ(scored() - before, 10);
    obs::setMetricsLevel(saved);
}

TEST(VectorFitness, BatchIsThreadCountInvariant)
{
    auto p = mixS2Problem(18);
    common::Rng rng(9);
    std::vector<sched::Mapping> batch;
    for (int i = 0; i < 32; ++i)
        batch.push_back(
            sched::Mapping::random(18, p->evaluator().numAccels(), rng));
    exec::EvalEngine serial_engine(p->evaluator(), 1);
    exec::EvalEngine parallel_engine(p->evaluator(), 4);
    mo::VectorFitness serial(serial_engine, kAllObjectives);
    mo::VectorFitness parallel(parallel_engine, kAllObjectives);
    EXPECT_EQ(serial.evaluateBatch(batch), parallel.evaluateBatch(batch));
}

// ------------------------------------------------------- NSGA-II ---

TEST(Nsga2, FrontIsMutuallyNonDominated)
{
    auto p = mixS2Problem();
    mo::Nsga2 nsga(1);
    opt::SearchOptions opts;
    opts.sampleBudget = 1500;
    mo::MoSearchResult res = nsga.searchMo(
        exec::EvalEngine(p->evaluator(), 1),
        {sched::Objective::Throughput, sched::Objective::Energy}, opts);
    const auto& pts = res.front.points();
    ASSERT_GE(pts.size(), 2u);  // BW-starved Mix/S2 has a real trade-off
    EXPECT_EQ(res.samplesUsed, 1500);
    for (size_t i = 0; i < pts.size(); ++i)
        for (size_t j = 0; j < pts.size(); ++j)
            if (i != j) {
                EXPECT_FALSE(mo::dominates(pts[i].objs, pts[j].objs))
                    << i << " dominates " << j;
            }
}

/** The same front at 1 and 4 threads, and every member's objectives are
 * the ones MappingEvaluators fixed on each objective give its mapping. */
TEST(Nsga2, BitwiseIdenticalAcrossThreadCountsAndToScalarEvaluators)
{
    auto p = mixS2Problem();
    std::vector<sched::Objective> objectives = {
        sched::Objective::Throughput, sched::Objective::Energy};

    auto run = [&](int threads) {
        mo::Nsga2 nsga(7);
        opt::SearchOptions opts;
        opts.sampleBudget = 1200;
        return nsga.searchMo(exec::EvalEngine(p->evaluator(), threads),
                             objectives, opts);
    };

    mo::MoSearchResult serial = run(1);
    mo::MoSearchResult wide = run(4);
    ASSERT_GE(serial.front.size(), 2u);
    EXPECT_EQ(serial.front, wide.front);
    EXPECT_EQ(serial.samplesUsed, wide.samplesUsed);

    std::vector<sched::Mapping> members;
    std::vector<ObjectiveVector> vecs;
    for (const MoPoint& pt : serial.front.points()) {
        members.push_back(pt.m);
        vecs.push_back(pt.objs);
    }
    expectMatchesScalarEvaluators(*p, objectives, members, vecs);
}

TEST(Nsga2, BudgetTruncationMidGeneration)
{
    auto p = mixS2Problem(12);
    mo::Nsga2 nsga(3);
    opt::SearchOptions opts;
    opts.sampleBudget = 150;  // pop 100: truncates the second generation
    mo::MoSearchResult res = nsga.searchMo(
        exec::EvalEngine(p->evaluator(), 1),
        {sched::Objective::Throughput, sched::Objective::Energy}, opts);
    EXPECT_EQ(res.samplesUsed, 150);
    EXPECT_FALSE(res.front.empty());
}

TEST(Nsga2, FrontCoversOrBeatsAllFiveScalarOptima)
{
    // Section VI's five reporting lenses, one scalar MAGMA run each;
    // their optima then seed NSGA-II (the warm-start path fronts are
    // meant for), whose archive must end with every scalar optimum
    // covered — each is weakly dominated by some front member — and no
    // front member dominated by any optimum.
    auto p = mixS2Problem();
    opt::SearchOptions scalar_opts;
    scalar_opts.sampleBudget = 800;

    exec::EvalEngine engine(p->evaluator(), 1);
    mo::VectorFitness vf(engine, kAllObjectives);
    std::vector<sched::Mapping> optima;
    std::vector<ObjectiveVector> optima_vecs;
    for (sched::Objective o : kAllObjectives) {
        sched::MappingEvaluator scalar(p->group(), p->platform(),
                                       p->costModel(),
                                       sched::BwPolicy::Proportional,
                                       nullptr, o);
        opt::MagmaGa ga(11);
        opt::SearchResult r =
            ga.search(exec::EvalEngine(scalar, 1), scalar_opts);
        optima.push_back(r.best);
        optima_vecs.push_back(vf.evaluate(r.best));
    }

    mo::Nsga2Config cfg;
    cfg.archiveCapacity = 0;  // unbounded: coverage must be exact
    mo::Nsga2 nsga(11, cfg);
    opt::SearchOptions mo_opts;
    mo_opts.sampleBudget = 2000;
    mo_opts.seeds = optima;
    mo::MoSearchResult res =
        nsga.searchMo(engine, kAllObjectives, mo_opts);
    const auto& pts = res.front.points();
    ASSERT_FALSE(pts.empty());

    for (size_t i = 0; i < pts.size(); ++i)
        for (size_t k = 0; k < optima_vecs.size(); ++k)
            EXPECT_FALSE(mo::dominates(optima_vecs[k], pts[i].objs))
                << "scalar optimum " << k << " dominates front point "
                << i;
    for (size_t k = 0; k < optima_vecs.size(); ++k) {
        bool covered = false;
        for (const MoPoint& pt : pts)
            covered |= mo::weaklyDominates(pt.objs, optima_vecs[k]);
        EXPECT_TRUE(covered)
            << "front misses scalar optimum "
            << sched::objectiveName(kAllObjectives[k]);
    }
}

TEST(Nsga2, ScalarModeBehavesLikeAnOptimizer)
{
    auto p = mixS2Problem(16);
    opt::SearchOptions opts;
    opts.sampleBudget = 600;
    mo::Nsga2 a(5), b(5);
    opt::SearchResult ra = a.search(exec::EvalEngine(p->evaluator(), 1), opts);
    opt::SearchResult rb = b.search(exec::EvalEngine(p->evaluator(), 1), opts);
    EXPECT_EQ(ra.best, rb.best);
    EXPECT_EQ(ra.bestFitness, rb.bestFitness);
    EXPECT_EQ(ra.samplesUsed, 600);
    EXPECT_GT(ra.bestFitness, 0.0);

    mo::Nsga2 empty(5);
    EXPECT_THROW(
        empty.searchMo(exec::EvalEngine(p->evaluator(), 1), {}, opts),
        std::invalid_argument);
}

// ------------------------------------------------- api/ wiring ---

TEST(RunnerMo, ReportCarriesFrontAndRoundTrips)
{
    api::ProblemSpec ps;
    ps.groupSize = 30;
    ps.systemBwGbps = 2.0;
    api::SearchSpec ss;
    ss.method = "nsga2";
    ss.objectives = {sched::Objective::Throughput,
                     sched::Objective::Energy};
    ss.sampleBudget = 1500;
    ss.seed = 1;

    api::Runner runner;
    api::RunReport rep = runner.run(ps, ss);
    EXPECT_EQ(rep.method, "NSGA-II");
    ASSERT_GE(rep.front.size(), 2u);
    EXPECT_EQ(rep.samplesUsed, 1500);

    // `best` is the primary-objective argmax of the front.
    double best0 = rep.front[0].objs[0];
    for (const MoPoint& pt : rep.front)
        best0 = std::max(best0, pt.objs[0]);
    EXPECT_EQ(rep.bestFitness, best0);

    api::RunReport back = api::RunReport::fromText(rep.toText());
    EXPECT_EQ(back, rep);

    std::string csv = rep.frontCsv();
    EXPECT_NE(csv.find("point,throughput,energy,mapping"),
              std::string::npos);
    size_t rows = 0;
    for (char c : csv)
        rows += c == '\n';
    EXPECT_EQ(rows, rep.front.size() + 1);

    // The archive view persists and reloads exactly.
    mo::ParetoArchive arch = rep.frontArchive();
    EXPECT_EQ(arch.size(), rep.front.size());
    EXPECT_EQ(mo::ParetoArchive::fromText(arch.toText()), arch);
}

TEST(RunnerMo, DeterministicAcrossRunnersAndThreads)
{
    api::ProblemSpec ps;
    ps.groupSize = 16;
    ps.systemBwGbps = 2.0;
    api::SearchSpec ss;
    ss.method = "NSGA-II";
    ss.objectives = {sched::Objective::Throughput,
                     sched::Objective::Energy};
    ss.sampleBudget = 800;
    ss.seed = 4;

    api::Runner r1, r2;
    api::RunReport a = r1.run(ps, ss);
    ss.threads = 4;
    api::RunReport b = r2.run(ps, ss);
    EXPECT_EQ(a.front, b.front);
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.bestFitness, b.bestFitness);
}

TEST(RunnerMo, ScalarOnlyMethodRejectsObjectivesList)
{
    api::ProblemSpec ps;
    ps.groupSize = 12;
    api::SearchSpec ss;
    ss.method = "MAGMA";
    ss.objectives = {sched::Objective::Throughput,
                     sched::Objective::Energy};
    ss.sampleBudget = 100;
    api::Runner runner;
    EXPECT_THROW(runner.run(ps, ss), std::invalid_argument);
}

TEST(RunnerMo, ObjectiveListTextForms)
{
    EXPECT_EQ(sched::objectiveListName({}), "");
    EXPECT_EQ(sched::objectiveListName(
                  {sched::Objective::Throughput,
                   sched::Objective::EnergyDelay}),
              "throughput,energy-delay-product");
    EXPECT_EQ(sched::objectiveListFromName(""),
              std::vector<sched::Objective>{});
    EXPECT_EQ(sched::objectiveListFromName("throughput, edp"),
              (std::vector<sched::Objective>{
                  sched::Objective::Throughput,
                  sched::Objective::EnergyDelay}));
    EXPECT_THROW(sched::objectiveListFromName("throughput,bogus"),
                 std::invalid_argument);
    // Blank ELEMENTS are malformed (they would silently disable
    // multi-objective mode); only a fully blank input is the empty list.
    EXPECT_THROW(sched::objectiveListFromName(","),
                 std::invalid_argument);
    EXPECT_THROW(sched::objectiveListFromName("throughput,,energy"),
                 std::invalid_argument);
    EXPECT_EQ(sched::objectiveListFromName("  "),
              std::vector<sched::Objective>{});

    MoPoint p;
    p.m.accelSel = {1, 0};
    p.m.priority = {0.25, 0.75};
    p.objs = {1.5, 0x1.23456789abcdep-3};
    EXPECT_EQ(MoPoint::fromText(p.toText()), p);
    EXPECT_THROW(MoPoint::fromText("1.0 2.0 | no-semicolon"),
                 std::invalid_argument);
}
