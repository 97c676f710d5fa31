/** @file Unit tests for the black-box optimizers and MAGMA's operators. */

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "obs/metrics.h"
#include "opt/cma_es.h"
#include "opt/de.h"
#include "opt/magma_ga.h"
#include "opt/pso.h"
#include "opt/random_search.h"
#include "opt/std_ga.h"
#include "opt/tbpsa.h"
#include "opt/warm_start.h"

using namespace magma;
using opt::SearchOptions;
using opt::SearchResult;
using sched::Mapping;
namespace transfer = opt::transfer;

namespace {

std::unique_ptr<m3e::Problem>
smallProblem(uint64_t seed = 11)
{
    return m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0, 16,
                            seed);
}

/** gtest parameter names for registry method names ("RL A2C" ->
 * "RL_A2C"). */
std::string
paramName(const ::testing::TestParamInfo<std::string>& info)
{
    std::string n = info.param;
    for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return n;
}

std::unique_ptr<opt::Optimizer>
make(const std::string& method, uint64_t seed)
{
    return api::OptimizerRegistry::global().make(method, seed);
}

}  // namespace

// ------------------------------------------------------ SearchRecorder ---

TEST(SearchRecorder, EnforcesBudgetAndTracksBest)
{
    auto p = smallProblem();
    SearchOptions opts;
    opts.sampleBudget = 7;
    exec::EvalEngine engine(p->evaluator(), 1);
    opt::SearchRecorder rec(engine, opts);
    common::Rng rng(1);
    double best = -1e300;
    for (int i = 0; i < 7; ++i) {
        EXPECT_FALSE(rec.exhausted());
        double f = rec.evaluate(
            Mapping::random(16, p->evaluator().numAccels(), rng));
        best = std::max(best, f);
    }
    EXPECT_TRUE(rec.exhausted());
    EXPECT_DOUBLE_EQ(rec.bestFitness(), best);
    SearchResult r = rec.finish();
    EXPECT_EQ(r.samplesUsed, 7);
    EXPECT_DOUBLE_EQ(r.bestFitness, best);
}

TEST(SearchRecorder, ConvergenceCurveMonotone)
{
    auto p = smallProblem();
    SearchOptions opts;
    opts.sampleBudget = 50;
    opts.recordConvergence = true;
    opt::RandomSearch rs(3);
    SearchResult r = rs.search(exec::EvalEngine(p->evaluator(), 1), opts);
    ASSERT_EQ(r.convergence.size(), 50u);
    for (size_t i = 1; i < r.convergence.size(); ++i)
        EXPECT_GE(r.convergence[i], r.convergence[i - 1]);
    EXPECT_DOUBLE_EQ(r.convergence.back(), r.bestFitness);
}

TEST(SearchRecorder, RecordsSamplesWhenAsked)
{
    auto p = smallProblem();
    SearchOptions opts;
    opts.sampleBudget = 20;
    opts.recordSamples = true;
    opt::RandomSearch rs(4);
    SearchResult r = rs.search(exec::EvalEngine(p->evaluator(), 1), opts);
    EXPECT_EQ(r.sampled.size(), 20u);
    EXPECT_EQ(r.sampledFitness.size(), 20u);
}

// ------------------------------------------------------ budget respect ---

class BudgetSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(BudgetSweep, EveryMethodRespectsBudget)
{
    const obs::MetricsLevel saved = obs::metricsLevel();
    obs::setMetricsLevel(obs::MetricsLevel::Counters);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    auto scored = [&] {
        return reg.counter("exec.eval.candidates").value() +
               reg.counter("exec.eval.singles").value();
    };
    auto p = smallProblem();
    auto optimizer = make(GetParam(), 5);
    SearchOptions opts;
    opts.sampleBudget = 120;
    const int64_t before = scored();
    SearchResult r =
        optimizer->search(exec::EvalEngine(p->evaluator(), 1), opts);
    EXPECT_EQ(scored() - before, r.samplesUsed);
    obs::setMetricsLevel(saved);
    EXPECT_LE(r.samplesUsed, 120);
    EXPECT_GT(r.samplesUsed, 0);
    EXPECT_GT(r.bestFitness, 0.0);
    EXPECT_EQ(r.best.size(), 16);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, BudgetSweep,
    ::testing::Values("Herald-like", "AI-MT-like", "PSO", "CMA", "DE",
                      "TBPSA", "stdGA", "MAGMA", "Random"),
    paramName);

class SeedDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(SeedDeterminism, SameSeedSameResult)
{
    auto p = smallProblem();
    SearchOptions opts;
    opts.sampleBudget = 150;
    auto o1 = make(GetParam(), 99);
    auto o2 = make(GetParam(), 99);
    SearchResult r1 = o1->search(exec::EvalEngine(p->evaluator(), 1), opts);
    SearchResult r2 = o2->search(exec::EvalEngine(p->evaluator(), 1), opts);
    EXPECT_DOUBLE_EQ(r1.bestFitness, r2.bestFitness);
    EXPECT_EQ(r1.best, r2.best);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, SeedDeterminism,
    ::testing::Values("PSO", "CMA", "DE", "TBPSA", "stdGA", "MAGMA",
                      "Random"),
    paramName);

// --------------------------------------------- search quality (smoke) ----

class BeatsEarlyRandom : public ::testing::TestWithParam<std::string> {};

TEST_P(BeatsEarlyRandom, SearchImprovesOverFirstSamples)
{
    auto p = smallProblem(21);
    SearchOptions opts;
    opts.sampleBudget = 600;
    opts.recordConvergence = true;
    auto optimizer = make(GetParam(), 13);
    SearchResult r =
        optimizer->search(exec::EvalEngine(p->evaluator(), 1), opts);
    // The incumbent after the full budget must beat the best of the first
    // 20 samples (i.e. the method actually searches).
    double early = r.convergence[19];
    EXPECT_GT(r.bestFitness, early * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(
    Searchers, BeatsEarlyRandom,
    ::testing::Values("DE", "stdGA", "MAGMA", "TBPSA"),
    paramName);

TEST(MagmaQuality, BeatsRandomSearchOnMixS2)
{
    auto p = smallProblem(31);
    SearchOptions opts;
    opts.sampleBudget = 800;
    opt::MagmaGa magma_ga(7);
    opt::RandomSearch random(7);
    double fm =
        magma_ga.search(exec::EvalEngine(p->evaluator(), 1), opts).bestFitness;
    double fr =
        random.search(exec::EvalEngine(p->evaluator(), 1), opts).bestFitness;
    EXPECT_GE(fm, fr);
}

// ------------------------------------------ bound-pruned child scoring ---

namespace {

/** The bounded-children counter now; tests compare two readings. */
int64_t
boundedChildren()
{
    return obs::MetricsRegistry::global()
        .counter("opt.bounded_children")
        .value();
}

/** Counters on for the test, the previous level restored after. */
class CountersOn {
  public:
    CountersOn() : saved_(obs::metricsLevel())
    {
        obs::setMetricsLevel(obs::MetricsLevel::Counters);
    }
    ~CountersOn() { obs::setMetricsLevel(saved_); }

  private:
    obs::MetricsLevel saved_;
};

SearchResult
magmaSearch(const sched::MappingEvaluator& ev, int threads, int population,
            int64_t budget, const std::vector<Mapping>& seeds = {},
            bool record_samples = false)
{
    opt::MagmaConfig cfg;
    cfg.population = population;
    opt::MagmaGa ga(7, cfg);
    SearchOptions opts;
    opts.sampleBudget = budget;
    opts.recordConvergence = true;
    opts.recordSamples = record_samples;
    opts.seeds = seeds;
    return ga.search(exec::EvalEngine(ev, threads), opts);
}

/** Bitwise equality of two searches: best genome (its exact text),
 * fitness, samples and convergence curve. */
void
expectSameSearch(const SearchResult& got, const SearchResult& want)
{
    EXPECT_EQ(got.best.toText(), want.best.toText());
    EXPECT_EQ(got.bestFitness, want.bestFitness);
    EXPECT_EQ(got.samplesUsed, want.samplesUsed);
    EXPECT_EQ(got.convergence, want.convergence);
}

/**
 * The search MappingEvaluator alone would run: MAGMA with recordSamples,
 * which turns the load bound off, with every sample checked against
 * MappingEvaluator::fitness. A search's path depends only on its RNG and
 * the scores it receives, so equal scores make it the reference search.
 */
SearchResult
referenceScoredSearch(const sched::MappingEvaluator& ev, int population,
                      int64_t budget, const std::vector<Mapping>& seeds = {})
{
    const int64_t before = boundedChildren();
    SearchResult exact = magmaSearch(ev, 1, population, budget, seeds,
                                     /*record_samples=*/true);
    EXPECT_EQ(boundedChildren(), before);
    EXPECT_EQ(exact.sampled.size(), static_cast<size_t>(budget));
    EXPECT_EQ(exact.sampledFitness.size(), exact.sampled.size());
    const size_t n =
        std::min(exact.sampled.size(), exact.sampledFitness.size());
    for (size_t i = 0; i < n; ++i) {
        const double want = ev.fitness(exact.sampled[i]);
        EXPECT_EQ(exact.sampledFitness[i], want) << "sample " << i;
        if (exact.sampledFitness[i] != want)
            break;  // the first mismatch says enough
    }
    return exact;
}

}  // namespace

/** MAGMA with the load bound equals the reference-scored search bit for
 * bit at the paper's scale — Mix/S4 group 100, 10K samples, workload
 * seeds 1 and 3 (the second BW-bound, its elites tied in most
 * generations) — on a small Mix/S2 group, and on a tie-heavy
 * dyn_churn-shaped re-map (Mix/S2 group 24, population 24), at 1 and 4
 * threads. rank()'s total order is what makes this hold through ties:
 * ranking with std::sort on fitness alone fails the S4 cases and the
 * group-24 one. */
TEST(MagmaBound, BoundedEqualsReferenceScoredSearch)
{
    struct Case {
        accel::Setting setting;
        double bwGbps;
        int group;
        uint64_t workloadSeed;
        int population;
        int64_t budget;
    };
    CountersOn counters;
    int64_t bounded = 0;
    for (const Case& c :
         {Case{accel::Setting::S4, 16.0, 100, 1, 100, 10000},
          Case{accel::Setting::S4, 16.0, 100, 3, 100, 10000},
          Case{accel::Setting::S2, 8.0, 14, 17, 100, 400},
          Case{accel::Setting::S2, 16.0, 24, 19, 24, 500}}) {
        SCOPED_TRACE(testing::Message()
                     << accel::settingName(c.setting) << " group "
                     << c.group << " workload seed " << c.workloadSeed);
        auto p = m3e::makeProblem(dnn::TaskType::Mix, c.setting, c.bwGbps,
                                  c.group, c.workloadSeed);
        const sched::MappingEvaluator& ev = p->evaluator();
        SearchResult want = referenceScoredSearch(ev, c.population,
                                                  c.budget);
        for (int threads : {1, 4}) {
            const int64_t before = boundedChildren();
            SearchResult got =
                magmaSearch(ev, threads, c.population, c.budget);
            bounded += boundedChildren() - before;
            expectSameSearch(got, want);
        }
    }
    EXPECT_GT(bounded, 0);
}

/** A warm-started small population (the dyn/serve shape) is bounded and
 * still matches the reference. */
TEST(MagmaBound, WarmStartedSmallPopulationMatchesReference)
{
    CountersOn counters;
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0,
                              12, 21);
    const sched::MappingEvaluator& ev = p->evaluator();
    const int population = opt::transfer::populationFor(12);
    SearchResult cold = magmaSearch(ev, 1, population, 300);
    common::Rng rng(5);
    std::vector<Mapping> seeds = opt::transfer::seedsAround(
        cold.best, population, ev.numAccels(), rng);

    SearchResult want = referenceScoredSearch(ev, population, 2000, seeds);
    for (int threads : {1, 4}) {
        const int64_t before = boundedChildren();
        SearchResult got = magmaSearch(ev, threads, population, 2000, seeds);
        expectSameSearch(got, want);
        EXPECT_GT(boundedChildren(), before);
    }
}

/** rank() is a total order: of equal scores the later slot ranks first,
 * whether the genomes are copies or differ, and a partial rank gives the
 * full rank's top. */
TEST(GaPopulation, RankBreaksTiesByLaterSlot)
{
    auto p = smallProblem();
    const sched::MappingEvaluator& ev = p->evaluator();
    common::Rng rng(3);
    Mapping a = Mapping::random(16, ev.numAccels(), rng);
    // Halving every priority keeps each queue's order, so the fitness is
    // the same; the genome is not.
    Mapping b = a;
    for (double& pr : b.priority)
        pr *= 0.5;
    ASSERT_EQ(ev.fitness(a), ev.fitness(b));

    const int size = 20;
    std::vector<Mapping> seeds;
    for (int i = 0; i < size; ++i)
        seeds.push_back(i % 2 ? b : a);
    opt::GaPopulation pop(size, seeds, 16, ev.numAccels(), rng);
    SearchOptions opts;
    exec::EvalEngine engine(ev, 1);
    opt::SearchRecorder rec(engine, opts);
    ASSERT_TRUE(pop.scoreAll(rec));
    pop.rank(size);
    for (int r = 0; r < size; ++r)
        EXPECT_EQ(pop.ranked(r), seeds[size - 1 - r]) << "rank " << r;
    pop.rank(5);
    for (int r = 0; r < 5; ++r)
        EXPECT_EQ(pop.ranked(r), seeds[size - 1 - r]) << "rank " << r;
}

// --------------------------------------------------- MAGMA's operators ---

TEST(MagmaOperators, CrossoverGenTouchesExactlyOneGenome)
{
    common::Rng rng(41);
    for (int trial = 0; trial < 50; ++trial) {
        Mapping a = Mapping::random(20, 4, rng);
        Mapping b = Mapping::random(20, 4, rng);
        Mapping a0 = a, b0 = b;
        opt::MagmaGa::crossoverGen(a, b, rng);
        bool accel_changed = a.accelSel != a0.accelSel ||
                             b.accelSel != b0.accelSel;
        bool prio_changed = a.priority != a0.priority ||
                            b.priority != b0.priority;
        // One genome may change; never both (genome-wise perturbation).
        EXPECT_FALSE(accel_changed && prio_changed);
        // Swapped tails preserve the multiset of genes.
        for (int i = 0; i < 20; ++i) {
            EXPECT_TRUE((a.accelSel[i] == a0.accelSel[i] &&
                         b.accelSel[i] == b0.accelSel[i]) ||
                        (a.accelSel[i] == b0.accelSel[i] &&
                         b.accelSel[i] == a0.accelSel[i]));
        }
    }
}

TEST(MagmaOperators, CrossoverRgSwapsContiguousRangeInBothGenomes)
{
    common::Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        Mapping a = Mapping::random(15, 3, rng);
        Mapping b = Mapping::random(15, 3, rng);
        Mapping a0 = a, b0 = b;
        opt::MagmaGa::crossoverRg(a, b, rng);
        // Each position is either fully swapped (both genomes) or fully
        // untouched — the per-job cross-genome dependency is preserved.
        bool in_range = false, left_range = false;
        for (int i = 0; i < 15; ++i) {
            bool swapped = a.accelSel[i] == b0.accelSel[i] &&
                           b.accelSel[i] == a0.accelSel[i] &&
                           a.priority[i] == b0.priority[i] &&
                           b.priority[i] == a0.priority[i];
            bool untouched = a.accelSel[i] == a0.accelSel[i] &&
                             b.accelSel[i] == b0.accelSel[i] &&
                             a.priority[i] == a0.priority[i] &&
                             b.priority[i] == b0.priority[i];
            EXPECT_TRUE(swapped || untouched) << i;
            // Range contiguity: untouched -> swapped -> untouched.
            if (swapped && !in_range) {
                EXPECT_FALSE(left_range);
                in_range = true;
            }
            if (!swapped && in_range) {
                in_range = false;
                left_range = true;
            }
        }
    }
}

TEST(MagmaOperators, CrossoverAccelTransplantsDonorJobSet)
{
    common::Rng rng(43);
    for (int trial = 0; trial < 50; ++trial) {
        Mapping child = Mapping::random(20, 4, rng);
        Mapping donor = Mapping::random(20, 4, rng);
        Mapping child0 = child;
        common::Rng op_rng(trial);
        opt::MagmaGa::crossoverAccel(child, donor, 4, op_rng);
        // Identify the transplanted accelerator: every job the donor put
        // there must now be there in the child with the donor's priority.
        // (We can't know which accel was drawn, so check that SOME accel
        // satisfies the property.)
        bool some_accel_ok = false;
        for (int a = 0; a < 4; ++a) {
            bool ok = true;
            for (int j = 0; j < 20; ++j) {
                if (donor.accelSel[j] == a &&
                    (child.accelSel[j] != a ||
                     child.priority[j] != donor.priority[j]))
                    ok = false;
            }
            if (ok)
                some_accel_ok = true;
        }
        EXPECT_TRUE(some_accel_ok);
        (void)child0;
    }
}

TEST(MagmaOperators, MutateRateZeroIsIdentity)
{
    common::Rng rng(44);
    Mapping m = Mapping::random(25, 4, rng);
    Mapping m0 = m;
    opt::MagmaGa::mutate(m, common::GeometricSkip(0.0, 50), 4, rng);
    EXPECT_EQ(m, m0);
}

namespace {

/**
 * Mutate `children` copies of a sentinel genome (sub-accelerator -1,
 * priority -1, which no draw returns) at `rate` with a gap table of
 * `span` cuts, and check that each field mutated at the rate within 5
 * binomial sigma and every written value is in range.
 */
template <class MakeRng>
void
expectMutationRate(double rate, int genes, int span, int children,
                   MakeRng make_rng)
{
    const int accels = 4;
    const common::GeometricSkip skip(rate, span);
    Mapping sentinel;
    sentinel.accelSel.assign(genes, -1);
    sentinel.priority.assign(genes, -1.0);
    int64_t sel = 0, prio = 0;
    for (int c = 0; c < children; ++c) {
        Mapping m = sentinel;
        decltype(auto) rng = make_rng(c);
        opt::MagmaGa::mutate(m, skip, accels, rng);
        for (int i = 0; i < genes; ++i) {
            if (m.accelSel[i] != -1) {
                ++sel;
                ASSERT_GE(m.accelSel[i], 0);
                ASSERT_LT(m.accelSel[i], accels);
            }
            if (m.priority[i] != -1.0) {
                ++prio;
                ASSERT_GE(m.priority[i], 0.0);
                ASSERT_LT(m.priority[i], 1.0);
            }
        }
    }
    const double trials = static_cast<double>(genes) * children;
    const double sigma = std::sqrt(trials * rate * (1 - rate));
    EXPECT_NEAR(static_cast<double>(sel), trials * rate, 5 * sigma);
    EXPECT_NEAR(static_cast<double>(prio), trials * rate, 5 * sigma);
}

}  // namespace

/** Skip-sampled mutation keeps each field's per-trial rate: MAGMA's 0.05
 * at G = 100 on its per-pair streams, stdGA's 0.1 on one Rng, a rate
 * high enough that gaps are mostly 0, and a table far shorter than the
 * 2G trials, whose saturated gaps are drawn again. */
TEST(MagmaOperators, MutationHitsEachFieldAtTheRate)
{
    expectMutationRate(0.05, 100, 200, 20000, [](int c) {
        return common::CounterRng(7, 0, static_cast<uint32_t>(c));
    });
    common::Rng shared(8);
    expectMutationRate(0.1, 100, 200, 20000,
                       [&](int) -> common::Rng& { return shared; });
    common::Rng dense(9);
    expectMutationRate(0.7, 12, 24, 20000,
                       [&](int) -> common::Rng& { return dense; });
    common::Rng short_table(10);
    expectMutationRate(0.05, 100, 3, 20000,
                       [&](int) -> common::Rng& { return short_table; });
}

TEST(MagmaOperators, MutateRateOneChangesGenesWithinBounds)
{
    common::Rng rng(45);
    Mapping m = Mapping::random(100, 4, rng);
    Mapping m0 = m;
    opt::MagmaGa::mutate(m, common::GeometricSkip(1.0, 200), 4, rng);
    int changed = 0;
    for (int i = 0; i < 100; ++i) {
        EXPECT_GE(m.accelSel[i], 0);
        EXPECT_LT(m.accelSel[i], 4);
        if (m.accelSel[i] != m0.accelSel[i] ||
            m.priority[i] != m0.priority[i])
            ++changed;
    }
    EXPECT_GT(changed, 80);  // rate-1 mutation rewrites nearly everything
}

TEST(MagmaOperators, AblationSwitchesDisableCrossovers)
{
    // With all crossovers off, MAGMA degenerates to mutation-only GA and
    // must still run and respect the budget (the Fig. 16 ablation mode).
    auto p = smallProblem(51);
    opt::MagmaConfig cfg;
    cfg.enableCrossoverGen = false;
    cfg.enableCrossoverRg = false;
    cfg.enableCrossoverAccel = false;
    opt::MagmaGa mut_only(3, cfg);
    SearchOptions opts;
    opts.sampleBudget = 300;
    SearchResult r = mut_only.search(exec::EvalEngine(p->evaluator(), 1), opts);
    EXPECT_LE(r.samplesUsed, 300);
    EXPECT_GT(r.bestFitness, 0.0);
}

// ----------------------------------------------------------- warm start --

namespace {

/** A target group of `n` jobs (positional transfer only reads its size). */
dnn::JobGroup
groupOf(int n, uint64_t seed = 90)
{
    return dnn::WorkloadGenerator(seed).makeGroup(dnn::TaskType::Mix, n);
}

}  // namespace

TEST(WarmStart, PopulationTracksGroupSizeWithinBounds)
{
    EXPECT_EQ(transfer::populationFor(1), 8);
    EXPECT_EQ(transfer::populationFor(8), 8);
    EXPECT_EQ(transfer::populationFor(40), 40);
    EXPECT_EQ(transfer::populationFor(100), 100);
    EXPECT_EQ(transfer::populationFor(300), 100);

    // warmBudget: a positive request wins, even below one generation;
    // otherwise a quarter of the cold budget, at least one generation.
    EXPECT_EQ(transfer::warmBudget(500, 100, 10000), 500);
    EXPECT_EQ(transfer::warmBudget(1, 100, 10000), 1);
    EXPECT_EQ(transfer::warmBudget(0, 100, 10000), 2500);
    EXPECT_EQ(transfer::warmBudget(-3, 100, 10000), 2500);
    EXPECT_EQ(transfer::warmBudget(0, 100, 300), 100);
    EXPECT_EQ(transfer::warmBudget(0, 8, 35), 8);
    EXPECT_EQ(transfer::warmBudget(0, 8, 36), 9);
    EXPECT_EQ(transfer::warmBudget(0, 8, 0), 8);
}

TEST(WarmStart, StoreAndSeedSameSize)
{
    common::Rng rng(62);
    Mapping best = Mapping::random(20, 4, rng);
    auto seeds = transfer::seedsFromStored(best, {}, groupOf(20), 6, 4, rng);
    ASSERT_EQ(seeds.size(), 6u);
    EXPECT_EQ(seeds[0], best);  // first seed is the stored solution
    for (const auto& s : seeds) {
        EXPECT_EQ(s.size(), 20);
        for (int g : s.accelSel) {
            EXPECT_GE(g, 0);
            EXPECT_LT(g, 4);
        }
    }
}

TEST(WarmStart, ResizesByGeneTiling)
{
    common::Rng rng(63);
    Mapping best = Mapping::random(10, 4, rng);
    auto seeds = transfer::seedsFromStored(best, {}, groupOf(25), 2, 4, rng);
    ASSERT_EQ(seeds.size(), 2u);
    EXPECT_EQ(seeds[0].size(), 25);
    for (int i = 0; i < 25; ++i)
        EXPECT_EQ(seeds[0].accelSel[i], best.accelSel[i % 10]);
}

TEST(WarmStart, ClampsAccelGenesToSmallerPlatform)
{
    common::Rng rng(64);
    Mapping best = Mapping::random(10, 8, rng);
    auto seeds = transfer::seedsFromStored(best, {}, groupOf(10), 3, 2, rng);
    for (const auto& s : seeds)
        for (int g : s.accelSel)
            EXPECT_LT(g, 2);
}

TEST(WarmStart, JobMatchedTransferCopiesGenesFromSimilarJobs)
{
    // Build a solved group with a deliberate pattern: language jobs on
    // core 0, vision jobs on core 1. A new group's language jobs must
    // inherit core 0 and vision jobs core 1 through job matching.
    dnn::JobGroup solved_group;
    solved_group.task = dnn::TaskType::Mix;
    Mapping solved;
    for (int i = 0; i < 12; ++i) {
        dnn::Job j;
        j.id = i;
        bool lang = i % 2 == 0;
        j.layer = lang ? dnn::fc(768, 768) : dnn::conv(64, 64, 28, 28, 3, 3);
        j.batch = lang ? 128 : 4;
        j.task = lang ? dnn::TaskType::Language : dnn::TaskType::Vision;
        j.model = "synthetic";
        solved_group.jobs.push_back(j);
        solved.accelSel.push_back(lang ? 0 : 1);
        solved.priority.push_back(0.5);
    }

    dnn::JobGroup target = solved_group;  // same composition, new draw
    common::Rng rng(82);
    auto seeds =
        transfer::seedsFromStored(solved, solved_group, target, 1, 4, rng);
    ASSERT_EQ(seeds.size(), 1u);
    for (int i = 0; i < target.size(); ++i) {
        int expected = target.jobs[i].task == dnn::TaskType::Language ? 0
                                                                      : 1;
        EXPECT_EQ(seeds[0].accelSel[i], expected) << i;
    }
}

TEST(WarmStart, JobMatchedFallsBackToPositionalWithoutGroup)
{
    common::Rng rng(83);
    Mapping best = Mapping::random(10, 4, rng);
    dnn::WorkloadGenerator gen(84);
    dnn::JobGroup target = gen.makeGroup(dnn::TaskType::Mix, 10);
    // No stored group attached: the positional path.
    auto seeds = transfer::seedsFromStored(best, {}, target, 2, 4, rng);
    ASSERT_EQ(seeds.size(), 2u);
    EXPECT_EQ(seeds[0], best);
}

TEST(WarmStart, GrouplessStoreMatchesPositionalTransferExactly)
{
    // A store entry without an attached group must degrade to the
    // positional path verbatim — including the gene-tiling resize and
    // the RNG stream of the mutated copies.
    common::Rng store_rng(86);
    Mapping best = Mapping::random(10, 4, store_rng);

    dnn::WorkloadGenerator gen(87);
    dnn::JobGroup target = gen.makeGroup(dnn::TaskType::Mix, 14);

    common::Rng rng_a(88), rng_b(88);
    auto groupless = transfer::seedsFromStored(best, {}, target, 5, 4, rng_a);
    Mapping tiled = transfer::adaptPositional(best, 14, 4);
    auto positional = transfer::seedsAround(tiled, 5, 4, rng_b);
    ASSERT_EQ(groupless.size(), positional.size());
    for (size_t i = 0; i < positional.size(); ++i)
        EXPECT_EQ(groupless[i], positional[i]) << "seed " << i;
    EXPECT_EQ(rng_a.engine()(), rng_b.engine()());
}

TEST(WarmStart, SizeClassMissFallsBackToCoarserBucket)
{
    // Stored: one small Language FC on core 3, one Vision conv on core 1.
    // Target: a huge Language FC — its fine (size-classed) bucket misses,
    // but the coarse task+layer-type bucket must still steer it to core 3
    // instead of a random gene.
    dnn::JobGroup solved_group;
    solved_group.task = dnn::TaskType::Mix;
    Mapping solved;

    dnn::Job small_fc;
    small_fc.id = 0;
    small_fc.layer = dnn::fc(64, 64);  // ~4K MACs
    small_fc.batch = 1;
    small_fc.task = dnn::TaskType::Language;
    solved_group.jobs.push_back(small_fc);
    solved.accelSel.push_back(3);
    solved.priority.push_back(0.25);

    dnn::Job conv_job;
    conv_job.id = 1;
    conv_job.layer = dnn::conv(64, 64, 28, 28, 3, 3);
    conv_job.batch = 4;
    conv_job.task = dnn::TaskType::Vision;
    solved_group.jobs.push_back(conv_job);
    solved.accelSel.push_back(1);
    solved.priority.push_back(0.75);

    dnn::JobGroup target;
    target.task = dnn::TaskType::Mix;
    dnn::Job huge_fc = small_fc;
    huge_fc.layer = dnn::fc(4096, 4096);  // ~16.7M MACs per sample
    huge_fc.batch = 32;                   // far outside the stored class
    target.jobs.push_back(huge_fc);

    common::Rng rng(89);
    auto seeds =
        transfer::seedsFromStored(solved, solved_group, target, 1, 4, rng);
    ASSERT_EQ(seeds.size(), 1u);
    EXPECT_EQ(seeds[0].accelSel[0], 3);       // from the coarse bucket
    EXPECT_EQ(seeds[0].priority[0], 0.25);    // gene copied, not drawn
}

TEST(WarmStart, JobMatchedTransferBeatsRandomInitOnAverage)
{
    // The Table V premise: warm seeds start better than random init.
    auto p1 = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0,
                               24, 85);
    auto p2 = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0,
                               24, 86);
    opt::SearchOptions opts;
    opts.sampleBudget = 1200;
    opt::MagmaGa magma_ga(5);
    opt::SearchResult solved =
        magma_ga.search(exec::EvalEngine(p1->evaluator(), 1), opts);

    common::Rng rng(87);
    const int accels = p2->evaluator().numAccels();
    auto seeds = transfer::seedsFromStored(solved.best, p1->group(),
                                           p2->group(), 20, accels, rng);
    double warm_mean = 0.0, rand_mean = 0.0;
    for (const auto& s : seeds)
        warm_mean += p2->evaluator().fitness(s);
    for (int i = 0; i < 20; ++i)
        rand_mean += p2->evaluator().fitness(
            Mapping::random(24, p2->evaluator().numAccels(), rng));
    EXPECT_GT(warm_mean / 20.0, rand_mean / 20.0);
}

TEST(WarmStart, SeedsImproveInitialFitness)
{
    // Table V's headline: Trf-0-ep beats Raw by a wide margin.
    auto p1 = m3e::makeProblem(dnn::TaskType::Recommendation,
                               accel::Setting::S2, 1.0, 16, 71);
    auto p2 = m3e::makeProblem(dnn::TaskType::Recommendation,
                               accel::Setting::S2, 1.0, 16, 72);
    SearchOptions opts;
    opts.sampleBudget = 800;
    opt::MagmaGa magma_ga(5);
    SearchResult solved =
        magma_ga.search(exec::EvalEngine(p1->evaluator(), 1), opts);

    common::Rng rng(73);
    const int accels = p2->evaluator().numAccels();
    auto seeds = transfer::seedsFromStored(solved.best, {}, p2->group(), 4,
                                           accels, rng);

    // Best seed (0 epochs of further optimization) vs mean random.
    double seeded = 0.0;
    for (const auto& s : seeds)
        seeded = std::max(seeded, p2->evaluator().fitness(s));
    double random_mean = 0.0;
    const int n = 20;
    for (int i = 0; i < n; ++i)
        random_mean += p2->evaluator().fitness(
            Mapping::random(16, p2->evaluator().numAccels(), rng));
    random_mean /= n;
    EXPECT_GT(seeded, random_mean);
}

TEST(WarmStart, ArchiveSeedsTopUpRoundRobinToCount)
{
    // Three 5-job members for a 7-job group: the adapted members first,
    // then mutated copies of members 0, 1, 2, 0, 1 in that order.
    common::Rng member_rng(91);
    std::vector<Mapping> members;
    for (int i = 0; i < 3; ++i)
        members.push_back(Mapping::random(5, 4, member_rng));

    common::Rng rng(92), expect_rng(92);
    auto seeds = transfer::seedsFromArchive(members, 7, 8, 4, rng);
    ASSERT_EQ(seeds.size(), 8u);
    for (int k = 0; k < 3; ++k) {
        Mapping expect = transfer::adaptPositional(members[k], 7, 4);
        EXPECT_EQ(seeds[k], expect) << "seed " << k;
    }
    for (int k = 3; k < 8; ++k) {
        Mapping expect = seeds[(k - 3) % 3];
        opt::MagmaGa::mutate(expect, common::GeometricSkip(0.05, 14), 4,
                             expect_rng);
        EXPECT_EQ(seeds[k], expect) << "seed " << k;
    }
    EXPECT_EQ(rng.engine()(), expect_rng.engine()());
}

TEST(WarmStart, ArchiveSeedsKeepOnlyTheFirstCountMembers)
{
    common::Rng member_rng(93);
    std::vector<Mapping> members;
    for (int i = 0; i < 6; ++i)
        members.push_back(Mapping::random(9, 8, member_rng));

    common::Rng rng(94), untouched(94);
    auto seeds = transfer::seedsFromArchive(members, 9, 4, 2, rng);
    ASSERT_EQ(seeds.size(), 4u);
    for (int k = 0; k < 4; ++k) {
        Mapping expect = transfer::adaptPositional(members[k], 9, 2);
        EXPECT_EQ(seeds[k], expect) << "seed " << k;
    }
    EXPECT_EQ(rng.engine()(), untouched.engine()());  // no top-up drawn
}

TEST(WarmStart, ArchiveSeedFromEmptyMemberIsAllOnCoreZero)
{
    common::Rng rng(95);
    auto seeds = transfer::seedsFromArchive({Mapping{}}, 4, 1, 3, rng);
    ASSERT_EQ(seeds.size(), 1u);
    ASSERT_EQ(seeds[0].size(), 4);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(seeds[0].accelSel[i], 0);
        EXPECT_EQ(seeds[0].priority[i], (i + 0.5) / 4);
    }
}

// ------------------------------------------------------ Table IV line-up --

TEST(Factory, PaperMethodOrderMatchesFigures)
{
    const std::vector<std::string>& ms = api::tableIvMethods();
    ASSERT_EQ(ms.size(), 10u);
    EXPECT_EQ(ms.front(), "Herald-like");
    EXPECT_EQ(ms.back(), "MAGMA");
}
