/** @file Synthetic known-optimum problems: verify the optimizers actually
 * find solutions whose quality we can certify independently. */

#include <algorithm>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"

using namespace magma;

namespace {

/**
 * A platform with one big HB core and three tiny ones (8 rows = 16x less
 * compute). Identical FC jobs. Good mappings concentrate work on the big
 * core while letting the tiny cores absorb a sliver each; we can compute
 * the optimal makespan for identical jobs analytically.
 */
std::unique_ptr<m3e::Problem>
lopsidedProblem(int jobs)
{
    dnn::JobGroup group;
    group.task = dnn::TaskType::Recommendation;
    for (int i = 0; i < jobs; ++i) {
        dnn::Job j;
        j.id = i;
        j.layer = dnn::fc(512, 512);
        j.batch = 4;
        j.task = dnn::TaskType::Recommendation;
        j.model = "synthetic";
        group.jobs.push_back(j);
    }
    accel::Platform p;
    p.name = "lopsided";
    p.systemBwGbps = 1e9;  // BW-unconstrained: pure load balancing
    p.subAccels.push_back(
        accel::makeSubAccel(cost::DataflowStyle::HB, 128, 580));
    for (int i = 0; i < 3; ++i)
        p.subAccels.push_back(
            accel::makeSubAccel(cost::DataflowStyle::HB, 8, 64));
    return std::make_unique<m3e::Problem>(std::move(group), std::move(p));
}

/** Optimal makespan for n identical jobs on the lopsided platform. */
double
lopsidedOptimalMakespan(const m3e::Problem& p, int jobs)
{
    double fast = p.evaluator().table().lookup(0, 0).noStallSeconds;
    double slow = p.evaluator().table().lookup(0, 1).noStallSeconds;
    double best = 1e300;
    // k jobs per tiny core (identical tiny cores), rest on the big core.
    for (int k = 0; k * 3 <= jobs; ++k) {
        double makespan =
            std::max((jobs - 3 * k) * fast, static_cast<double>(k) * slow);
        best = std::min(best, makespan);
    }
    return best;
}

}  // namespace

class SyntheticOptimum : public ::testing::TestWithParam<std::string> {};

TEST_P(SyntheticOptimum, ReachesNearOptimalLoadBalance)
{
    const int jobs = 24;
    auto p = lopsidedProblem(jobs);
    double optimal = p->evaluator().throughputGflops(
        lopsidedOptimalMakespan(*p, jobs));

    auto optimizer =
        api::OptimizerRegistry::global().make(GetParam(), 7);
    opt::SearchOptions opts;
    opts.sampleBudget = 1500;
    double found = optimizer->search(exec::EvalEngine(p->evaluator(), 1),
                                     opts).bestFitness;

    // Certified bound: nobody can beat the optimum...
    EXPECT_LE(found, optimal * (1.0 + 1e-9))
        << GetParam();
    // ...and a competent searcher gets within 15% of it.
    EXPECT_GE(found, 0.85 * optimal) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Methods, SyntheticOptimum,
    ::testing::Values("MAGMA", "stdGA", "DE", "Herald-like", "TBPSA"),
    [](const auto& info) {
        std::string n = info.param;
        for (char& c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(SyntheticExhaustive, MagmaMatchesExhaustiveAssignmentSearch)
{
    // Small enough to enumerate every assignment (priorities fixed to job
    // order): MAGMA must reach at least the exhaustive-assignment optimum
    // (it additionally searches orderings, so >= is the right check).
    const int jobs = 8;
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0,
                              jobs, 13);
    const int accels = p->evaluator().numAccels();

    double exhaustive = 0.0;
    std::vector<int> assign(jobs, 0);
    long total = 1;
    for (int i = 0; i < jobs; ++i)
        total *= accels;
    for (long code = 0; code < total; ++code) {
        long c = code;
        sched::Mapping m;
        m.accelSel.resize(jobs);
        m.priority.resize(jobs);
        for (int i = 0; i < jobs; ++i) {
            m.accelSel[i] = static_cast<int>(c % accels);
            c /= accels;
            m.priority[i] = static_cast<double>(i) / (jobs + 1);
        }
        exhaustive = std::max(exhaustive, p->evaluator().fitness(m));
    }

    auto magma_opt = api::OptimizerRegistry::global().make("MAGMA", 5);
    opt::SearchOptions opts;
    opts.sampleBudget = 4000;
    double found = magma_opt->search(exec::EvalEngine(p->evaluator(), 1),
                                     opts).bestFitness;
    EXPECT_GE(found, 0.98 * exhaustive);
}

TEST(SyntheticBw, OptimizersExploitTheLowBwCore)
{
    // One HB core + one LB core, jobs that are mildly slower but far less
    // BW-hungry on LB, and a starved system BW: the optimizer must move
    // a meaningful share of work to the LB core.
    dnn::JobGroup group;
    group.task = dnn::TaskType::Vision;
    for (int i = 0; i < 16; ++i) {
        dnn::Job j;
        j.id = i;
        j.layer = dnn::conv(64, 16, 56, 56, 3, 3);  // early-ish conv
        j.batch = 4;
        j.task = dnn::TaskType::Vision;
        j.model = "synthetic";
        group.jobs.push_back(j);
    }
    accel::Platform plat;
    plat.name = "hb+lb";
    plat.systemBwGbps = 1.0;
    plat.subAccels.push_back(
        accel::makeSubAccel(cost::DataflowStyle::HB, 64, 291));
    plat.subAccels.push_back(
        accel::makeSubAccel(cost::DataflowStyle::LB, 64, 218));
    m3e::Problem p(std::move(group), std::move(plat));

    auto magma_opt = api::OptimizerRegistry::global().make("MAGMA", 3);
    opt::SearchOptions opts;
    opts.sampleBudget = 2000;
    opt::SearchResult r =
        magma_opt->search(exec::EvalEngine(p.evaluator(), 1), opts);
    int on_lb = 0;
    for (int a : r.best.accelSel)
        on_lb += (a == 1);
    EXPECT_GE(on_lb, 2);

    // And the found mapping must beat everything-on-HB.
    sched::Mapping all_hb = r.best;
    std::fill(all_hb.accelSel.begin(), all_hb.accelSel.end(), 0);
    EXPECT_GT(r.bestFitness, p.evaluator().fitness(all_hb));
}
