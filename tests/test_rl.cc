/** @file Unit tests for the RL substrate: NN backprop, distributions,
 * optimizers, A2C/PPO2 agents. */

#include <cmath>

#include <gtest/gtest.h>

#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "rl/a2c.h"
#include "rl/actor_critic.h"
#include "rl/nn.h"
#include "rl/optim.h"
#include "rl/policy.h"
#include "rl/ppo2.h"

using namespace magma;
using common::Matrix;

// ------------------------------------------------------------- network ---

TEST(Nn, ForwardShape)
{
    rl::Mlp net({4, 8, 3}, 1);
    Matrix x(5, 4, 0.5);
    Matrix y = net.forward(x);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 3u);
}

TEST(Nn, DeterministicGivenSeed)
{
    rl::Mlp a({3, 6, 2}, 42), b({3, 6, 2}, 42);
    Matrix x(2, 3);
    x.at(0, 0) = 1.0;
    x.at(1, 2) = -2.0;
    Matrix ya = a.forward(x), yb = b.forward(x);
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 2; ++j)
            EXPECT_DOUBLE_EQ(ya.at(i, j), yb.at(i, j));
}

TEST(Nn, GradientMatchesFiniteDifference)
{
    // Loss = sum(y); check dL/dparam numerically for a small net.
    rl::Mlp net({3, 5, 2}, 7);
    common::Rng rng(8);
    Matrix x(4, 3);
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 3; ++j)
            x.at(i, j) = rng.gauss();

    auto loss = [&]() {
        Matrix y = net.forward(x);
        double l = 0.0;
        for (size_t i = 0; i < y.rows(); ++i)
            for (size_t j = 0; j < y.cols(); ++j)
                l += y.at(i, j);
        return l;
    };

    net.zeroGrad();
    net.forward(x);
    Matrix g(4, 2, 1.0);  // dL/dy = 1
    net.backward(g);

    auto params = net.paramPtrs();
    auto grads = net.gradPtrs();
    ASSERT_EQ(params.size(), grads.size());
    const double eps = 1e-6;
    // Probe a spread of parameters.
    for (size_t k = 0; k < params.size(); k += 7) {
        double orig = *params[k];
        *params[k] = orig + eps;
        double lp = loss();
        *params[k] = orig - eps;
        double lm = loss();
        *params[k] = orig;
        double numeric = (lp - lm) / (2 * eps);
        EXPECT_NEAR(*grads[k], numeric, 1e-4) << "param " << k;
    }
}

TEST(Nn, ZeroGradClearsAccumulation)
{
    rl::Mlp net({2, 3, 1}, 9);
    Matrix x(1, 2, 1.0);
    net.forward(x);
    net.backward(Matrix(1, 1, 1.0));
    net.zeroGrad();
    for (double* g : net.gradPtrs())
        EXPECT_DOUBLE_EQ(*g, 0.0);
}

TEST(Nn, BackwardAccumulatesAcrossCalls)
{
    rl::Mlp net({2, 3, 1}, 10);
    Matrix x(1, 2, 1.0);
    net.zeroGrad();
    net.forward(x);
    net.backward(Matrix(1, 1, 1.0));
    std::vector<double> once;
    for (double* g : net.gradPtrs())
        once.push_back(*g);
    net.forward(x);
    net.backward(Matrix(1, 1, 1.0));
    auto grads = net.gradPtrs();
    for (size_t i = 0; i < grads.size(); ++i)
        EXPECT_NEAR(*grads[i], 2.0 * once[i], 1e-12);
}

// ------------------------------------------------------- distributions ---

TEST(Policy, SoftmaxNormalizes)
{
    std::vector<double> p = rl::softmax({1.0, 2.0, 3.0});
    double sum = p[0] + p[1] + p[2];
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_GT(p[2], p[1]);
    EXPECT_GT(p[1], p[0]);
}

TEST(Policy, SoftmaxShiftInvariant)
{
    std::vector<double> a = rl::softmax({1.0, 2.0, 3.0});
    std::vector<double> b = rl::softmax({101.0, 102.0, 103.0});
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Policy, LogProbConsistentWithSoftmax)
{
    std::vector<double> logits = {0.3, -1.2, 2.0, 0.0};
    std::vector<double> p = rl::softmax(logits);
    for (int a = 0; a < 4; ++a)
        EXPECT_NEAR(rl::logProb(logits, a), std::log(p[a]), 1e-12);
}

TEST(Policy, EntropyBounds)
{
    // Uniform logits maximize entropy at log(n); peaked logits approach 0.
    EXPECT_NEAR(rl::entropy({1.0, 1.0, 1.0, 1.0}), std::log(4.0), 1e-12);
    EXPECT_LT(rl::entropy({100.0, 0.0, 0.0, 0.0}), 1e-6);
}

TEST(Policy, SampleCategoricalFollowsDistribution)
{
    common::Rng rng(11);
    std::vector<double> logits = {0.0, std::log(3.0)};  // probs 1/4, 3/4
    int ones = 0;
    for (int i = 0; i < 8000; ++i)
        ones += rl::sampleCategorical(logits, rng);
    EXPECT_NEAR(ones / 8000.0, 0.75, 0.02);
}

TEST(Policy, PolicyGradMatchesFiniteDifference)
{
    // d(-coeff*logp(a))/dlogits vs numeric.
    std::vector<double> logits = {0.5, -0.3, 1.1};
    const int action = 1;
    const double coeff = 0.7;
    std::vector<double> g = rl::policyGradLogits(logits, action, coeff);
    const double eps = 1e-6;
    for (int i = 0; i < 3; ++i) {
        std::vector<double> lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        double numeric = (-coeff * rl::logProb(lp, action) -
                          -coeff * rl::logProb(lm, action)) /
                         (2 * eps);
        EXPECT_NEAR(g[i], numeric, 1e-6);
    }
}

TEST(Policy, EntropyGradMatchesFiniteDifference)
{
    std::vector<double> logits = {0.2, 0.9, -0.4};
    const double coeff = 0.3;
    std::vector<double> g = rl::entropyGradLogits(logits, coeff);
    const double eps = 1e-6;
    for (int i = 0; i < 3; ++i) {
        std::vector<double> lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        double numeric =
            (-coeff * rl::entropy(lp) - -coeff * rl::entropy(lm)) /
            (2 * eps);
        EXPECT_NEAR(g[i], numeric, 1e-6);
    }
}

// ----------------------------------------------------------- optimizers --

TEST(Optim, RmsPropMinimizesQuadratic)
{
    double x = 5.0, g = 0.0;
    rl::RmsProp opt({&x}, {&g}, 0.05);
    for (int i = 0; i < 500; ++i) {
        g = 2.0 * x;  // d/dx x^2
        opt.step();
    }
    EXPECT_NEAR(x, 0.0, 0.05);
}

TEST(Optim, AdamMinimizesQuadratic)
{
    double x = -4.0, g = 0.0;
    rl::Adam opt({&x}, {&g}, 0.05);
    for (int i = 0; i < 800; ++i) {
        g = 2.0 * x;
        opt.step();
    }
    EXPECT_NEAR(x, 0.0, 0.05);
}

TEST(Optim, ClipGradNormScalesDown)
{
    double a = 3.0, b = 4.0;  // norm 5
    double p1 = 0, p2 = 0;
    rl::RmsProp opt({&p1, &p2}, {&a, &b});
    opt.clipGradNorm(1.0);
    EXPECT_NEAR(std::sqrt(a * a + b * b), 1.0, 1e-12);
    EXPECT_NEAR(a / b, 3.0 / 4.0, 1e-12);  // direction preserved
}

TEST(Optim, ClipGradNormNoopBelowThreshold)
{
    double a = 0.3, b = 0.4;
    double p = 0;
    rl::RmsProp opt({&p, &p}, {&a, &b});
    opt.clipGradNorm(1.0);
    EXPECT_DOUBLE_EQ(a, 0.3);
    EXPECT_DOUBLE_EQ(b, 0.4);
}

// ------------------------------------------------------------ env/agent --

TEST(MappingEnv, FeatureDimAndObservation)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              10, 20);
    rl::MappingEnv env(p->evaluator());
    EXPECT_EQ(env.featureDim(), 3 * 4 + 4);
    EXPECT_EQ(env.steps(), 10);
    EXPECT_EQ(env.accelActions(), 4);
    env.reset();
    std::vector<double> f = env.observe(0);
    EXPECT_EQ(static_cast<int>(f.size()), env.featureDim());
    for (double v : f)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(MappingEnv, ActFillsMappingAndLoads)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              6, 21);
    rl::MappingEnv env(p->evaluator());
    env.reset();
    sched::Mapping m;
    m.accelSel.assign(6, 0);
    m.priority.assign(6, 0.0);
    for (int j = 0; j < 6; ++j)
        env.act(j, j % 4, j % rl::MappingEnv::kPriorityBuckets, m);
    for (int j = 0; j < 6; ++j) {
        EXPECT_EQ(m.accelSel[j], j % 4);
        EXPECT_GE(m.priority[j], 0.0);
        EXPECT_LT(m.priority[j], 1.0);
    }
}

TEST(ActorCritic, RolloutChargesOneSample)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 16.0,
                              8, 22);
    opt::SearchOptions opts;
    opts.sampleBudget = 3;
    exec::EvalEngine engine(p->evaluator(), 1);
    opt::SearchRecorder rec(engine, opts);
    rl::ActorCritic ac(p->evaluator(), 5, /*hidden=*/16);
    common::Rng rng(5);
    rl::Episode ep = ac.rollout(rng, rec);
    EXPECT_EQ(rec.used(), 1);
    EXPECT_EQ(static_cast<int>(ep.steps.size()), 8);
    EXPECT_GT(ep.fitness, 0.0);
    EXPECT_GT(ep.reward, 0.0);
    EXPECT_LE(ep.reward, 1.0 + 1e-9);  // normalized by platform peak
}

TEST(ActorCritic, DiscountedReturnsShape)
{
    std::vector<double> r = rl::ActorCritic::discountedReturns(4, 1.0, 0.5);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_DOUBLE_EQ(r[3], 1.0);
    EXPECT_DOUBLE_EQ(r[2], 0.5);
    EXPECT_DOUBLE_EQ(r[1], 0.25);
    EXPECT_DOUBLE_EQ(r[0], 0.125);
}

TEST(A2c, RunsWithinBudgetAndReturnsValidMapping)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              10, 23);
    rl::A2cConfig cfg;
    cfg.hidden = 16;  // small net keeps the test fast
    rl::A2c agent(3, cfg);
    opt::SearchOptions opts;
    opts.sampleBudget = 60;
    opt::SearchResult r =
        agent.search(exec::EvalEngine(p->evaluator(), 1), opts);
    EXPECT_LE(r.samplesUsed, 60);
    EXPECT_GT(r.samplesUsed, 0);
    EXPECT_GT(r.bestFitness, 0.0);
    EXPECT_EQ(r.best.size(), 10);
    for (int g : r.best.accelSel) {
        EXPECT_GE(g, 0);
        EXPECT_LT(g, 4);
    }
}

TEST(Ppo2, RunsWithinBudgetAndReturnsValidMapping)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              10, 24);
    rl::Ppo2Config cfg;
    cfg.hidden = 16;
    cfg.episodesPerBatch = 4;
    cfg.epochsPerBatch = 2;
    rl::Ppo2 agent(4, cfg);
    opt::SearchOptions opts;
    opts.sampleBudget = 60;
    opt::SearchResult r =
        agent.search(exec::EvalEngine(p->evaluator(), 1), opts);
    EXPECT_LE(r.samplesUsed, 60);
    EXPECT_GT(r.bestFitness, 0.0);
    EXPECT_EQ(r.best.size(), 10);
}

TEST(A2c, PolicyImprovesOverEpisodes)
{
    // The learning signal: the mean fitness of LATE episodes must beat the
    // mean of EARLY ones (the policy shifts probability mass toward good
    // mappings) on a problem with real headroom.
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0,
                              12, 25);
    rl::A2cConfig cfg;
    cfg.hidden = 32;
    rl::A2c agent(6, cfg);
    opt::SearchOptions opts;
    opts.sampleBudget = 500;
    opts.recordSamples = true;
    opt::SearchResult r =
        agent.search(exec::EvalEngine(p->evaluator(), 1), opts);
    ASSERT_EQ(r.sampledFitness.size(), 500u);
    double early = 0.0, late = 0.0;
    for (int i = 0; i < 100; ++i) {
        early += r.sampledFitness[i];
        late += r.sampledFitness[400 + i];
    }
    EXPECT_GT(late, early);
}
