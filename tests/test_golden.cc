/**
 * @file Golden pins: fixed-seed search outcomes recorded as literal
 * values. Every other determinism test compares two runs of the current
 * build with each other; these compare against numbers captured once, so
 * a change to an RNG stream, an operator's draw order or an evaluation's
 * floating-point order shows up here even when it is self-consistent.
 *
 * A deliberate re-baseline (a documented change of streams or FP order)
 * updates the literals below; the failure messages print the new values
 * in the table's own format.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "dyn/engine.h"
#include "dyn/runner.h"
#include "dyn/trace.h"
#include "m3e/problem.h"
#include "mo/nsga2.h"

using namespace magma;

namespace {

uint64_t
fnv1a64(const std::string& s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
bitsOf(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::unique_ptr<m3e::Problem>
goldenProblem()
{
    return m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 4.0, 16,
                            11);
}

struct Pin {
    const char* method;
    int64_t budget;
    uint64_t fitnessBits;  ///< SearchResult::bestFitness, bit pattern
    uint64_t bestHash;     ///< fnv1a64(SearchResult::best.toText())
};

// Every registered method that draws from common::Rng. RL agents run at
// a tiny budget to keep the suite fast.
const Pin kPins[] = {
    {"MAGMA", 400, 0x408b8176b45a62cfull, 0xf754c7807c06cdfdull},
    {"stdGA", 400, 0x408b8176b45a62cbull, 0x7c1dd132a2f7cb5aull},
    {"DE", 400, 0x408b8152e1a61d63ull, 0xc8926850698a8b4bull},
    {"PSO", 400, 0x408b8176b45a62cbull, 0x7ad85f6cb0e278f0ull},
    {"CMA", 400, 0x408b8176b45a62ccull, 0x265e036731160c14ull},
    {"TBPSA", 400, 0x408b8176b45a62cdull, 0x275cf7798bbfe79aull},
    {"Random", 400, 0x408b813f493c654full, 0x4563b98d7060cdd8ull},
    {"NSGA-II", 400, 0x408b8176b45a62cdull, 0xda28da421240e362ull},
    {"RL A2C", 48, 0x4089ad70d36315cbull, 0xe2e18d9fe0c35e1aull},
    {"RL PPO2", 48, 0x4089b5bce2d20e22ull, 0x46cc2657fd3d134cull},
};

constexpr uint64_t kSeed = 2024;

}  // namespace

TEST(Golden, SearchResultsPinned)
{
    auto p = goldenProblem();
    for (const Pin& pin : kPins) {
        auto opt = api::OptimizerRegistry::global().make(pin.method, kSeed);
        opt::SearchOptions opts;
        opts.sampleBudget = pin.budget;
        opt::SearchResult r = opt->search(p->evaluator(), opts);
        uint64_t fb = bitsOf(r.bestFitness);
        uint64_t bh = fnv1a64(r.best.toText());
        EXPECT_EQ(r.samplesUsed, pin.budget) << pin.method;
        EXPECT_TRUE(fb == pin.fitnessBits && bh == pin.bestHash)
            << "actual: {\"" << pin.method << "\", " << pin.budget << ", "
            << hex(fb) << ", " << hex(bh) << "},";
    }
}

TEST(Golden, Nsga2FrontPinned)
{
    auto p = goldenProblem();
    mo::Nsga2 nsga(kSeed);
    opt::SearchOptions opts;
    opts.sampleBudget = 400;
    mo::MoSearchResult r = nsga.searchMo(
        p->evaluator(),
        {sched::Objective::Throughput, sched::Objective::Energy}, opts);
    uint64_t h = fnv1a64(r.front.toText());
    EXPECT_EQ(r.samplesUsed, 400);
    EXPECT_EQ(h, 0x6888a602536d3e54ull) << "actual: " << hex(h);
}

TEST(Golden, DynReplayPinned)
{
    dyn::WorkloadTrace trace;
    trace.base.task = dnn::TaskType::Mix;
    trace.base.setting = accel::Setting::S2;
    trace.base.systemBwGbps = 8.0;
    trace.base.groupSize = 8;
    for (const char* line :
         {"t=0 kind=arrive task=Vision jobs=6 seed=11 name=a",
          "t=0.5 kind=arrive task=Lang jobs=5 seed=12 name=b",
          "t=1 kind=swap task=Lang jobs=5 seed=13 name=b",
          "t=1.5 kind=depart name=a"})
        trace.events.push_back(dyn::WorkloadEvent::fromText(line));
    trace.validate();

    dyn::DynConfig cfg;
    cfg.search.sampleBudget = 160;
    cfg.search.seed = 5;
    dyn::DynResult r = dyn::EventEngine(cfg).replay(trace);
    std::string digest;
    for (size_t i = 0; i < r.records.size(); ++i)
        digest += dyn::eventLine(static_cast<int64_t>(i), r.records[i]) +
                  "\n";
    digest += dyn::summaryLine(r) + "\n";
    uint64_t h = fnv1a64(digest);
    EXPECT_EQ(h, 0x0b5fe5473af66c33ull)
        << "actual: " << hex(h) << "\n"
        << digest;
}
