/**
 * @file Tests for the declarative experiment API (src/api/): spec and
 * RunReport exact text round-trips (property-style over random specs),
 * OptimizerRegistry completeness (every Table IV method constructible by
 * name and by every alias, did-you-mean errors), downstream
 * self-registration, the population-aware constructor and the warm-start
 * cascade the serve and dyn front ends use, and the acceptance-criterion
 * parity runs: for fixed seeds, every method through api::Runner must
 * reproduce the hand-wired m3e::makeProblem + OptimizerRegistry::make
 * path bitwise.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "api/runner.h"
#include "api/spec.h"
#include "baselines/herald_like.h"
#include "common/rng.h"
#include "exec/eval_engine.h"
#include "exec/thread_pool.h"
#include "m3e/problem.h"
#include "mo/nsga2.h"
#include "mo/pareto.h"
#include "opt/magma_ga.h"
#include "opt/warm_start.h"

using namespace magma;
using api::ExperimentSpec;
using api::OptimizerRegistry;
using api::ProblemSpec;
using api::RunReport;
using api::SearchSpec;

namespace {

/** Draw a random-but-valid ProblemSpec, exercising awkward doubles. */
ProblemSpec
randomProblemSpec(common::Rng& rng)
{
    static const dnn::TaskType kTasks[] = {
        dnn::TaskType::Vision, dnn::TaskType::Language,
        dnn::TaskType::Recommendation, dnn::TaskType::Mix};
    static const accel::Setting kSettings[] = {
        accel::Setting::S1, accel::Setting::S2, accel::Setting::S3,
        accel::Setting::S4, accel::Setting::S5, accel::Setting::S6};
    ProblemSpec s;
    s.task = kTasks[rng.uniformInt(4)];
    s.setting = kSettings[rng.uniformInt(6)];
    s.flexible = rng.uniformInt(2) == 1;
    // Non-representable sums and tiny/huge magnitudes must survive.
    switch (rng.uniformInt(4)) {
    case 0: s.systemBwGbps = 0.1 + 0.2; break;
    case 1: s.systemBwGbps = 1.0 / 3.0; break;
    case 2: s.systemBwGbps = 1e-17; break;
    default: s.systemBwGbps = 16.0 * (1 + rng.uniformInt(64)); break;
    }
    s.groupSize = 1 + rng.uniformInt(200);
    s.bwPolicy = rng.uniformInt(2) ? sched::BwPolicy::EvenSplit
                                : sched::BwPolicy::Proportional;
    s.workloadSeed = rng.engine()();
    return s;
}

SearchSpec
randomSearchSpec(common::Rng& rng)
{
    static const sched::Objective kObjectives[] = {
        sched::Objective::Throughput, sched::Objective::Latency,
        sched::Objective::Energy, sched::Objective::EnergyDelay,
        sched::Objective::PerfPerWatt};
    std::vector<std::string> names = OptimizerRegistry::global().names();
    SearchSpec s;
    s.method = names[rng.uniformInt(static_cast<int>(names.size()))];
    s.objective = kObjectives[rng.uniformInt(5)];
    // 0..3 multi-objective entries (duplicates allowed by the format).
    int n_multi = rng.uniformInt(4);
    for (int k = 0; k < n_multi; ++k)
        s.objectives.push_back(kObjectives[rng.uniformInt(5)]);
    s.sampleBudget = 1 + rng.uniformInt(100000);
    s.seed = rng.engine()();
    s.threads = rng.uniformInt(8);
    s.recordConvergence = rng.uniformInt(2) == 1;
    s.recordSamples = rng.uniformInt(2) == 1;
    s.warmStart = rng.uniformInt(2) == 1;
    return s;
}

/** The manual wiring the Runner replaces: problem by hand, method by
 * registry name. */
opt::SearchResult
manualRun(const std::string& method, const ProblemSpec& ps,
          const SearchSpec& ss)
{
    dnn::WorkloadGenerator gen(ps.workloadSeed);
    auto problem = std::make_unique<m3e::Problem>(
        gen.makeGroup(ps.task, ps.groupSize),
        ps.flexible ? accel::makeFlexibleSetting(ps.setting, ps.systemBwGbps)
                    : accel::makeSetting(ps.setting, ps.systemBwGbps),
        ps.bwPolicy, ss.objective);
    // The Runner sizes MAGMA's population by the group-size rule.
    auto optimizer = api::makeForPopulation(
        method, ss.seed, opt::transfer::populationFor(ps.groupSize));
    opt::SearchOptions opts;
    opts.sampleBudget = ss.sampleBudget;
    return optimizer->search(exec::EvalEngine(problem->evaluator(), 1), opts);
}

}  // namespace

// ------------------------------------------------ spec round-trips ---

TEST(ProblemSpecText, RoundTripsExactRandomized)
{
    common::Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        ProblemSpec s = randomProblemSpec(rng);
        EXPECT_EQ(ProblemSpec::fromText(s.toText()), s) << s.toText();
    }
}

TEST(SearchSpecText, RoundTripsExactRandomized)
{
    common::Rng rng(12);
    for (int i = 0; i < 200; ++i) {
        SearchSpec s = randomSearchSpec(rng);
        EXPECT_EQ(SearchSpec::fromText(s.toText()), s) << s.toText();
    }
}

TEST(ExperimentSpecText, RoundTripsExactRandomized)
{
    common::Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        ExperimentSpec e{randomProblemSpec(rng), randomSearchSpec(rng)};
        EXPECT_EQ(ExperimentSpec::fromText(e.toText()), e);
    }
}

TEST(ExperimentSpecText, FileLoadingWithCommentsAndBlanks)
{
    const std::string path = "api_spec_test.spec";
    ExperimentSpec e;
    e.problem.task = dnn::TaskType::Language;
    e.problem.systemBwGbps = 0.1 + 0.2;
    e.search.method = "cma-es";  // aliases are preserved verbatim
    e.search.sampleBudget = 777;
    {
        std::ofstream out(path);
        out << "# an experiment, hand-annotated\n\n"
            << e.toText() << "\n# trailing comment\n";
    }
    EXPECT_EQ(ExperimentSpec::fromFile(path), e);
    std::remove(path.c_str());

    EXPECT_THROW(ExperimentSpec::fromFile("no_such_file.spec"),
                 std::runtime_error);
}

TEST(SpecText, RejectsUnknownKeysAndBadValues)
{
    EXPECT_THROW(ProblemSpec::fromText("tusk=Mix\n"),
                 std::invalid_argument);
    EXPECT_THROW(ProblemSpec::fromText("task=Sound\n"),
                 std::invalid_argument);
    EXPECT_THROW(ProblemSpec::fromText("group_size twelve\n"),
                 std::invalid_argument);
    EXPECT_THROW(ProblemSpec::fromText("system_bw_gbps=fast\n"),
                 std::invalid_argument);
    EXPECT_THROW(SearchSpec::fromText("objective=speed\n"),
                 std::invalid_argument);
    EXPECT_THROW(SearchSpec::fromText("warm_start=maybe\n"),
                 std::invalid_argument);
    EXPECT_THROW(SearchSpec::fromText("objectives=throughput,speed\n"),
                 std::invalid_argument);
    // ExperimentSpec accepts keys of either block, rejects strangers.
    EXPECT_NO_THROW(ExperimentSpec::fromText("task=Mix\nmethod=PSO\n"));
    EXPECT_THROW(ExperimentSpec::fromText("population=9\n"),
                 std::invalid_argument);
}

TEST(SpecText, NumbersParseWholeIntoTheirFieldType)
{
    // Each number is one whole std::from_chars token of its field's
    // type: leading whitespace the line trim leaves (\v, \f), a '+'
    // sign, a hex float and a value outside the type all throw, with the
    // key in the message, instead of wrapping (`seed=\v-1` was read as
    // 2^64 - 1, `group_size=4294967304` as 8). `-1` on an unsigned key
    // and `0x10` were already rejected.
    const struct {
        const char* line;
        const char* key;
    } rejected[] = {
        {"seed=\v-1", "seed"},
        {"workload_seed=\f-2", "workload_seed"},
        {"workload_seed=-1", "workload_seed"},
        {"seed=18446744073709551616", "seed"},
        {"seed=+7", "seed"},
        {"group_size=4294967304", "group_size"},
        {"group_size=2147483648", "group_size"},
        {"group_size=+8", "group_size"},
        {"group_size=\v8", "group_size"},
        {"threads=4294967297", "threads"},
        {"threads=-2147483649", "threads"},
        {"sample_budget=9223372036854775808", "sample_budget"},
        {"sample_budget=0x10", "sample_budget"},
        {"system_bw_gbps=+16", "system_bw_gbps"},
        {"system_bw_gbps=0x1p4", "system_bw_gbps"},
        {"system_bw_gbps=\f16", "system_bw_gbps"},
        {"system_bw_gbps=1e400", "system_bw_gbps"},
        {"system_bw_gbps=1e-400", "system_bw_gbps"},
    };
    for (const auto& r : rejected) {
        try {
            ExperimentSpec::fromText(std::string(r.line) + "\n");
            ADD_FAILURE() << "accepted: " << r.line;
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()).rfind(std::string(r.key) + ": ",
                                                  0),
                      0u)
                << r.line << " -> " << e.what();
        }
    }
    ExperimentSpec e = ExperimentSpec::fromText(
        "seed=18446744073709551615\ngroup_size=2147483647\n"
        "threads=-2147483648\nsample_budget=9223372036854775807\n"
        "system_bw_gbps=4.9406564584124654e-324\n");
    EXPECT_EQ(e.search.seed, 18446744073709551615ULL);
    EXPECT_EQ(e.problem.groupSize, 2147483647);
    EXPECT_EQ(e.search.threads, -2147483647 - 1);
    EXPECT_EQ(e.search.sampleBudget, 9223372036854775807LL);
    EXPECT_EQ(e.problem.systemBwGbps, 4.9406564584124654e-324);
}

TEST(SpecText, PartialTextKeepsDefaults)
{
    ProblemSpec s = ProblemSpec::fromText("task=Vision\n");
    EXPECT_EQ(s.task, dnn::TaskType::Vision);
    EXPECT_EQ(s.groupSize, ProblemSpec{}.groupSize);
    EXPECT_EQ(s.setting, ProblemSpec{}.setting);
}

TEST(Names, TaskSettingPolicyRoundTrips)
{
    for (dnn::TaskType t : {dnn::TaskType::Vision, dnn::TaskType::Language,
                            dnn::TaskType::Recommendation,
                            dnn::TaskType::Mix})
        EXPECT_EQ(dnn::taskTypeFromName(dnn::taskTypeName(t)), t);
    EXPECT_THROW(dnn::taskTypeFromName("Audio"), std::invalid_argument);

    for (accel::Setting st : {accel::Setting::S1, accel::Setting::S2,
                              accel::Setting::S3, accel::Setting::S4,
                              accel::Setting::S5, accel::Setting::S6})
        EXPECT_EQ(accel::settingFromName(accel::settingName(st)), st);
    EXPECT_THROW(accel::settingFromName("S7"), std::invalid_argument);

    for (sched::BwPolicy p :
         {sched::BwPolicy::Proportional, sched::BwPolicy::EvenSplit})
        EXPECT_EQ(sched::bwPolicyFromName(sched::bwPolicyName(p)), p);
    EXPECT_THROW(sched::bwPolicyFromName("greedy"), std::invalid_argument);
}

// ----------------------------------------------------- registry ---

TEST(Registry, EveryTableIvMethodConstructibleByNameAndAliases)
{
    OptimizerRegistry& reg = OptimizerRegistry::global();
    // The full paper line-up (+ Random) is registered, in plot order.
    std::vector<std::string> expect = api::tableIvMethods();
    expect.push_back("Random");
    std::vector<std::string> names = reg.names();
    ASSERT_GE(names.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(names[i], expect[i]);

    for (const auto& e : reg.entries()) {
        EXPECT_EQ(reg.make(e.name, 3)->name(), e.name);
        EXPECT_EQ(reg.resolve(e.name), e.name);
        for (const std::string& alias : e.aliases) {
            EXPECT_EQ(reg.resolve(alias), e.name) << alias;
            EXPECT_EQ(reg.make(alias, 3)->name(), e.name) << alias;
        }
    }
}

TEST(Registry, LookupIsCaseInsensitiveAsFallback)
{
    OptimizerRegistry& reg = OptimizerRegistry::global();
    EXPECT_EQ(reg.resolve("magma"), "MAGMA");
    EXPECT_EQ(reg.resolve("pso"), "PSO");
    EXPECT_EQ(reg.resolve("herald-LIKE"), "Herald-like");
    EXPECT_EQ(reg.resolve("rl a2c"), "RL A2C");
}

TEST(Registry, UnknownNameThrowsWithSuggestionAndMethodList)
{
    OptimizerRegistry& reg = OptimizerRegistry::global();
    EXPECT_FALSE(reg.contains("MAGMAA"));
    try {
        reg.make("MAGMAA", 1);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
        EXPECT_NE(msg.find("MAGMA"), std::string::npos) << msg;
        // The full list is included so users can pick directly.
        EXPECT_NE(msg.find("Herald-like"), std::string::npos) << msg;
        EXPECT_NE(msg.find("RL PPO2"), std::string::npos) << msg;
    }
}

namespace {

/** A downstream method: one deterministic round-robin mapping. */
class RoundRobinMapper : public opt::Optimizer {
  public:
    explicit RoundRobinMapper(uint64_t seed) : Optimizer(seed) {}
    std::string name() const override { return "RoundRobin-test"; }

  protected:
    void run(const sched::MappingEvaluator& eval, const opt::SearchOptions&,
             opt::SearchRecorder& rec) override
    {
        sched::Mapping m;
        for (int j = 0; j < eval.groupSize(); ++j) {
            m.accelSel.push_back(j % eval.numAccels());
            m.priority.push_back(static_cast<double>(j) /
                                 eval.groupSize());
        }
        rec.evaluate(m);
    }
};

// Self-registration exactly as a downstream user would write it.
const bool kRoundRobinRegistered = api::registerOptimizer(
    "RoundRobin-test", {"rr"},
    [](uint64_t seed) { return std::make_unique<RoundRobinMapper>(seed); });

}  // namespace

TEST(Registry, DownstreamSelfRegistrationWorks)
{
    ASSERT_TRUE(kRoundRobinRegistered);
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              8, 17);
    auto o = OptimizerRegistry::global().make("rr", 1);
    EXPECT_EQ(o->name(), "RoundRobin-test");
    opt::SearchResult r = o->search(exec::EvalEngine(p->evaluator(), 1));
    EXPECT_GT(r.bestFitness, 0.0);
    EXPECT_EQ(r.samplesUsed, 1);
    // Duplicate registration is refused.
    EXPECT_THROW(OptimizerRegistry::global().add("rr", {}, nullptr),
                 std::invalid_argument);
}

// ---------------------------------------------- bitwise parity ---

TEST(MakeForPopulation, MagmaTakesThePopulationBitwise)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              24, 21);
    opt::SearchOptions opts;
    opts.sampleBudget = 200;
    auto helper = api::makeForPopulation("magma-ga", 42, 24);
    opt::SearchResult ours =
        helper->search(exec::EvalEngine(p->evaluator(), 1), opts);
    opt::MagmaConfig cfg;
    cfg.population = 24;
    opt::MagmaGa direct(42, cfg);
    opt::SearchResult expect =
        direct.search(exec::EvalEngine(p->evaluator(), 1), opts);
    EXPECT_EQ(ours.best, expect.best);
    EXPECT_EQ(ours.bestFitness, expect.bestFitness);
    EXPECT_EQ(ours.samplesUsed, expect.samplesUsed);
    // The registry default population differs, so the override is real.
    auto registry_default = OptimizerRegistry::global().make("MAGMA", 42);
    opt::SearchResult other =
        registry_default->search(exec::EvalEngine(p->evaluator(), 1), opts);
    EXPECT_NE(ours.best, other.best);
}

TEST(MakeForPopulation, OtherMethodsKeepTheirRegistryDefault)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              10, 21);
    opt::SearchOptions opts;
    opts.sampleBudget = 120;
    for (const char* name : {"PSO", "cma-es", "stdGA", "Random"}) {
        auto helper = api::makeForPopulation(name, 42, 24);
        auto registry = OptimizerRegistry::global().make(name, 42);
        opt::SearchResult ours =
            helper->search(exec::EvalEngine(p->evaluator(), 1), opts);
        opt::SearchResult expect =
            registry->search(exec::EvalEngine(p->evaluator(), 1), opts);
        EXPECT_EQ(ours.best, expect.best) << name;
        EXPECT_EQ(ours.bestFitness, expect.bestFitness) << name;
        EXPECT_EQ(ours.samplesUsed, expect.samplesUsed) << name;
    }
}

TEST(MakeForPopulation, UnknownNameThrowsDidYouMean)
{
    try {
        api::makeForPopulation("MAGMAA", 1, 24);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("did you mean 'MAGMA'?"), std::string::npos)
            << msg;
    }
}

// ------------------------------------------- warm-start cascade ---

TEST(SeedSearch, TiersFireInOrderAndEveryPathHasOneHeuristicMember)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              10, 21);
    const sched::MappingEvaluator& eval = p->evaluator();
    const int pop = opt::transfer::populationFor(eval.groupSize());
    const int64_t cold = 800;
    const sched::Mapping heuristic =
        baselines::HeraldLike::buildMapping(eval);

    common::Rng rng(3);
    const sched::Mapping running =
        sched::Mapping::random(eval.groupSize(), eval.numAccels(), rng);
    const sched::Mapping none;
    std::vector<int> match(eval.groupSize());
    std::iota(match.begin(), match.end(), 0);
    mo::ParetoArchive archive(
        {sched::Objective::Throughput, sched::Objective::Energy});
    mo::MoPoint member;
    member.m = sched::Mapping::random(6, eval.numAccels(), rng);
    member.objs = {1.0, 1.0};
    ASSERT_TRUE(archive.insert(member));

    int lookups = 0;
    bool store_hits = true;
    api::WarmTiers tiers;
    tiers.previous = &running;
    tiers.previousGroup = &eval.group();
    tiers.match = &match;
    tiers.lookup = [&]() -> std::optional<api::StoredSolution> {
        ++lookups;
        if (!store_hits)
            return std::nullopt;
        return api::StoredSolution{running, eval.group()};
    };
    tiers.archive = &archive;
    tiers.previousSeed = 1;
    tiers.storeSeed = 2;
    tiers.archiveSeed = 3;
    tiers.warmBudget = 300;

    auto expect = [&](api::SeedSource source, int64_t budget,
                      size_t seeds) {
        api::Seeding s = api::seedSearch(eval, pop, cold, tiers);
        EXPECT_EQ(source, s.source);
        EXPECT_EQ(budget, s.budget);
        ASSERT_EQ(seeds, s.seeds.size());
        EXPECT_EQ(1, std::count(s.seeds.begin(), s.seeds.end(), heuristic));
        EXPECT_EQ(heuristic, s.seeds.back());
    };
    const int64_t warm = opt::transfer::warmBudget(300, pop, cold);
    // The running mapping wins, and the store is never consulted.
    expect(api::SeedSource::Previous, warm, pop);
    EXPECT_EQ(0, lookups);
    // An empty running mapping (the first event) falls to the store.
    tiers.previous = &none;
    expect(api::SeedSource::Store, warm, pop);
    EXPECT_EQ(1, lookups);
    // A store miss falls to the archive, at the full budget.
    store_hits = false;
    expect(api::SeedSource::Archive, cold, pop);
    EXPECT_EQ(2, lookups);
    // No tier fires: a cold search whose only seed is the heuristic.
    tiers.archive = nullptr;
    expect(api::SeedSource::Cold, cold, 1);
    EXPECT_EQ(3, lookups);
    // So is a search with every tier unset (warm starts off).
    tiers = api::WarmTiers{};
    expect(api::SeedSource::Cold, cold, 1);
}

// ------------------------------------------------- solve pipeline ---

TEST(Solve, StoreSeededSearchMatchesTheHandWiredSequence)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              12, 23);
    const sched::MappingEvaluator& eval = p->evaluator();
    common::Rng rng(5);
    const sched::Mapping stored =
        sched::Mapping::random(eval.groupSize(), eval.numAccels(), rng);
    api::WarmTiers tiers;
    tiers.lookup = [&]() -> std::optional<api::StoredSolution> {
        return api::StoredSolution{stored, eval.group()};
    };
    tiers.storeSeed = 6;
    SearchSpec spec;
    spec.sampleBudget = 800;
    spec.seed = 7;

    // The same steps, wired by hand.
    const int pop = opt::transfer::populationFor(eval.groupSize());
    api::Seeding seeding = api::seedSearch(eval, pop, 800, tiers);
    ASSERT_EQ(api::SeedSource::Store, seeding.source);
    opt::SearchOptions opts;
    opts.sampleBudget = seeding.budget;
    opts.seeds = seeding.seeds;
    opts.recordConvergence = true;
    opt::SearchResult expect = api::makeForPopulation("MAGMA", 7, pop)
                                   ->search(exec::EvalEngine(eval, 1), opts);

    for (int threads : {1, 2}) {
        exec::ThreadPool pool(threads);
        api::Solved solved = api::solve(eval, spec, &tiers, pool);
        EXPECT_EQ(api::SeedSource::Store, solved.source);
        EXPECT_EQ(seeding.budget, solved.budget);
        EXPECT_EQ(seeding.seeds.size(), solved.seeds);
        EXPECT_EQ(expect.best, solved.result.best);
        EXPECT_EQ(expect.bestFitness, solved.result.bestFitness);
        EXPECT_EQ(expect.samplesUsed, solved.result.samplesUsed);
        // Trf-0-ep: best-so-far before the Herald-like last seed.
        EXPECT_EQ(expect.convergence[seeding.seeds.size() - 2],
                  solved.trf0Fitness);
        EXPECT_GE(solved.searchSeconds, 0.0);
    }
}

TEST(Solve, WithoutTiersSeedsNothingAndRecordsOnlyWhatTheSpecAsks)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              10, 3);
    SearchSpec spec;
    spec.sampleBudget = 300;
    exec::ThreadPool pool(1);
    api::Solved cold = api::solve(p->evaluator(), spec, nullptr, pool);
    EXPECT_EQ(api::SeedSource::Cold, cold.source);
    EXPECT_EQ(300, cold.budget);
    EXPECT_EQ(0u, cold.seeds);
    EXPECT_EQ(0.0, cold.trf0Fitness);
    EXPECT_TRUE(cold.result.convergence.empty());
    EXPECT_TRUE(cold.result.sampled.empty());

    spec.recordConvergence = spec.recordSamples = true;
    api::Solved recorded = api::solve(p->evaluator(), spec, nullptr, pool);
    EXPECT_EQ(cold.result.best, recorded.result.best);
    EXPECT_EQ(cold.result.bestFitness, recorded.result.bestFitness);
    EXPECT_EQ(300u, recorded.result.convergence.size());
    EXPECT_EQ(300u, recorded.result.sampled.size());
}

TEST(Solve, ParetoSpecRunsSearchMoOnTheCallersPool)
{
    auto p = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2, 8.0,
                              10, 3);
    SearchSpec spec;
    spec.method = "nsga2";
    spec.objectives = {sched::Objective::Throughput,
                       sched::Objective::Energy};
    spec.sampleBudget = 300;
    spec.seed = 6;
    mo::Nsga2 direct(6);
    opt::SearchOptions opts;
    opts.sampleBudget = 300;
    mo::MoSearchResult expect = direct.searchMo(
        exec::EvalEngine(p->evaluator(), 1), spec.objectives, opts);
    for (int threads : {1, 2}) {
        exec::ThreadPool pool(threads);
        api::Solved solved = api::solve(p->evaluator(), spec, nullptr, pool);
        EXPECT_EQ(expect.front, solved.pareto.front) << threads;
        EXPECT_EQ(300, solved.pareto.samplesUsed);
        EXPECT_EQ(0, solved.result.samplesUsed);
        EXPECT_EQ(0, solved.result.best.size());
    }
}

TEST(Parity, RunnerMatchesManualPathForEveryTableIvMethod)
{
    // THE acceptance criterion: identical seeds through the new API must
    // reproduce the pre-redesign results bitwise, for every method.
    ProblemSpec ps;
    ps.task = dnn::TaskType::Mix;
    ps.setting = accel::Setting::S2;
    ps.systemBwGbps = 8.0;
    ps.groupSize = 10;
    ps.workloadSeed = 31;

    api::Runner runner;
    for (const std::string& m : api::tableIvMethods()) {
        SearchSpec ss;
        ss.method = m;
        ss.sampleBudget = 120;
        ss.seed = 42;
        opt::SearchResult manual = manualRun(m, ps, ss);
        RunReport rep = runner.run(ps, ss);
        EXPECT_EQ(rep.best, manual.best) << ss.method;
        EXPECT_EQ(rep.bestFitness, manual.bestFitness) << ss.method;
        EXPECT_EQ(rep.samplesUsed, manual.samplesUsed) << ss.method;
        EXPECT_EQ(rep.method, ss.method);
    }
}

TEST(Parity, RunnerReproducesNonDefaultObjectiveAndFlexible)
{
    ProblemSpec ps;
    ps.task = dnn::TaskType::Vision;
    ps.setting = accel::Setting::S1;
    ps.flexible = true;
    ps.systemBwGbps = 4.0;
    ps.groupSize = 9;
    ps.workloadSeed = 5;
    SearchSpec ss;
    ss.method = "MAGMA";
    ss.objective = sched::Objective::EnergyDelay;
    ss.sampleBudget = 150;
    ss.seed = 9;

    opt::SearchResult manual = manualRun("MAGMA", ps, ss);
    api::Runner runner;
    RunReport rep = runner.run(ps, ss);
    EXPECT_EQ(rep.best, manual.best);
    EXPECT_EQ(rep.bestFitness, manual.bestFitness);
}

// ------------------------------------------------- Runner report ---

TEST(Runner, ReportIsInternallyConsistent)
{
    ProblemSpec ps;
    ps.groupSize = 10;
    SearchSpec ss;
    ss.sampleBudget = 200;
    ss.recordConvergence = true;

    api::Runner runner;
    RunReport rep = runner.run(ps, ss);
    EXPECT_EQ(rep.method, "MAGMA");
    EXPECT_GT(rep.bestFitness, 0.0);
    EXPECT_GT(rep.makespanSeconds, 0.0);
    EXPECT_GT(rep.throughputGflops, 0.0);
    EXPECT_GT(rep.energyJoules, 0.0);
    EXPECT_LE(rep.samplesUsed, ss.sampleBudget);
    EXPECT_GE(rep.wallSeconds, 0.0);
    EXPECT_EQ(static_cast<int64_t>(rep.convergence.size()),
              rep.samplesUsed);
    // Convergence is best-so-far: non-decreasing, ends at bestFitness.
    for (size_t i = 1; i < rep.convergence.size(); ++i)
        EXPECT_GE(rep.convergence[i], rep.convergence[i - 1]);
    EXPECT_EQ(rep.convergence.back(), rep.bestFitness);
    EXPECT_EQ(rep.best.size(), ps.groupSize);
    // The report echoes its inputs.
    EXPECT_EQ(rep.problem, ps);
    EXPECT_EQ(rep.search, ss);
}

TEST(RunReportText, RoundTripsExact)
{
    ProblemSpec ps;
    ps.groupSize = 8;
    ps.systemBwGbps = 1.0 / 3.0;
    SearchSpec ss;
    ss.method = "stdGA";
    ss.sampleBudget = 90;
    ss.recordConvergence = true;

    api::Runner runner;
    RunReport rep = runner.run(ps, ss);
    RunReport back = RunReport::fromText(rep.toText());
    EXPECT_EQ(back, rep);  // bitwise, mapping and convergence included
    // And the artifact is stable: re-serializing is byte-identical.
    EXPECT_EQ(back.toText(), rep.toText());
}

TEST(RunReportText, EmptyConvergenceAndHeaderChecks)
{
    RunReport rep;
    rep.method = "MAGMA";
    EXPECT_EQ(RunReport::fromText(rep.toText()), rep);
    EXPECT_THROW(RunReport::fromText("task=Mix\n"), std::invalid_argument);
    EXPECT_THROW(RunReport::fromText("magma-run-report v1\nbogus=1\n"),
                 std::invalid_argument);
}
