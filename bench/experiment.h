#ifndef MAGMA_BENCH_EXPERIMENT_H_
#define MAGMA_BENCH_EXPERIMENT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "api/registry.h"
#include "bench/bench_common.h"
#include "common/csv.h"
#include "m3e/problem.h"

namespace magma::bench {

/** One method's outcome on one problem. */
struct MethodRun {
    std::string name;
    double gflops = 0.0;
    int64_t samples = 0;
    opt::SearchResult result;
};

/**
 * Run a line-up of methods (registry names) on one problem under a
 * shared budget.
 * RL methods optionally get their own (smaller) default budget since one
 * sample costs a policy update; --full equalizes everything at 10K as the
 * paper does.
 */
inline std::vector<MethodRun>
runMethods(m3e::Problem& problem, const std::vector<std::string>& methods,
           int64_t budget, uint64_t seed, int64_t rl_budget = -1,
           const opt::SearchOptions& base_opts = {})
{
    std::vector<MethodRun> runs;
    for (const std::string& m : methods) {
        opt::SearchOptions opts = base_opts;
        bool is_rl = (m == "RL A2C" || m == "RL PPO2");
        opts.sampleBudget = (is_rl && rl_budget > 0) ? rl_budget : budget;
        auto optimizer = api::OptimizerRegistry::global().make(m, seed);
        MethodRun run;
        run.name = m;
        run.result = optimizer->search(problem.evaluator(), opts);
        run.gflops = run.result.bestFitness;
        run.samples = run.result.samplesUsed;
        runs.push_back(std::move(run));
    }
    return runs;
}

/** Throughput of a named method within a run list (0 if absent). */
inline double
gflopsOf(const std::vector<MethodRun>& runs, const std::string& name)
{
    for (const auto& r : runs)
        if (r.name == name)
            return r.gflops;
    return 0.0;
}

/**
 * Print the Figs. 8/9-style block: throughputs normalized by MAGMA plus
 * MAGMA's absolute GFLOP/s (the figures' captions report exactly that).
 */
inline void
printNormalizedByMagma(const std::string& title,
                       const std::vector<MethodRun>& runs,
                       common::CsvWriter* csv = nullptr,
                       const std::string& csv_tag = "")
{
    double magma = gflopsOf(runs, "MAGMA");
    std::printf("\n%s  (MAGMA absolute: %.1f GFLOP/s)\n", title.c_str(),
                magma);
    std::printf("  %-14s %10s %12s\n", "method", "norm", "GFLOP/s");
    for (const auto& r : runs) {
        std::printf("  %-14s %10.3f %12.2f\n", r.name.c_str(),
                    magma > 0 ? r.gflops / magma : 0.0, r.gflops);
        if (csv)
            csv->row({csv_tag, r.name, common::CsvWriter::num(r.gflops),
                      common::CsvWriter::num(magma > 0 ? r.gflops / magma
                                                       : 0.0)});
    }
}

}  // namespace magma::bench

#endif  // MAGMA_BENCH_EXPERIMENT_H_
