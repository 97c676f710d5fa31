/**
 * @file
 * Fig. 10 harness: how different methods explore the map space on
 * (Mix, S2, BW=16).
 *
 * Reproduces (b) the explored-space scatter via a shared 2-D PCA over all
 * sampled mappings (points written to CSV per method) and (c) the reached
 * GFLOP/s table, with a long random-sampling run standing in for the
 * paper's 2-day "exhaustively sampled" best-effort optimum.
 */

#include <cstdio>

#include "analysis/projection.h"
#include "bench/experiment.h"

using namespace magma;

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::printHeader(
        "Fig. 10: explored map space + reached GFLOP/s (Mix, S2, BW=16)");

    auto problem = m3e::makeProblem(dnn::TaskType::Mix, accel::Setting::S2,
                                    16.0, args.groupSize(), args.seed);

    const std::vector<std::string> methods = {"MAGMA", "RL PPO2", "stdGA",
                                               "PSO", "CMA"};

    opt::SearchOptions base;
    base.recordSamples = true;
    auto runs = bench::runMethods(*problem, methods, args.budget(),
                                  args.seed, args.full ? -1 : 600, base);

    // "Exhaustively sampled" stand-in: random with a much larger budget
    // (the paper used ~1M random samples over 2 days).
    {
        auto random =
            api::OptimizerRegistry::global().make("Random", args.seed);
        opt::SearchOptions opts;
        opts.sampleBudget = args.budget() * (args.full ? 20 : 10);
        opts.recordSamples = true;
        bench::MethodRun run;
        run.name = "Exhaustively Sampled";
        run.result = random->search(problem->evaluator(), opts);
        run.gflops = run.result.bestFitness;
        run.samples = run.result.samplesUsed;
        runs.push_back(std::move(run));
    }

    // (c) reached performance table.
    std::printf("\n(c) reached performance\n  %-22s %12s %10s\n", "method",
                "GFLOP/s", "samples");
    for (const auto& r : runs)
        std::printf("  %-22s %12.2f %10lld\n", r.name.c_str(), r.gflops,
                    static_cast<long long>(r.samples));

    // (a)/(b) PCA projection of the sampled mappings, shared plane.
    std::vector<std::string> names;
    std::vector<std::vector<sched::Mapping>> samples;
    std::vector<std::vector<double>> fitness;
    for (const auto& r : runs) {
        names.push_back(r.name);
        // Subsample to keep the CSV manageable.
        std::vector<sched::Mapping> pts;
        std::vector<double> fit;
        size_t stride =
            std::max<size_t>(1, r.result.sampled.size() / 1000);
        for (size_t i = 0; i < r.result.sampled.size(); i += stride) {
            pts.push_back(r.result.sampled[i]);
            fit.push_back(r.result.sampledFitness[i]);
        }
        samples.push_back(std::move(pts));
        fitness.push_back(std::move(fit));
    }
    analysis::MapSpaceProjector projector;
    auto series = projector.project(names, samples, fitness,
                                    problem->evaluator().numAccels());

    common::CsvWriter csv(args.outPath("fig10_explored_space.csv"),
                          {"method", "pc1", "pc2", "gflops"});
    for (const auto& s : series)
        for (size_t i = 0; i < s.points.size(); ++i)
            csv.row({s.method, common::CsvWriter::num(s.points[i][0]),
                     common::CsvWriter::num(s.points[i][1]),
                     common::CsvWriter::num(s.fitness[i])});

    std::printf("\nPCA explained variance: PC1 %.1f%%, PC2 %.1f%%\n",
                100.0 * projector.explainedVariance()[0],
                100.0 * projector.explainedVariance()[1]);
    std::printf("Projected samples written to %s\n",
                args.outPath("fig10_explored_space.csv").c_str());
    return 0;
}
