/**
 * @file
 * Fig. 8 harness: the small homogeneous accelerator (S1, BW=16 GB/s)
 * across the four tasks (Vision / Lang / Recom / Mix) and all ten mappers.
 *
 * Paper's shape: every method lands in the same ballpark on homogeneous
 * hardware; MAGMA is best, ~1.4x over the manual mappers (geomean) and
 * ~1.6x over the other optimizers. The caption's absolute MAGMA numbers
 * are 249/397/194/329 GFLOP/s for (a)-(d).
 */

#include <cstdio>

#include "bench/experiment.h"
#include "common/stats.h"

using namespace magma;

int
main(int argc, char** argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    bench::printHeader("Fig. 8: S1 homogeneous small accelerator, BW=16, "
                       "4 tasks x 10 mappers");
    std::printf("budget=%lld group=%d (use --full for paper scale)\n",
                static_cast<long long>(args.budget()), args.groupSize());

    common::CsvWriter csv(args.outPath("fig08_homogeneous.csv"),
                          {"task", "method", "gflops", "norm_vs_magma"});

    std::vector<double> vs_manual, vs_opt;
    const dnn::TaskType tasks[] = {
        dnn::TaskType::Vision, dnn::TaskType::Language,
        dnn::TaskType::Recommendation, dnn::TaskType::Mix};
    for (dnn::TaskType task : tasks) {
        auto problem = m3e::makeProblem(task, accel::Setting::S1, 16.0,
                                        args.groupSize(), args.seed);
        auto runs = bench::runMethods(*problem, api::tableIvMethods(),
                                      args.budget(), args.seed,
                                      args.full ? -1 : 1000);
        bench::printNormalizedByMagma(
            "Task " + dnn::taskTypeName(task), runs, &csv,
            dnn::taskTypeName(task));

        double magma = bench::gflopsOf(runs, "MAGMA");
        for (const char* b : {"Herald-like", "AI-MT-like"})
            vs_manual.push_back(magma / bench::gflopsOf(runs, b));
        for (const char* o : {"PSO", "CMA", "DE", "TBPSA", "stdGA"})
            vs_opt.push_back(magma / bench::gflopsOf(runs, o));
    }

    std::printf("\nGeomean MAGMA advantage: %.2fx vs manual mappers "
                "(paper: 1.4x/1.41x), %.2fx vs black-box optimizers "
                "(paper: 1.6x)\n",
                common::geomean(vs_manual), common::geomean(vs_opt));
    std::printf("Series written to %s\n",
                args.outPath("fig08_homogeneous.csv").c_str());
    return 0;
}
