/**
 * @file
 * Flexible-accelerator scenario (Section VI-F): the same PE budget as the
 * fixed S1 platform, but every sub-accelerator can reshape its 2-D array
 * per job (FPGA/CGRA-style). Compares per-job latency, required BW and
 * end-to-end MAGMA throughput of fixed vs flexible, and shows the array
 * shapes the flexible cost model picks for representative layers.
 */

#include <cstdio>

#include "api/registry.h"
#include "cost/cost_model.h"
#include "dnn/model_zoo.h"
#include "exec/eval_engine.h"
#include "m3e/problem.h"
#include "opt/warm_start.h"

int
main()
{
    using namespace magma;

    // Per-layer shape choices of the flexible engine.
    cost::CostModel model;
    cost::SubAccelConfig flex =
        accel::makeFlexibleSetting(accel::Setting::S1, 16.0).subAccels[0];
    std::printf("Shapes chosen by the flexible PE array (2048 PEs) per "
                "layer:\n");
    std::printf("  %-34s %10s %14s %8s\n", "layer", "shape",
                "cycles", "util");
    struct Probe { const char* label; dnn::LayerShape layer; int batch; };
    const Probe probes[] = {
        {"ResNet conv1 (few channels)", dnn::conv(64, 3, 112, 112, 7, 7, 2),
         4},
        {"ResNet late conv", dnn::conv(512, 512, 7, 7, 3, 3), 4},
        {"MobileNet depthwise", dnn::depthwise(384, 14, 14, 3, 3), 4},
        {"GPT-2 FFN GEMM", dnn::fc(3072, 768), 128},
        {"DLRM top MLP", dnn::fc(512, 512), 4},
    };
    for (const Probe& p : probes) {
        cost::CostResult r = model.analyze(p.layer, p.batch, flex);
        char shape[32];
        std::snprintf(shape, sizeof shape, "%dx%d", r.usedRows, r.usedCols);
        std::printf("  %-34s %10s %14.0f %7.1f%%\n", p.label, shape,
                    r.noStallCycles, 100.0 * r.utilization);
    }

    // End-to-end: fixed vs flexible on Vision and Mix at low/high BW.
    std::printf("\nMAGMA throughput (GFLOP/s), fixed S1 vs flexible S1:\n");
    std::printf("  %-8s %6s %10s %10s %8s\n", "task", "BW", "fixed",
                "flexible", "gain");
    // MAGMA's population follows the group size, as in m3e_cli.
    const int group_size = 40;
    const int population = opt::transfer::populationFor(group_size);
    for (dnn::TaskType task : {dnn::TaskType::Vision, dnn::TaskType::Mix}) {
        for (double bw : {1.0, 16.0}) {
            dnn::WorkloadGenerator gen(3);
            dnn::JobGroup group = gen.makeGroup(task, group_size);
            m3e::Problem fixed(group,
                               accel::makeSetting(accel::Setting::S1, bw));
            m3e::Problem flexp(
                group, accel::makeFlexibleSetting(accel::Setting::S1, bw));
            opt::SearchOptions opts;
            opts.sampleBudget = 2000;
            double ff = api::makeForPopulation("MAGMA", 1, population)
                            ->search(exec::EvalEngine(fixed.evaluator(), 1),
                                     opts)
                            .bestFitness;
            double fx = api::makeForPopulation("MAGMA", 1, population)
                            ->search(exec::EvalEngine(flexp.evaluator(), 1),
                                     opts)
                            .bestFitness;
            std::printf("  %-8s %6.0f %10.1f %10.1f %7.2fx\n",
                        dnn::taskTypeName(task).c_str(), bw, ff, fx,
                        fx / ff);
        }
    }
    return 0;
}
