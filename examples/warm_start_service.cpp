/**
 * @file
 * Warm-start "mapping service" scenario (Section V-C): a host keeps
 * serving groups of batched jobs; instead of re-searching from scratch
 * for every group, the service transfers the previous solution of the
 * same task type and refines it for a few epochs.
 *
 * Shows the Table V effect: transferred solutions start near-optimal
 * (Trf-0-ep), and one epoch of refinement recovers most of the gap to a
 * full search at a tiny fraction of the cost.
 *
 * Every search goes through serve::MappingService: its fingerprint-keyed
 * MappingStore remembers solutions, and the same opt::transfer seeding
 * helpers the dyn event engine uses turn a store hit into the warm
 * population, so this scenario is the production path.
 */

#include <cstdio>

#include "serve/service.h"

int
main()
{
    using namespace magma;
    const int group_size = 40;
    const int pop = 40;  // the service sets population = group size
    const dnn::TaskType task = dnn::TaskType::Mix;
    const int64_t full_budget = static_cast<int64_t>(pop) * 50;
    const int64_t one_epoch_budget = static_cast<int64_t>(pop) * 2;

    dnn::WorkloadGenerator gen(5);
    serve::ServiceConfig cfg;
    cfg.workers = 1;
    serve::MappingService service(cfg);

    auto makeRequest = [&](const dnn::JobGroup& group) {
        serve::MapRequest req;
        req.problem.task = task;
        req.problem.setting = accel::Setting::S4;
        req.problem.systemBwGbps = 1.0;
        req.group = group;
        req.search.sampleBudget = full_budget;
        req.search.seed = 1;
        return req;
    };

    std::printf("Serving 6 consecutive %s groups on S4 at BW=1 GB/s\n\n",
                dnn::taskTypeName(task).c_str());
    std::printf("%-8s %14s %16s %14s %12s\n", "group", "cold(full)",
                "warm(Trf-0-ep)", "warm(+1 ep)", "samples saved");

    for (int g = 0; g < 6; ++g) {
        dnn::JobGroup group = gen.makeGroup(task, group_size);

        // Warm path first (Trf-0-ep + one refinement epoch) against the
        // store as previous groups left it; read-only so the cold run
        // below publishes this group's knowledge.
        serve::MapResponse warm;
        bool have_warm = service.store().size() > 0;
        if (have_warm) {
            serve::MapRequest req = makeRequest(group);
            req.warmBudget = one_epoch_budget;
            req.writeBack = false;
            warm = service.submit(std::move(req)).get();
        }

        // Cold full search (the expensive path); writes back to the store.
        serve::MapRequest req = makeRequest(group);
        req.search.warmStart = false;
        serve::MapResponse cold = service.submit(std::move(req)).get();

        if (!have_warm) {
            // First group: nothing to transfer yet.
            std::printf("%-8d %14.1f %16s %14s %12s\n", g,
                        cold.bestFitness, "-", "-", "-");
        } else {
            std::printf("%-8d %14.1f %16.1f %14.1f %11lld\n", g,
                        cold.bestFitness, warm.trf0Fitness,
                        warm.bestFitness,
                        static_cast<long long>(full_budget -
                                               warm.samplesUsed));
        }
    }

    std::printf("\nWarm-started groups reach a competitive mapping with "
                "~%lld samples instead of %lld.\n",
                static_cast<long long>(one_epoch_budget),
                static_cast<long long>(full_budget));
    service.stop();
    return 0;
}
