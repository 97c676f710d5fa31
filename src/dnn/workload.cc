#include "dnn/workload.h"

#include "dnn/model_zoo.h"

namespace magma::dnn {

int64_t
JobGroup::totalMacs() const
{
    int64_t total = 0;
    for (const auto& j : jobs)
        total += j.macs();
    return total;
}

int
defaultBatch(TaskType t)
{
    switch (t) {
    case TaskType::Vision:
        return 4;    // images per mini-batch
    case TaskType::Language:
        return 128;  // tokens per chunk
    case TaskType::Recommendation:
        return 4;    // request mini-batch
    case TaskType::Mix:
        return 4;
    }
    return 1;
}

JobGroup
WorkloadGenerator::makeGroup(TaskType task, int group_size)
{
    JobGroup group;
    group.task = task;
    const std::vector<Model>& models = modelsForTask(task);

    // Walk layers of a randomly drawn model until the group is full; this
    // mimics several tenants' mini-batches queuing together while keeping
    // consecutive layers of one model present (as a real pool would).
    int id = 0;
    while (group.size() < group_size) {
        const Model& m = models[rng_.uniformInt(
            static_cast<int>(models.size()))];
        int start = rng_.uniformInt(static_cast<int>(m.layers.size()));
        int run = 1 + rng_.uniformInt(8);  // consecutive layers per tenant
        for (int i = 0; i < run && group.size() < group_size; ++i) {
            const LayerShape& layer =
                m.layers[(start + i) % m.layers.size()];
            Job job;
            job.id = id++;
            job.layer = layer;
            job.batch = defaultBatch(m.task);
            job.task = m.task;
            job.model = m.name;
            group.jobs.push_back(job);
        }
    }
    return group;
}

std::vector<JobGroup>
WorkloadGenerator::makeGroups(TaskType task, int group_size, int count)
{
    std::vector<JobGroup> out;
    out.reserve(count);
    for (int i = 0; i < count; ++i)
        out.push_back(makeGroup(task, group_size));
    return out;
}

}  // namespace magma::dnn
