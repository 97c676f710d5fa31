#include "opt/warm_start.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "cost/cost_key.h"
#include "opt/magma_ga.h"

namespace magma::opt {
namespace {

/** Per-gene mutation rate of the warm-start seeds' perturbed copies. */
constexpr double kSeedMutationRate = 0.05;

/** Similarity bucket for job-matched transfer: task + layer type, plus
 * the log2-size class of the job's MAC count in the fine tier. The tag
 * in the top bits keeps the fine and coarse tiers apart. */
uint64_t
similarKey(const dnn::Job& job, bool with_size)
{
    uint64_t key = (with_size ? 1ull : 2ull) << 62;
    key |= static_cast<uint64_t>(job.task) << 40;
    key |= static_cast<uint64_t>(job.layer.type) << 32;
    if (with_size) {
        int bucket = static_cast<int>(
            std::log2(static_cast<double>(std::max<int64_t>(job.macs(),
                                                            1))));
        key |= static_cast<uint32_t>(bucket / 2);  // 4x-wide size classes
    }
    return key;
}

/** Exact identity bucket: model + task + full layer signature + batch —
 * the tier a job surviving across events lands in, so it inherits its
 * own gene (duplicates round-robin over the duplicate pool in order). */
struct ExactKey {
    std::string_view model;
    dnn::TaskType task;
    cost::LayerKey layer;

    explicit ExactKey(const dnn::Job& job)
        : model(job.model), task(job.task),
          layer(cost::layerKey(job.layer, job.batch))
    {}
    bool operator==(const ExactKey&) const = default;

    struct Hash {
        size_t operator()(const ExactKey& k) const noexcept
        {
            return std::hash<std::string_view>{}(k.model) ^
                   (cost::LayerKey::Hash{}(k.layer) +
                    static_cast<size_t>(k.task));
        }
    };
};

/** One bucket's stored jobs and its round-robin cursor. */
struct Pool {
    std::vector<int> jobs;
    int cursor = 0;

    int next() { return jobs[cursor++ % static_cast<int>(jobs.size())]; }
};

/**
 * Similarity index over a stored group: exact -> fine -> coarse bucket
 * pools with per-bucket round-robin cursors, shared by adaptJobMatched
 * and adaptMatched so the two paths cannot drift. Exact keys view the
 * stored group's model names, so the index must not outlive it.
 */
struct MatchIndex {
    // Determinism audit: both maps are keyed find/lookup only, never
    // iterated — matchFor probes fixed key tiers in a fixed order, so
    // hash order cannot influence which stored job is returned.
    std::unordered_map<ExactKey, Pool, ExactKey::Hash> exact;
    std::unordered_map<uint64_t, Pool> similar;

    explicit MatchIndex(const dnn::JobGroup& stored_group)
    {
        for (int j = 0; j < stored_group.size(); ++j) {
            const dnn::Job& job = stored_group.jobs[j];
            exact[ExactKey(job)].jobs.push_back(j);
            similar[similarKey(job, true)].jobs.push_back(j);
            similar[similarKey(job, false)].jobs.push_back(j);
        }
    }

    /** Stored-job index for `job`, or -1 when no tier matches. */
    int matchFor(const dnn::Job& job)
    {
        if (auto it = exact.find(ExactKey(job)); it != exact.end())
            return it->second.next();
        for (bool with_size : {true, false}) {
            auto it = similar.find(similarKey(job, with_size));
            if (it != similar.end())
                return it->second.next();
        }
        return -1;
    }
};

}  // namespace

namespace transfer {

int
populationFor(int group_size)
{
    return std::clamp(group_size, 8, 100);
}

int64_t
warmBudget(int64_t requested, int population, int64_t cold_budget)
{
    return requested > 0 ? requested
                         : std::max<int64_t>(population, cold_budget / 4);
}

sched::Mapping
adaptPositional(const sched::Mapping& stored, int group_size,
                int num_accels)
{
    sched::Mapping base;
    base.accelSel.resize(group_size);
    base.priority.resize(group_size);
    int n = stored.size();
    if (n == 0) {
        // An empty stored solution carries no knowledge: fall back to a
        // deterministic all-on-core-0, submission-order mapping instead
        // of dividing by zero below.
        for (int i = 0; i < group_size; ++i) {
            base.accelSel[i] = 0;
            base.priority[i] = (i + 0.5) / group_size;
        }
        return base;
    }
    for (int i = 0; i < group_size; ++i) {
        base.accelSel[i] = std::min(stored.accelSel[i % n], num_accels - 1);
        base.priority[i] = stored.priority[i % n];
    }
    return base;
}

sched::Mapping
adaptJobMatched(const sched::Mapping& stored,
                const dnn::JobGroup& stored_group,
                const dnn::JobGroup& target, int num_accels,
                common::Rng& rng)
{
    MatchIndex index(stored_group);
    sched::Mapping base;
    base.accelSel.resize(target.size());
    base.priority.resize(target.size());
    for (int i = 0; i < target.size(); ++i) {
        int src = index.matchFor(target.jobs[i]);
        if (src >= 0) {
            base.accelSel[i] = std::min(stored.accelSel[src],
                                        num_accels - 1);
            base.priority[i] = stored.priority[src];
        } else {
            base.accelSel[i] = rng.uniformInt(num_accels);
            base.priority[i] = rng.uniform();
        }
    }
    return base;
}

sched::Mapping
adaptMatched(const sched::Mapping& stored,
             const dnn::JobGroup& stored_group, const dnn::JobGroup& target,
             const std::vector<int>& match, int num_accels,
             common::Rng& rng)
{
    if (static_cast<int>(match.size()) != target.size())
        throw std::invalid_argument(
            "adaptMatched: match vector size != target group size");
    // Built on the first new job only: a pure re-map (every job kept)
    // never probes it.
    std::optional<MatchIndex> index;
    sched::Mapping base;
    base.accelSel.resize(target.size());
    base.priority.resize(target.size());
    for (int i = 0; i < target.size(); ++i) {
        int src = match[i];
        if (src >= stored.size())
            throw std::invalid_argument(
                "adaptMatched: match index out of range");
        if (src < 0) {
            if (!index)
                index.emplace(stored_group);
            src = index->matchFor(target.jobs[i]);
        }
        if (src >= 0) {
            base.accelSel[i] = std::min(stored.accelSel[src],
                                        num_accels - 1);
            base.priority[i] = stored.priority[src];
        } else {
            base.accelSel[i] = rng.uniformInt(num_accels);
            base.priority[i] = rng.uniform();
        }
    }
    return base;
}

std::vector<sched::Mapping>
seedsAround(const sched::Mapping& base, int count, int num_accels,
            common::Rng& rng)
{
    const common::GeometricSkip mutation(kSeedMutationRate, 2 * base.size());
    std::vector<sched::Mapping> seeds;
    seeds.push_back(base);
    while (static_cast<int>(seeds.size()) < count) {
        sched::Mapping m = base;
        MagmaGa::mutate(m, mutation, num_accels, rng);
        seeds.push_back(std::move(m));
    }
    return seeds;
}

std::vector<sched::Mapping>
seedsFromStored(const sched::Mapping& stored,
                const dnn::JobGroup& stored_group, const dnn::JobGroup& target,
                int count, int num_accels, common::Rng& rng)
{
    sched::Mapping base =
        stored_group.jobs.empty()
            ? adaptPositional(stored, target.size(), num_accels)
            : adaptJobMatched(stored, stored_group, target, num_accels, rng);
    return seedsAround(base, count, num_accels, rng);
}

std::vector<sched::Mapping>
seedsFromArchive(const std::vector<sched::Mapping>& members, int group_size,
                 int count, int num_accels, common::Rng& rng)
{
    std::vector<sched::Mapping> seeds;
    for (const sched::Mapping& m : members) {
        if (static_cast<int>(seeds.size()) >= count)
            break;
        seeds.push_back(adaptPositional(m, group_size, num_accels));
    }
    const size_t adapted = seeds.size();
    const common::GeometricSkip mutation(kSeedMutationRate, 2 * group_size);
    for (size_t k = 0; static_cast<int>(seeds.size()) < count; ++k) {
        sched::Mapping m = seeds[k % adapted];
        MagmaGa::mutate(m, mutation, num_accels, rng);
        seeds.push_back(std::move(m));
    }
    return seeds;
}

}  // namespace transfer

}  // namespace magma::opt
