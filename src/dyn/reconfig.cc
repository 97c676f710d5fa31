#include "dyn/reconfig.h"

#include <cassert>
#include <map>

namespace magma::dyn {

ReconfigCharge
computeReconfig(const std::vector<int>& match,
                const std::vector<int>& prev_accel,
                const dnn::JobGroup& group, const sched::Mapping& next,
                double system_bw_gbps, const ReconfigSpec& spec)
{
    assert(static_cast<int>(match.size()) == group.size());
    assert(next.size() == group.size());

    ReconfigCharge charge;
    charge.setupSeconds.assign(match.size(), 0.0);
    for (size_t i = 0; i < match.size(); ++i) {
        bool is_new = match[i] < 0;
        bool moved = !is_new && prev_accel[match[i]] != next.accelSel[i];
        if (is_new)
            ++charge.newJobs;
        else if (moved)
            ++charge.movedJobs;
        else
            ++charge.keptJobs;
        if (!(moved || (is_new && spec.chargeArrivals)))
            continue;
        double setup = spec.retileStallSeconds;
        if (spec.chargeWeightReload) {
            double bytes =
                static_cast<double>(group.jobs[i].layer.weightElems()) *
                spec.bytesPerElem;
            charge.reloadBytes += bytes;
            setup += bytes / (system_bw_gbps * 1e9);
        }
        charge.setupSeconds[i] = setup;
        charge.totalStallSeconds += setup;
    }
    return charge;
}

ReconfigCharge
computeReconfig(
    const std::vector<std::pair<std::string, int>>& prev_accel_of,
    const std::vector<std::string>& ids, const dnn::JobGroup& group,
    const sched::Mapping& next, double system_bw_gbps,
    const ReconfigSpec& spec)
{
    assert(static_cast<int>(ids.size()) == group.size());
    std::map<std::string, int> position;
    std::vector<int> prev_accel;
    prev_accel.reserve(prev_accel_of.size());
    for (const auto& [id, accel] : prev_accel_of) {
        position.emplace(id, static_cast<int>(prev_accel.size()));
        prev_accel.push_back(accel);
    }
    std::vector<int> match(ids.size(), -1);
    for (size_t i = 0; i < ids.size(); ++i)
        if (auto it = position.find(ids[i]); it != position.end())
            match[i] = it->second;
    return computeReconfig(match, prev_accel, group, next, system_bw_gbps,
                           spec);
}

}  // namespace magma::dyn
