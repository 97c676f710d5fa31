#include "serve/fingerprint.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "dnn/layer.h"

namespace magma::serve {
namespace {

/** 16x-wide log2 MAC-count class — coarse enough that jitter in batch or
 * spatial extent keeps similar jobs in one class. */
int
sizeClass(const dnn::Job& job)
{
    int bucket = static_cast<int>(std::log2(
        static_cast<double>(std::max<int64_t>(job.macs(), 1))));
    return bucket / 4;
}

}  // namespace

Fingerprint
fingerprintOf(const dnn::JobGroup& group, const accel::Platform& platform,
              sched::Objective objective)
{
    std::map<std::string, int> type_hist;   // layer type -> job count
    std::map<int, int> size_hist;           // size class -> job count
    for (const dnn::Job& job : group.jobs) {
        ++type_hist[dnn::layerTypeName(job.layer.type)];
        ++size_hist[sizeClass(job)];
    }

    std::ostringstream coarse;
    coarse << "task=" << dnn::taskTypeName(group.task) << "|plat="
           << platform.name << "#" << platform.numSubAccels() << "@"
           << platform.systemBwGbps << "|obj="
           << sched::objectiveName(objective);

    std::ostringstream fine;
    fine << coarse.str() << "|hist=";
    bool first = true;
    for (const auto& [type, n] : type_hist) {
        fine << (first ? "" : ",") << type << ":" << n;
        first = false;
    }
    fine << "|size=";
    first = true;
    for (const auto& [cls, n] : size_hist) {
        fine << (first ? "" : ",") << cls << ":" << n;
        first = false;
    }

    return Fingerprint{fine.str(), coarse.str()};
}

Fingerprint
fingerprintOf(const dnn::JobGroup& group, const api::ProblemSpec& spec,
              sched::Objective objective)
{
    return fingerprintOf(group, api::buildPlatform(spec), objective);
}

std::string
coalesceKeyOf(const Fingerprint& fp, const api::SearchSpec& search,
              bool write_back, int64_t warm_budget)
{
    std::ostringstream key;
    key << fp.key << "|method=" << search.method
        << "|budget=" << search.sampleBudget
        << "|warm=" << (search.warmStart ? 1 : 0)
        << "|wb=" << (write_back ? 1 : 0) << "|wbudget=" << warm_budget;
    return key.str();
}

}  // namespace magma::serve
