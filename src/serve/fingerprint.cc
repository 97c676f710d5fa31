#include "serve/fingerprint.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "dnn/layer.h"

namespace magma::serve {
namespace {

/** dnn::LayerType's enumerator count (FullyConnected is the last). */
constexpr int kLayerTypes =
    static_cast<int>(dnn::LayerType::FullyConnected) + 1;
/** sizeClass's range: log2 of an int64_t MAC count is at most 63. */
constexpr int kSizeClasses = 16;

/** 16x-wide log2 MAC-count class — coarse enough that jitter in batch or
 * spatial extent keeps similar jobs in one class. */
int
sizeClass(const dnn::Job& job)
{
    int bucket = static_cast<int>(std::log2(
        static_cast<double>(std::max<int64_t>(job.macs(), 1))));
    return bucket / 4;
}

/** The layer types in the order of their names: the histogram's order. */
const std::array<dnn::LayerType, kLayerTypes>&
typesByName()
{
    static const std::array<dnn::LayerType, kLayerTypes> order = [] {
        std::array<dnn::LayerType, kLayerTypes> types;
        for (int t = 0; t < kLayerTypes; ++t)
            types[t] = static_cast<dnn::LayerType>(t);
        std::sort(types.begin(), types.end(),
                  [](dnn::LayerType a, dnn::LayerType b) {
                      return dnn::layerTypeName(a) < dnn::layerTypeName(b);
                  });
        return types;
    }();
    return order;
}

/** `v` as std::ostream's default formatting prints it: %g, six
 * significant digits (no program here changes the C locale). */
std::string
formatG(double v)
{
    char buf[32];
    return std::string(buf, static_cast<size_t>(
                                std::snprintf(buf, sizeof buf, "%g", v)));
}

}  // namespace

Fingerprint
fingerprintOf(const dnn::JobGroup& group, const accel::Platform& platform,
              sched::Objective objective)
{
    std::array<int, kLayerTypes> type_hist{};   // layer type -> job count
    std::array<int, kSizeClasses> size_hist{};  // size class -> job count
    for (const dnn::Job& job : group.jobs) {
        ++type_hist[static_cast<int>(job.layer.type)];
        ++size_hist[sizeClass(job)];
    }

    // Store snapshots and logs persist these keys, so their bytes never
    // change: each histogram lists its non-zero bins in ascending key
    // order (layer-type name, size class).
    Fingerprint fp;
    fp.coarse = "task=" + dnn::taskTypeName(group.task) + "|plat=" +
                platform.name + '#' +
                std::to_string(platform.numSubAccels()) + '@' +
                formatG(platform.systemBwGbps) +
                "|obj=" + sched::objectiveName(objective);
    std::string& fine = fp.key;
    fine = fp.coarse + "|hist=";
    const char* sep = "";
    for (dnn::LayerType t : typesByName()) {
        if (const int n = type_hist[static_cast<int>(t)]) {
            fine += sep;
            fine += dnn::layerTypeName(t) + ':' + std::to_string(n);
            sep = ",";
        }
    }
    fine += "|size=";
    sep = "";
    for (int cls = 0; cls < kSizeClasses; ++cls) {
        if (const int n = size_hist[cls]) {
            fine += sep;
            fine += std::to_string(cls) + ':' + std::to_string(n);
            sep = ",";
        }
    }
    return fp;
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
