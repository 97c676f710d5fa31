#ifndef MAGMA_OPT_FLAT_H_
#define MAGMA_OPT_FLAT_H_

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "opt/optimizer.h"

namespace magma::opt {

/**
 * Helpers for optimizers that treat the mapping as a flat point in
 * [0,1]^{2G} (DE, PSO, CMA-ES, TBPSA). Decoding goes through
 * sched::Mapping::fromFlat, which clamps and bins the accel genes.
 */
namespace flat {

inline void
clamp01(std::vector<double>& x)
{
    for (double& v : x)
        v = std::clamp(v, 0.0, 1.0);
}

inline std::vector<double>
randomPoint(int dim, common::Rng& rng)
{
    std::vector<double> x(dim);
    for (double& v : x)
        v = rng.uniform();
    return x;
}

/** Decode a generation of flat points into mappings. */
inline std::vector<sched::Mapping>
toMappings(const std::vector<std::vector<double>>& xs, int num_accels)
{
    std::vector<sched::Mapping> ms;
    ms.reserve(xs.size());
    for (const auto& x : xs)
        ms.push_back(sched::Mapping::fromFlat(x, num_accels));
    return ms;
}

/**
 * Batch-evaluate a generation of flat points through the recorder's
 * batch path. Truncated to the remaining budget like
 * SearchRecorder::evaluateBatch; result[i] belongs to xs[i].
 */
inline std::vector<double>
evaluateBatch(SearchRecorder& rec, const std::vector<std::vector<double>>& xs,
              int num_accels)
{
    return rec.evaluateBatch(toMappings(xs, num_accels));
}

}  // namespace flat
}  // namespace magma::opt

#endif  // MAGMA_OPT_FLAT_H_
