// Layer replays for the traced run. A layer that is only reachable inside
// a front-end call (a cost query inside a problem build, a flat-kernel
// evaluation inside a search) is timed by re-running the operation's
// recorded inputs through that layer's public function.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <vector>

#include "accel/platform.h"
#include "bench.h"
#include "dnn/workload.h"
#include "sched/evaluator.h"
#include "sched/mapping.h"

namespace magma::api {}
namespace magma::dyn {}
namespace magma::m3e {}
namespace magma::opt {}
namespace magma::serve {}

namespace perfbench {

namespace accel = magma::accel;
namespace api = magma::api;
namespace cost = magma::cost;
namespace dnn = magma::dnn;
namespace dyn = magma::dyn;
namespace exec = magma::exec;
namespace m3e = magma::m3e;
namespace opt = magma::opt;
namespace sched = magma::sched;
namespace serve = magma::serve;

/** Per-call means gathered over the replays of a traced run. */
struct LayerSums {
    double costQueryUs = 0.0;
    int64_t costQueries = 0;
    double jatMs = 0.0;
    double jatUniqueQueries = 0.0;
    int64_t jatCalls = 0;
    double compileUs = 0.0;
    int64_t compiles = 0;
    double cacheHitUs = 0.0;
    int64_t cacheHits = 0;
    double candidateNs = 0.0;
    int64_t candidates = 0;

    /** Write the means of what was replayed into `out.metrics`. */
    void put(Outcome& out) const;
};

/**
 * Replay the problem-materialization layers of one operation: every cost
 * query of the group on the platform (cost.query), the Job Analysis
 * Table build with `cache` as the front end passes it (sched.jat), the
 * flat-kernel compile of `eval` (sched.flat.compile) and the CostCache
 * hit path (exec.cost_cache.analyze) on a private cache.
 */
void replayProblemLayers(SpanLog& log, int parent, int64_t op,
                         const dnn::JobGroup& group,
                         const accel::Platform& platform,
                         const sched::MappingEvaluator& eval,
                         exec::CostCache* cache, LayerSums& sums);

/**
 * Replay `candidates` through FlatEvaluator::fitness on one scratch
 * (sched.flat.fitness), as a replayed child of span `parent`; returns the
 * replay's duration in ns.
 */
int64_t replayCandidates(SpanLog& log, int parent, int64_t op,
                         const sched::MappingEvaluator& eval,
                         const std::vector<sched::Mapping>& candidates,
                         LayerSums& sums);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
