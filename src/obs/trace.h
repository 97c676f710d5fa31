#ifndef MAGMA_OBS_TRACE_H_
#define MAGMA_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace magma::obs {

/**
 * One completed span (or instant event, durSeconds == 0): what ran,
 * when (obs::nowSeconds() at its start), for how long, on which thread,
 * plus three payload slots whose meaning is per-site — the table is on
 * obs::Scope (src/obs/scope.h).
 */
struct TraceEvent {
    std::string name;
    double startSeconds = 0.0;
    double durSeconds = 0.0;
    int thread = 0;
    int64_t i = 0;
    double a = 0.0;
    double b = 0.0;
};

/**
 * Process-wide span collector: each thread owns a fixed-capacity ring
 * buffer (oldest events overwritten, overwrites counted), so tracing
 * never allocates unboundedly and never blocks one thread on another —
 * the only cross-thread contention is drain() against a ring's own
 * mutex. obs::Scope and traceInstant() record only at obs::traceOn();
 * at lower levels a site costs one branch.
 */
class Tracer {
  public:
    /** Events kept per thread before the ring wraps. */
    static constexpr size_t kRingCapacity = 8192;

    /** Record a completed span on the calling thread's ring. */
    void record(TraceEvent e);

    /**
     * Move out every ring's events, oldest first per thread, merged in
     * start-time order; clears the rings. `dropped`, when non-null,
     * receives the number of events lost to ring wraps since the last
     * drain.
     */
    std::vector<TraceEvent> drain(int64_t* dropped = nullptr);

    static Tracer& global();

  private:
    struct Ring {
        std::mutex mu;
        std::vector<TraceEvent> events;  // capacity kRingCapacity
        size_t next = 0;                 // insertion cursor
        bool wrapped = false;
        int64_t droppedSinceDrain = 0;
        int thread = 0;
    };

    Ring& myRing();

    std::mutex mu_;  // guards rings_ registration
    std::vector<std::shared_ptr<Ring>> rings_;
    int next_thread_id_ = 0;
};

/** Record an instant (zero-duration) event when tracing is on. */
inline void
traceInstant(const char* name, int64_t i, double a = 0.0, double b = 0.0)
{
    if (!traceOn())
        return;
    TraceEvent e;
    e.name = name;
    e.startSeconds = nowSeconds();
    e.i = i;
    e.a = a;
    e.b = b;
    Tracer::global().record(std::move(e));
}

}  // namespace magma::obs

#endif  // MAGMA_OBS_TRACE_H_
