#ifndef MAGMA_OBS_SCOPE_H_
#define MAGMA_OBS_SCOPE_H_

#include <cstdint>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace magma::obs {

/**
 * The one instrumentation primitive: an RAII scope that reads the level
 * once at construction and, from one clock read at entry and one at
 * exit, feeds both sinks.
 *
 *   obs::Scope scope("exec.cost_cache.probe");      // profile only
 *
 *   // span payload: i = batch size
 *   obs::Scope scope("exec.eval.batch", count);     // span + profile
 *
 * Every scope is a node of the obs::Profiler tree at `profile`. A scope
 * built with an index `i` is also a span in the obs::Tracer rings at
 * `trace` and above, carrying `i` and the a/b slots payload() fills
 * before the scope closes. Below its level a scope costs one level read
 * and one branch, and reads no clock. `name` must outlive the scope (a
 * string literal).
 *
 * Payload slots per span site:
 *   opt.search           i = samples used, a = best fitness
 *   opt.generation       i = generation index, a = best-so-far fitness,
 *                        b = samples used so far
 *   exec.eval.batch      i = batch size
 *   exec.eval.sim_batch  i = batch size
 *   sched.flat.compile   i = jobs * accels table cells
 *   serve.request        i = serve order, a = queue-wait seconds,
 *                        b = service seconds
 *   dyn.remap.search     i = event index, a = best fitness,
 *                        b = samples used
 *   mo.generation        (a traceInstant) i = generation index,
 *                        a = archive front size, b = front hypervolume
 *                        (origin ref; NaN when the front is too large
 *                        to slice cheaply)
 * Every span site carries a "span payload:" comment naming its slots —
 * magma_lint --check-spans enforces the convention.
 */
class Scope {
  public:
    /** Profile-only scope. */
    [[nodiscard]] explicit Scope(const char* name) : name_(name)
    {
        if (profileOn())
            begin(true, false);
    }

    /** Span scope with index slot `i`. */
    [[nodiscard]] Scope(const char* name, int64_t i) : name_(name), i_(i)
    {
        MetricsLevel level = metricsLevel();
        if (level >= MetricsLevel::Trace)
            begin(level == MetricsLevel::Profile, true);
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    ~Scope()
    {
        if (state_ || span_)
            end();
    }

    /** Fill the span's payload slots (kept when it records). */
    void payload(double a, double b = 0.0)
    {
        a_ = a;
        b_ = b;
    }
    void setIndex(int64_t i) { i_ = i; }

  private:
    void begin(bool profile, bool span);
    void end();

    const char* name_;
    Profiler::ThreadState* state_ = nullptr;  // set while profiling
    bool span_ = false;                       // set while tracing
    double t0_ = 0.0;
    int64_t i_ = 0;
    double a_ = 0.0;
    double b_ = 0.0;
};

}  // namespace magma::obs

#endif  // MAGMA_OBS_SCOPE_H_
