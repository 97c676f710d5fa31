#include "obs/scope.h"

#include <utility>

namespace magma::obs {

void
Scope::begin(bool profile, bool span)
{
    if (profile) {
        state_ = &Profiler::global().threadState();
        Profiler::enter(*state_, name_);
    }
    span_ = span;
    t0_ = nowSeconds();
}

void
Scope::end()
{
    double elapsed = nowSeconds() - t0_;
    if (state_)
        Profiler::exit(*state_, elapsed);
    if (span_) {
        TraceEvent e;
        e.name = name_;
        e.startSeconds = t0_;
        e.durSeconds = elapsed;
        e.i = i_;
        e.a = a_;
        e.b = b_;
        Tracer::global().record(std::move(e));
    }
}

}  // namespace magma::obs
