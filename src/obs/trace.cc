#include "obs/trace.h"

#include <algorithm>
#include <utility>

namespace magma::obs {

Tracer::Ring&
Tracer::myRing()
{
    // One ring per (tracer, thread); the shared_ptr keeps a ring
    // drainable after its thread exits.
    thread_local std::shared_ptr<Ring> ring;
    thread_local Tracer* owner = nullptr;
    if (!ring || owner != this) {
        auto r = std::make_shared<Ring>();
        r->events.reserve(kRingCapacity);
        {
            std::lock_guard<std::mutex> lk(mu_);
            r->thread = next_thread_id_++;
            rings_.push_back(r);
        }
        ring = std::move(r);
        owner = this;
    }
    return *ring;
}

void
Tracer::record(TraceEvent e)
{
    Ring& r = myRing();
    e.thread = r.thread;
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.events.size() < kRingCapacity) {
        r.events.push_back(std::move(e));
        r.next = r.events.size() % kRingCapacity;
    } else {
        r.events[r.next] = std::move(e);
        r.next = (r.next + 1) % kRingCapacity;
        r.wrapped = true;
        ++r.droppedSinceDrain;
    }
}

std::vector<TraceEvent>
Tracer::drain(int64_t* dropped)
{
    std::vector<std::shared_ptr<Ring>> rings;
    {
        std::lock_guard<std::mutex> lk(mu_);
        rings = rings_;
    }
    std::vector<TraceEvent> out;
    int64_t lost = 0;
    for (auto& r : rings) {
        std::lock_guard<std::mutex> lk(r->mu);
        if (r->wrapped) {
            // Oldest-first: the slot at `next` is the oldest survivor.
            out.insert(out.end(),
                       std::make_move_iterator(r->events.begin() +
                                               static_cast<long>(r->next)),
                       std::make_move_iterator(r->events.end()));
            out.insert(out.end(),
                       std::make_move_iterator(r->events.begin()),
                       std::make_move_iterator(r->events.begin() +
                                               static_cast<long>(r->next)));
        } else {
            out.insert(out.end(),
                       std::make_move_iterator(r->events.begin()),
                       std::make_move_iterator(r->events.end()));
        }
        lost += r->droppedSinceDrain;
        r->events.clear();
        r->next = 0;
        r->wrapped = false;
        r->droppedSinceDrain = 0;
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.startSeconds < b.startSeconds;
                     });
    if (dropped)
        *dropped = lost;
    return out;
}

Tracer&
Tracer::global()
{
    static Tracer* t = new Tracer();  // never destroyed: worker threads
                                      // may record during static teardown
    return *t;
}

}  // namespace magma::obs
