#include "sched/bw_allocator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace magma::sched {

std::string
bwPolicyName(BwPolicy p)
{
    switch (p) {
    case BwPolicy::Proportional:
        return "proportional";
    case BwPolicy::EvenSplit:
        return "even-split";
    }
    return "?";
}

BwPolicy
bwPolicyFromName(const std::string& name)
{
    for (BwPolicy p : {BwPolicy::Proportional, BwPolicy::EvenSplit})
        if (bwPolicyName(p) == name)
            return p;
    throw std::invalid_argument("unknown BW policy '" + name +
                                "' (proportional|even-split)");
}

ScheduleResult
BwAllocator::run(const DecodedMapping& decoded, const JobAnalysisTable& table,
                 bool record_timeline,
                 const std::vector<double>* setup_seconds) const
{
    const int num_accels = static_cast<int>(decoded.queues.size());
    const bool proportional = (policy_ == BwPolicy::Proportional);
    // The even split's static per-core share.
    const double share = system_bw_ / num_accels;
    const double inf = std::numeric_limits<double>::infinity();
    ScheduleResult result;
    result.finishTime.assign(table.numJobs(), 0.0);

    EventClock clock;

    // Per-accelerator cursor into its queue and live-job state. A live
    // slot is in one phase: BW-bound (a virtual end and its demand), or
    // progressing on the wall clock (a wall end). A drained slot has
    // neither end and no demand, so the scans below skip it for free.
    std::vector<size_t> cursor(num_accels, 0);
    std::vector<int> live_job(num_accels, -1);
    std::vector<bool> in_setup(num_accels, false);
    std::vector<double> virt_end(num_accels, inf);
    std::vector<double> wall_end(num_accels, inf);
    std::vector<double> demand(num_accels, 0.0);

    // Start executing slot a's live job now. A BW-bound job ends after
    // its no-stall seconds of virtual time; any other job after a wall
    // duration fixed here.
    auto execute = [&](int a) {
        const JobProfile& p = table.lookup(live_job[a], a);
        in_setup[a] = false;
        if (proportional && p.reqBwGbps > kZeroDemandGbps) {
            wall_end[a] = inf;
            virt_end[a] = clock.v + p.noStallSeconds;
            demand[a] = p.reqBwGbps;
            return;
        }
        // Static even split: every core owns 1/N of the system BW whether
        // it needs it or not (Section IV-D1's naive heuristic).
        double seconds = p.noStallSeconds;
        if (!proportional && p.reqBwGbps > kZeroDemandGbps &&
            p.reqBwGbps > share)
            seconds *= p.reqBwGbps / share;
        wall_end[a] = clock.now + seconds;
    };

    // Pop slot a's next job. It first burns its setup stall, if any: a
    // wall phase that demands no bandwidth.
    auto launchNext = [&](int a) {
        const auto& q = decoded.queues[a];
        virt_end[a] = inf;
        wall_end[a] = inf;
        demand[a] = 0.0;
        if (cursor[a] == q.size()) {
            live_job[a] = -1;
            return;
        }
        int j = q[cursor[a]++];
        live_job[a] = j;
        double setup =
            setup_seconds ? (*setup_seconds)[static_cast<size_t>(j)] : 0.0;
        if (setup > 0.0) {
            in_setup[a] = true;
            wall_end[a] = clock.now + setup;
        } else {
            execute(a);
        }
    };

    for (int a = 0; a < num_accels; ++a)
        launchNext(a);

    while (true) {
        // Live demand and the earliest virtual and wall ends; ties go to
        // the lowest accelerator. Once every queue is drained there is no
        // end left and advance() returns -1.
        double total_req = 0.0;
        double next_v = inf;
        double next_w = inf;
        int av = -1;
        int aw = -1;
        for (int a = 0; a < num_accels; ++a) {
            total_req += demand[a];
            if (virt_end[a] < next_v) {
                next_v = virt_end[a];
                av = a;
            }
            if (wall_end[a] < next_w) {
                next_w = wall_end[a];
                aw = a;
            }
        }
        clock.setDemand(total_req, system_bw_);
        const double start = clock.now;
        const int e = clock.advance(next_v, av, next_w, aw);
        if (e < 0)
            break;

        if (record_timeline) {
            for (int a = 0; a < num_accels; ++a) {
                if (live_job[a] < 0)
                    continue;
                ScheduleEvent ev;
                ev.start = start;
                ev.end = clock.now;
                ev.job = live_job[a];
                ev.accel = a;
                // Setup segments show the job stalled: 0 GB/s granted.
                double req = table.lookup(live_job[a], a).reqBwGbps;
                if (in_setup[a])
                    ev.allocBw = 0.0;
                else if (demand[a] > 0.0)
                    ev.allocBw = demand[a] / clock.stretch;
                else if (!proportional && req > kZeroDemandGbps)
                    ev.allocBw = std::min(req, share);
                else
                    ev.allocBw = req;
                result.events.push_back(ev);
            }
        }

        if (in_setup[e]) {
            execute(e);
        } else {
            result.finishTime[live_job[e]] = clock.now;
            launchNext(e);
        }
    }

    result.makespanSeconds = clock.now;
    return result;
}

}  // namespace magma::sched
