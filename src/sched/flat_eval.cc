#include "sched/flat_eval.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/scope.h"

namespace magma::sched {

namespace {

// The load bound's margin; docs/architecture.md gives the argument.
// L' = L * (1 - kBoundSlack) is a lower bound on the simulated makespan
// for groups of at most kBoundMaxJobs jobs.
constexpr double kBoundSlack = 1e-9;
constexpr int kBoundMaxJobs = 100000;

/** The makespan cutoff that bounds nothing. */
constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

/** Decode bucket count B = bit_ceil(2G): about two buckets per job, and a
 * power of two so that scaling a priority by it is exact. */
int
decodeBuckets(int jobs)
{
    return static_cast<int>(std::bit_ceil(2u * static_cast<unsigned>(jobs)));
}

}  // namespace

void
EvalScratch::ensure(int jobs, int accels)
{
    if (jobs_ == jobs && accels_ == accels)
        return;
    jobs_ = jobs;
    accels_ = accels;
    queue_begin_.resize(accels + 1);
    fill_.resize(accels);
    order_.resize(jobs);
    bucket_.resize(jobs);
    bucket_begin_.resize(decodeBuckets(jobs) + 1);
    queue_no_stall_.resize(jobs);
    queue_req_bw_.resize(jobs);
    cursor_.resize(accels);
    virt_end_.resize(accels);
    wall_end_.resize(accels);
    demand_.resize(accels);
}

FlatEvaluator::FlatEvaluator(const MappingEvaluator& ref)
    : jobs_(ref.groupSize()),
      accels_(ref.numAccels()),
      system_bw_(ref.platform().systemBwGbps),
      policy_(ref.bwPolicy()),
      objective_(ref.objective()),
      total_flops_(ref.group().totalFlops()),
      buckets_(decodeBuckets(jobs_))
{
    // Compile the Job Analysis Table into structure-of-arrays columns so
    // the inner loop streams doubles instead of striding over JobProfile
    // records.
    size_t n = static_cast<size_t>(jobs_) * accels_;
    // span payload: i = jobs * accels table cells
    obs::Scope scope("sched.flat.compile", static_cast<int64_t>(n));
    if (obs::countersOn())
        obs::MetricsRegistry::global().counter("sched.flat.compiles").add();
    no_stall_seconds_.resize(n);
    req_bw_gbps_.resize(n);
    energy_pj_.resize(n);
    const JobAnalysisTable& table = ref.table();
    for (int j = 0; j < jobs_; ++j) {
        for (int a = 0; a < accels_; ++a) {
            const JobProfile& p = table.lookup(j, a);
            size_t i = static_cast<size_t>(j) * accels_ + a;
            no_stall_seconds_[i] = p.noStallSeconds;
            req_bw_gbps_[i] = p.reqBwGbps;
            energy_pj_[i] = p.energyPj;
        }
    }
}

void
FlatEvaluator::decodeInto(const Mapping& m, EvalScratch& s) const
{
    const int accels = accels_;
    const int jobs = jobs_;
    const int buckets = buckets_;
    const double scale = buckets;
    const double* prio = m.priority.data();
    const int* sel = m.accelSel.data();
    int32_t* qbegin = s.queue_begin_.data();
    int32_t* bucket = s.bucket_.data();
    int32_t* bucket_begin = s.bucket_begin_.data();

    // Bucket pass: job j falls in bucket floor(p_j * B), clamped to
    // [0, B - 1]. Mapping::fromText admits any finite priority, and
    // converting an out-of-range double to int is undefined, so the clamp
    // comes before the conversion. B is a power of two, so p * B is exact
    // and the bucket is monotone in priority: p < q implies bucket(p) <=
    // bucket(q). The same pass counts each queue's length. Both counts
    // land one slot up and are prefix-summed into begin offsets.
    std::fill_n(bucket_begin, buckets + 1, 0);
    std::fill_n(qbegin, accels + 1, 0);
    for (int j = 0; j < jobs; ++j) {
        assert(sel[j] >= 0 && sel[j] < accels);
        double x = prio[j] * scale;
        int32_t b = 0;
        if (x >= 1.0)
            b = (x < scale) ? static_cast<int32_t>(x) : buckets - 1;
        bucket[j] = b;
        ++bucket_begin[b + 1];
        ++qbegin[sel[j] + 1];
    }
    for (int b = 0; b < buckets; ++b)
        bucket_begin[b + 1] += bucket_begin[b];
    for (int a = 0; a < accels; ++a)
        qbegin[a + 1] += qbegin[a];

    // Scatter in ascending job id, so each bucket holds its jobs in id
    // order. Each position also takes its job's priority as the sort key;
    // the no-stall column holds the keys until the distribute pass below
    // overwrites them.
    int32_t* order = s.order_.data();
    double* key = s.queue_no_stall_.data();
    for (int j = 0; j < jobs; ++j) {
        int32_t pos = bucket_begin[bucket[j]]++;
        order[pos] = j;
        key[pos] = prio[j];
    }

    // Fix-up: an insertion pass over the whole order. Buckets are already
    // in priority order, so an entry only moves past larger priorities of
    // its own bucket; strict '<' keeps equal priorities in job-id order.
    // The result is decode()'s (priority, job id) order.
    for (int i = 1; i < jobs; ++i) {
        double p = key[i];
        if (!(p < key[i - 1]))
            continue;
        int32_t job = order[i];
        int k = i;
        do {
            order[k] = order[k - 1];
            key[k] = key[k - 1];
            --k;
        } while (k > 0 && p < key[k - 1]);
        order[k] = job;
        key[k] = p;
    }

    // Distribute: walking the global order appends each queue's jobs in
    // (priority, job id) order, so every queue comes out sorted — exactly
    // decode()'s per-queue std::stable_sort. Each position's table cells
    // are gathered into the queue-ordered columns in the same pass.
    const double* no_stall = no_stall_seconds_.data();
    const double* req = req_bw_gbps_.data();
    int32_t* fill = s.fill_.data();
    double* qns = s.queue_no_stall_.data();
    double* qreq = s.queue_req_bw_.data();
    for (int a = 0; a < accels; ++a)
        fill[a] = qbegin[a];
    for (int i = 0; i < jobs; ++i) {
        int32_t job = order[i];
        int a = sel[job];
        int32_t pos = fill[a]++;
        size_t cell = static_cast<size_t>(job) * accels + a;
        qns[pos] = no_stall[cell];
        qreq[pos] = req[cell];
    }
}

double
FlatEvaluator::loadBound(const Mapping& m, EvalScratch& s) const
{
    // The per-queue sums need no queue order, so they come straight from
    // the assignment genome; the events' slot array is free until then.
    double* load = s.virt_end_.data();
    std::fill_n(load, accels_, 0.0);
    const double* no_stall = no_stall_seconds_.data();
    const int* sel = m.accelSel.data();
    for (int j = 0; j < jobs_; ++j)
        load[sel[j]] += no_stall[static_cast<size_t>(j) * accels_ + sel[j]];
    const double busiest = *std::max_element(load, load + accels_);
    // 0 is a lower bound on any makespan and bounds nothing.
    if (!std::isfinite(busiest))
        return 0.0;
    return busiest * (1.0 - kBoundSlack);
}

double
FlatEvaluator::makespanCutoff(double fitness_cutoff) const
{
    constexpr int kMaxSteps = 64;
    if (objective_ != Objective::Throughput &&
        objective_ != Objective::Latency)
        return kNoCutoff;
    if (jobs_ > kBoundMaxJobs || !std::isfinite(fitness_cutoff) ||
        fitness_cutoff <= 0.0)
        return kNoCutoff;
    // Both objectives are c / makespan for a makespan > 0, rounded, so
    // they are non-increasing in the makespan. Start from the quotient
    // and step one ulp at a time to the least makespan scoring below.
    auto below = [&](double makespan) {
        return objectiveFromSimulation(objective_, makespan, 0.0,
                                       total_flops_) < fitness_cutoff;
    };
    const double c = (objective_ == Objective::Throughput)
                         ? static_cast<double>(total_flops_) / 1e9
                         : 1.0;
    double cut = c / fitness_cutoff;
    if (!(cut > 0.0) || !std::isfinite(cut))
        return kNoCutoff;
    for (int i = 0; i < kMaxSteps && !below(cut); ++i)
        cut = std::nextafter(cut, kNoCutoff);
    if (!below(cut))
        return kNoCutoff;
    for (int i = 0; i < kMaxSteps; ++i) {
        double lower = std::nextafter(cut, 0.0);
        if (!(lower > 0.0) || !below(lower))
            break;
        cut = lower;
    }
    return cut;
}

void
FlatEvaluator::simulateEvents(const Mapping& m, EvalScratch& s,
                              double makespan_cutoff) const
{
    assert(m.size() == jobs_);
    obs::Scope scope("sched.flat.simulate");
    s.ensure(jobs_, accels_);
    s.bounded_ = false;
    if (makespan_cutoff < kNoCutoff) {
        double bound = loadBound(m, s);
        if (bound >= makespan_cutoff) {
            s.makespan_ = bound;
            s.bounded_ = true;
            return;
        }
    }
    decodeInto(m, s);

    const int num_accels = accels_;
    const double system_bw = system_bw_;
    // The even split's static per-core share.
    const double share = system_bw_ / num_accels;
    const bool proportional = (policy_ == BwPolicy::Proportional);
    constexpr double kInf = std::numeric_limits<double>::infinity();

    // Raw-pointer views of the scratch keep the inner loop free of
    // vector indirection the optimizer cannot hoist past stores.
    const int32_t* qbegin = s.queue_begin_.data();
    const double* qns = s.queue_no_stall_.data();
    const double* qreq = s.queue_req_bw_.data();
    int32_t* cursor = s.cursor_.data();
    double* virt_end = s.virt_end_.data();
    double* wall_end = s.wall_end_.data();
    double* demand = s.demand_.data();

    // The remainder replays BwAllocator::run (no setup phases) on the
    // flattened queues: the same EventClock, the same launches and the
    // same scans in ascending slot order, so every intermediate double is
    // bit-identical to the reference simulation.
    EventClock clock;
    int walls = 0;  // live slots with a wall end

    // Pop slot a's next queued job and start it now. A drained slot gets
    // no end and no demand.
    auto launchNext = [&](int a) {
        virt_end[a] = kInf;
        wall_end[a] = kInf;
        demand[a] = 0.0;
        int32_t c = cursor[a]++;
        if (c == qbegin[a + 1])
            return;
        const double req = qreq[c];
        if (proportional && req > kZeroDemandGbps) {
            virt_end[a] = clock.v + qns[c];
            demand[a] = req;
            return;
        }
        double seconds = qns[c];
        if (!proportional && req > kZeroDemandGbps && req > share)
            seconds *= req / share;
        wall_end[a] = clock.now + seconds;
        ++walls;
    };

    for (int a = 0; a < num_accels; ++a) {
        cursor[a] = qbegin[a];
        launchNext(a);
    }

    while (true) {
        double total_req = 0.0;
        double next_v = kInf;
        double next_w = kInf;
        int av = -1;
        int aw = -1;
        for (int a = 0; a < num_accels; ++a) {
            total_req += demand[a];
            if (virt_end[a] < next_v) {
                next_v = virt_end[a];
                av = a;
            }
        }
        // Wall phases are rare under the proportional policy, so their
        // scan runs only while one is live.
        for (int a = 0; walls > 0 && a < num_accels; ++a) {
            if (wall_end[a] < next_w) {
                next_w = wall_end[a];
                aw = a;
            }
        }
        clock.setDemand(total_req, system_bw);
        const int e = clock.advance(next_v, av, next_w, aw);
        if (e < 0)
            break;
        walls -= (e == aw);  // a wall phase ended
        launchNext(e);
    }

    s.makespan_ = clock.now;
}

double
FlatEvaluator::totalJoules(const Mapping& m) const
{
    const double* energy = energy_pj_.data();
    double pj = 0.0;
    for (int j = 0; j < m.size(); ++j)
        pj += energy[static_cast<size_t>(j) * accels_ + m.accelSel[j]];
    return pj * 1e-12;
}

double
FlatEvaluator::objectiveValue(const Mapping& m, const EvalScratch& s) const
{
    double joules =
        objectiveNeedsEnergy(objective_) ? totalJoules(m) : 0.0;
    return objectiveFromSimulation(objective_, s.makespan_, joules,
                                   total_flops_);
}

double
FlatEvaluator::fitness(const Mapping& m, EvalScratch& s,
                       double makespan_cutoff) const
{
    simulateEvents(m, s, makespan_cutoff);
    return objectiveValue(m, s);
}

SimPoint
FlatEvaluator::simPoint(const Mapping& m, EvalScratch& s) const
{
    simulateEvents(m, s, kNoCutoff);
    return {s.makespan_, totalJoules(m)};
}

}  // namespace magma::sched
