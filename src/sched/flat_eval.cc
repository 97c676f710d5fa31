#include "sched/flat_eval.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/scope.h"

// The lane kernel is written with AVX2 intrinsics; other targets and
// compilers score every candidate through the one-candidate kernel.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MAGMA_FLAT_LANES 1
#include <immintrin.h>
#else
#define MAGMA_FLAT_LANES 0
#endif

namespace magma::sched {

namespace {

// The load bound's margin; docs/architecture.md gives the argument.
// L' = L * (1 - kBoundSlack) is a lower bound on the simulated makespan
// for groups of at most kBoundMaxJobs jobs.
constexpr double kBoundSlack = 1e-9;
constexpr int kBoundMaxJobs = 100000;

/** The makespan cutoff that bounds nothing. */
constexpr double kNoCutoff = std::numeric_limits<double>::infinity();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kLanes = EvalScratch::kLanes;

/** Decode bucket count B = bit_ceil(2G): about two buckets per job, and a
 * power of two so that scaling a priority by it is exact. */
int
decodeBuckets(int jobs)
{
    return static_cast<int>(std::bit_ceil(2u * static_cast<unsigned>(jobs)));
}

/** The next job a slot starts: its duration and how it progresses. */
struct Job {
    double seconds = 0.0;  // no-stall seconds, or a wall phase's length
    double demand = 0.0;   // required BW of a BW-bound job, else 0
    bool virt = false;     // BW-bound: ends on the virtual clock
    bool wall = false;     // ends on the wall clock
};

/**
 * Job launches from decodeInto()'s queue-ordered columns, shared by both
 * kernels so that every launch is the same expression. Queue positions
 * are absolute, so one Launcher serves every lane.
 */
struct Launcher {
    const double* qns;      // queue-ordered no-stall seconds
    const double* qreq;     // queue-ordered required BW
    bool proportional;
    double share;  // the even split's static per-core share

    /**
     * Pop a slot's next queued job: its queue position is `cursor`, and
     * the queue ends at `end`. A drained slot gets neither kind: no end
     * and no demand.
     */
    Job pop(int32_t end, int32_t& cursor) const
    {
        Job j;
        const int32_t c = cursor++;
        if (c == end)
            return j;
        const double req = qreq[c];
        j.seconds = qns[c];
        if (proportional && req > kZeroDemandGbps) {
            j.demand = req;
            j.virt = true;
            return j;
        }
        if (!proportional && req > kZeroDemandGbps && req > share)
            j.seconds *= req / share;
        j.wall = true;
        return j;
    }
};

#if MAGMA_FLAT_LANES
#define MAGMA_AVX2 __attribute__((target("avx2")))

/** Lane-wise `m ? b : a` for a compare mask `m`. */
MAGMA_AVX2 inline __m256d
select(__m256d m, __m256d b, __m256d a)
{
    return _mm256_or_pd(_mm256_and_pd(m, b), _mm256_andnot_pd(m, a));
}

/**
 * Lane-wise, slot a after the last pass's launches: the lanes whose
 * event slot `e` is a take the launched end, and with `demand` the
 * launched demand, which is added to `*total`; the other lanes keep
 * theirs. Stores the slot and returns its end.
 */
MAGMA_AVX2 inline __m256d
launchAt(int a, __m256d e, double* end, __m256d launched_end,
         double* demand, __m256d launched_demand, __m256d* total)
{
    const __m256d hit = _mm256_cmp_pd(e, _mm256_set1_pd(a), _CMP_EQ_OQ);
    if (demand) {
        double* d_at = demand + a * kLanes;
        const __m256d d =
            select(hit, launched_demand, _mm256_loadu_pd(d_at));
        _mm256_storeu_pd(d_at, d);
        *total = _mm256_add_pd(*total, d);
    }
    double* at = end + a * kLanes;
    const __m256d x = select(hit, launched_end, _mm256_loadu_pd(at));
    _mm256_storeu_pd(at, x);
    return x;
}

/**
 * launchAt() on every slot in slot order, so the demand sum runs in
 * slot order, and lane-wise the one-candidate kernel's strict-'<'
 * minimum scan of the ends: starting from +inf, each slot's end
 * replaces the running minimum r when less, and _mm256_min_pd(x, r) is
 * exactly `x < r ? x : r`, NaN and signed zeros included. Blocks of four
 * slots reduce as trees folded into r in slot order: every combine
 * keeps its lower slots' value unless the higher slots' is less, so the
 * result is the sequential scan's, bit for bit, from a shorter chain of
 * dependent operations.
 */
MAGMA_AVX2 inline __m256d
launchAndScan(int accels, __m256d e, double* end, __m256d launched_end,
              double* demand = nullptr,
              __m256d launched_demand = _mm256_setzero_pd(),
              __m256d* total = nullptr)
{
    const __m256d inf = _mm256_set1_pd(kInf);
    __m256d r = inf;
    int a = 0;
    for (; a + 4 <= accels; a += 4) {
        __m256d x[4];
        for (int i = 0; i < 4; ++i)
            x[i] = launchAt(a + i, e, end, launched_end, demand,
                            launched_demand, total);
        const __m256d m01 = _mm256_min_pd(x[1], _mm256_min_pd(x[0], inf));
        const __m256d m23 = _mm256_min_pd(x[3], _mm256_min_pd(x[2], inf));
        r = _mm256_min_pd(_mm256_min_pd(m23, m01), r);
    }
    for (; a < accels; ++a) {
        const __m256d x = launchAt(a, e, end, launched_end, demand,
                                   launched_demand, total);
        r = _mm256_min_pd(x, r);
    }
    return r;
}

/** Lane-wise, `count` where slot a's end equals `least`, else 0. */
MAGMA_AVX2 inline __m256d
countIfAt(const double* end, int a, __m256d count, __m256d least)
{
    const __m256d x = _mm256_loadu_pd(end + a * kLanes);
    const __m256d hit = _mm256_cmp_pd(x, least, _CMP_EQ_OQ);
    return _mm256_and_pd(hit, count);
}

/**
 * Lane-wise, the slot the strict-'<' scan of launchAndScan() stops at:
 * the lowest slot
 * whose end equals the least end `least`, or -1 when `least` is +inf
 * (no end below +inf, the scan's initial value). Slot a counts
 * accels - a where it holds `least`, so the largest count is the lowest
 * such slot; the counts, distinct small integers, combine in any order.
 */
MAGMA_AVX2 inline __m256d
earliestSlot(const double* end, int accels, __m256d least)
{
    const __m256d one = _mm256_set1_pd(1.0);
    __m256d count = _mm256_set1_pd(accels);  // accels - a
    __m256d r = _mm256_setzero_pd();
    int a = 0;
    for (; a + 4 <= accels; a += 4) {
        const __m256d c0 = countIfAt(end, a, count, least);
        count = _mm256_sub_pd(count, one);
        const __m256d c1 = countIfAt(end, a + 1, count, least);
        count = _mm256_sub_pd(count, one);
        const __m256d c2 = countIfAt(end, a + 2, count, least);
        count = _mm256_sub_pd(count, one);
        const __m256d c3 = countIfAt(end, a + 3, count, least);
        count = _mm256_sub_pd(count, one);
        const __m256d c01 = _mm256_max_pd(c0, c1);
        r = _mm256_max_pd(r, _mm256_max_pd(c01, _mm256_max_pd(c2, c3)));
    }
    for (; a < accels; ++a) {
        r = _mm256_max_pd(r, countIfAt(end, a, count, least));
        count = _mm256_sub_pd(count, one);
    }
    const __m256d found =
        _mm256_cmp_pd(least, _mm256_set1_pd(kInf), _CMP_LT_OQ);
    return select(found, _mm256_sub_pd(_mm256_set1_pd(accels), r),
                  _mm256_set1_pd(-1.0));
}

/**
 * The lane kernel: the event loop of FlatEvaluator::simulateEvents run
 * on kLanes decoded candidates at once, lane l in element l of every
 * vector and slot a of lane l at index a * kLanes + l of the slot
 * arrays. Every lane performs the one-candidate kernel's IEEE
 * operations, in its order, on its operands: the slot-order demand
 * sum, the strict-'<' scans for the earliest ends (lowest slot on
 * ties), EventClock's setDemand and advance with selects where they
 * branch, and the launches' start-time sums. Only the queue pops run
 * scalar, per lane. The target enables AVX2 alone, not FMA, so no
 * multiply-add is fused. Every candidate takes one pass per job plus a
 * final one, so the lanes never diverge; a lane that finished early
 * (possible only with non-finite table cells) keeps its clock, because
 * a pass that launches nothing changes no slot.
 *
 * A pass's launches reach the slot arrays as selects in the next pass's
 * scan, stored as whole vectors (a vector load of a slot just written
 * lane by lane would wait for the scalar stores). While no lane has a
 * wall phase live or just ended, every wall end is +inf, so the pass
 * skips the wall scan and advances the clocks without the wall branch,
 * which then never fires: the virtual-end chain from one event to the
 * next no longer waits for the demand sum.
 */
MAGMA_AVX2 void
simulateLockstep(const Launcher& launch, const int32_t* qbegin, int accels,
                 double system_bw, int32_t* cursor, double* virt_end,
                 double* wall_end, double* demand, double* makespan)
{
    int walls[kLanes] = {};  // per lane: live slots with a wall end
    for (int a = 0; a < accels; ++a) {
        for (int l = 0; l < kLanes; ++l) {
            const int k = a * kLanes + l;
            const int32_t* lane_begin = qbegin + l * (accels + 1);
            cursor[k] = lane_begin[a];
            const Job j = launch.pop(lane_begin[a + 1], cursor[k]);
            virt_end[k] = j.virt ? 0.0 + j.seconds : kInf;
            wall_end[k] = j.wall ? 0.0 + j.seconds : kInf;
            demand[k] = j.demand;
            walls[l] += j.wall;
        }
    }

    const __m256d inf = _mm256_set1_pd(kInf);
    const __m256d none = _mm256_set1_pd(-1.0);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d bw = _mm256_set1_pd(system_bw);
    // EventClock, one per lane.
    __m256d now = zero;
    __m256d v = zero;
    __m256d w0 = zero;
    __m256d v0 = zero;
    __m256d stretch = one;
    // The last pass's event slot per lane (-1: none) and the phase its
    // launch started there.
    __m256d e = none;
    __m256d launched_virt = inf;
    __m256d launched_wall = inf;
    __m256d launched_demand = zero;
    bool walls_touched = walls[0] + walls[1] + walls[2] + walls[3] > 0;
    while (true) {
        __m256d total_req = zero;
        const __m256d next_v =
            launchAndScan(accels, e, virt_end, launched_virt, demand,
                          launched_demand, &total_req);
        const __m256d av = earliestSlot(virt_end, accels, next_v);
        const __m256d has_v = _mm256_cmp_pd(av, zero, _CMP_GE_OQ);

        // EventClock::setDemand: '!=' is true on a NaN, as NEQ_UQ is.
        const __m256d s =
            select(_mm256_cmp_pd(total_req, bw, _CMP_GT_OQ),
                   _mm256_div_pd(total_req, bw), one);
        const __m256d rescale = _mm256_cmp_pd(s, stretch, _CMP_NEQ_UQ);
        w0 = select(rescale, now, w0);
        v0 = select(rescale, v, v0);
        stretch = select(rescale, s, stretch);

        // EventClock::advance.
        const __m256d t = _mm256_add_pd(
            w0, _mm256_mul_pd(_mm256_sub_pd(next_v, v0), stretch));
        int wall_ended = 0;
        if (walls_touched) {
            const __m256d next_w =
                launchAndScan(accels, e, wall_end, launched_wall);
            const __m256d aw = earliestSlot(wall_end, accels, next_w);
            const __m256d wall =
                _mm256_and_pd(_mm256_cmp_pd(aw, zero, _CMP_GE_OQ),
                              _mm256_cmp_pd(next_w, t, _CMP_LE_OQ));
            const __m256d virt = _mm256_andnot_pd(wall, has_v);
            // std::min(x, next_v) is (next_v < x) ? next_v : x.
            const __m256d x = _mm256_add_pd(
                v0, _mm256_div_pd(_mm256_sub_pd(next_w, w0), stretch));
            const __m256d capped =
                select(_mm256_cmp_pd(next_v, x, _CMP_LT_OQ), next_v, x);
            v = select(_mm256_and_pd(wall, has_v), capped, v);
            v = select(virt, next_v, v);
            now = select(wall, next_w, now);
            now = select(virt, t, now);
            w0 = select(wall, next_w, w0);
            v0 = select(wall, v, v0);
            e = select(wall, aw, av);
            wall_ended = _mm256_movemask_pd(wall);
        } else {
            // No wall end below +inf: aw is -1, so the wall branch of
            // advance() never fires.
            v = select(has_v, next_v, v);
            now = select(has_v, t, now);
            e = av;
        }

        const int live =
            _mm256_movemask_pd(_mm256_cmp_pd(e, zero, _CMP_GE_OQ));
        if (live == 0)
            break;
        // Pop each live lane's next job at its event slot. A live lane's
        // event is a wall end exactly when it took the wall branch: a
        // slot never holds a virtual and a wall end.
        alignas(16) int32_t e_l[kLanes];
        _mm_store_si128(reinterpret_cast<__m128i*>(e_l),
                        _mm256_cvttpd_epi32(e));
        Job j[kLanes];
        for (int l = 0; l < kLanes; ++l) {
            if (!((live >> l) & 1))
                continue;
            const int a = e_l[l];
            j[l] = launch.pop(qbegin[l * (accels + 1) + a + 1],
                              cursor[a * kLanes + l]);
            walls[l] += j[l].wall - ((wall_ended >> l) & 1);
        }
        // Start them: the scalar kernel's clock.v + seconds and
        // clock.now + seconds.
        const __m256d seconds = _mm256_set_pd(j[3].seconds, j[2].seconds,
                                              j[1].seconds, j[0].seconds);
        // Only a BW-bound job has a demand, and it is above 0.
        launched_demand = _mm256_set_pd(j[3].demand, j[2].demand,
                                        j[1].demand, j[0].demand);
        launched_virt =
            select(_mm256_cmp_pd(launched_demand, zero, _CMP_GT_OQ),
                   _mm256_add_pd(v, seconds), inf);
        launched_wall = inf;
        if (j[0].wall || j[1].wall || j[2].wall || j[3].wall) {
            const __m256d is_wall = _mm256_castsi256_pd(_mm256_set_epi64x(
                -int64_t{j[3].wall}, -int64_t{j[2].wall},
                -int64_t{j[1].wall}, -int64_t{j[0].wall}));
            launched_wall = select(is_wall, _mm256_add_pd(now, seconds), inf);
        }
        walls_touched =
            wall_ended != 0 || walls[0] + walls[1] + walls[2] + walls[3] > 0;
    }
    _mm256_storeu_pd(makespan, now);
}
#undef MAGMA_AVX2
#endif

}  // namespace

void
EvalScratch::ensure(int jobs, int accels)
{
    if (jobs_ == jobs && accels_ == accels)
        return;
    jobs_ = jobs;
    accels_ = accels;
    queue_begin_.resize(kLanes * (accels + 1));
    fill_.resize(accels);
    order_.resize(jobs);
    bucket_.resize(jobs);
    bucket_begin_.resize(decodeBuckets(jobs) + 1);
    queue_no_stall_.resize(kLanes * jobs);
    queue_req_bw_.resize(kLanes * jobs);
    cursor_.resize(kLanes * accels);
    virt_end_.resize(kLanes * accels);
    wall_end_.resize(kLanes * accels);
    demand_.resize(kLanes * accels);
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
FlatEvaluator::decodeInto(const Mapping& m, EvalScratch& s, int lane) const
{
    const int accels = accels_;
    const int jobs = jobs_;
    const int buckets = buckets_;
    const double scale = buckets;
    const double* prio = m.priority.data();
    const int* sel = m.accelSel.data();
    // Queue positions are absolute: lane l's run from l * jobs.
    int32_t* qbegin = s.queue_begin_.data() + lane * (accels + 1);
    double* qns = s.queue_no_stall_.data();
    double* qreq = s.queue_req_bw_.data();
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
    qbegin[0] = lane * jobs;
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
    double* key = qns + qbegin[0];
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

bool
FlatEvaluator::stopsAtBound(const Mapping& m, EvalScratch& s,
                            double makespan_cutoff) const
{
    if (!(makespan_cutoff < kNoCutoff))
        return false;
    const double bound = loadBound(m, s);
    if (bound < makespan_cutoff)
        return false;
    s.makespan_ = bound;
    return true;
}

void
FlatEvaluator::simulateEvents(const Mapping& m, EvalScratch& s) const
{
    decodeInto(m, s, 0);

    const int num_accels = accels_;
    const double system_bw = system_bw_;
    const int32_t* qbegin = s.queue_begin_.data();
    const Launcher launch{s.queue_no_stall_.data(), s.queue_req_bw_.data(),
                          policy_ == BwPolicy::Proportional,
                          system_bw_ / num_accels};

    // Raw-pointer views of the scratch keep the inner loop free of
    // vector indirection the optimizer cannot hoist past stores.
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

    // Pop slot a's next queued job and start it now.
    auto launchNext = [&](int a) {
        const Job j = launch.pop(qbegin[a + 1], cursor[a]);
        virt_end[a] = j.virt ? clock.v + j.seconds : kInf;
        wall_end[a] = j.wall ? clock.now + j.seconds : kInf;
        demand[a] = j.demand;
        walls += j.wall;
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

void
FlatEvaluator::simulateLanes(const Mapping* const* lane, EvalScratch& s,
                             double* makespan) const
{
#if MAGMA_FLAT_LANES
    if (laneKernel()) {
        for (int l = 0; l < kLanes; ++l)
            decodeInto(*lane[l], s, l);
        const Launcher launch{s.queue_no_stall_.data(),
                              s.queue_req_bw_.data(),
                              policy_ == BwPolicy::Proportional,
                              system_bw_ / accels_};
        simulateLockstep(launch, s.queue_begin_.data(), accels_, system_bw_,
                         s.cursor_.data(), s.virt_end_.data(),
                         s.wall_end_.data(), s.demand_.data(), makespan);
        return;
    }
#endif
    for (int l = 0; l < kLanes; ++l) {
        simulateEvents(*lane[l], s);
        makespan[l] = s.makespan_;
    }
}

template <class Sink>
void
FlatEvaluator::forEachMakespan(const Mapping* ms, size_t n,
                               double makespan_cutoff, EvalScratch& s,
                               Sink&& sink) const
{
    s.ensure(jobs_, accels_);
    const Mapping* pack[kLanes];
    size_t index[kLanes];
    double makespan[kLanes];
    int packed = 0;
    for (size_t i = 0; i < n; ++i) {
        assert(ms[i].size() == jobs_);
        if (stopsAtBound(ms[i], s, makespan_cutoff)) {
            sink(i, s.makespan_, true);
            continue;
        }
        pack[packed] = &ms[i];
        index[packed] = i;
        if (++packed < kLanes)
            continue;
        simulateLanes(pack, s, makespan);
        for (int l = 0; l < kLanes; ++l)
            sink(index[l], makespan[l], false);
        packed = 0;
    }
    for (int l = 0; l < packed; ++l) {
        simulateEvents(*pack[l], s);
        sink(index[l], s.makespan_, false);
    }
}

bool
FlatEvaluator::laneKernel()
{
#if MAGMA_FLAT_LANES
    static const bool avx2 = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return avx2;
#else
    return false;
#endif
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
FlatEvaluator::objectiveValue(const Mapping& m, double makespan) const
{
    double joules =
        objectiveNeedsEnergy(objective_) ? totalJoules(m) : 0.0;
    return objectiveFromSimulation(objective_, makespan, joules,
                                   total_flops_);
}

double
FlatEvaluator::fitness(const Mapping& m, EvalScratch& s,
                       double makespan_cutoff) const
{
    assert(m.size() == jobs_);
    s.ensure(jobs_, accels_);
    s.bounded_ = stopsAtBound(m, s, makespan_cutoff);
    if (!s.bounded_)
        simulateEvents(m, s);
    return objectiveValue(m, s.makespan_);
}

SimPoint
FlatEvaluator::simPoint(const Mapping& m, EvalScratch& s) const
{
    assert(m.size() == jobs_);
    s.ensure(jobs_, accels_);
    s.bounded_ = false;
    simulateEvents(m, s);
    return {s.makespan_, totalJoules(m)};
}

void
FlatEvaluator::fitnessBatch(const Mapping* ms, size_t n,
                            double makespan_cutoff, EvalScratch& s,
                            double* out, uint8_t* bounded) const
{
    forEachMakespan(ms, n, makespan_cutoff, s,
                    [&](size_t i, double makespan, bool stopped) {
                        out[i] = objectiveValue(ms[i], makespan);
                        if (bounded)
                            bounded[i] = stopped;
                    });
}

void
FlatEvaluator::simPointBatch(const Mapping* ms, size_t n, EvalScratch& s,
                             SimPoint* out) const
{
    forEachMakespan(ms, n, kNoCutoff, s,
                    [&](size_t i, double makespan, bool) {
                        out[i] = {makespan, totalJoules(ms[i])};
                    });
}

}  // namespace magma::sched
