#include "opt/optimizer.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

#include "exec/eval_engine.h"
#include "obs/scope.h"

namespace magma::opt {
namespace {

/** Search-level counters, resolved once. */
struct OptMetrics {
    obs::Counter& samples;
    obs::Counter& generations;
    obs::Counter& searches;
    obs::Counter& boundedChildren;
    obs::Counter& boundRescored;
};

OptMetrics&
optMetrics()
{
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    static OptMetrics m{reg.counter("opt.samples"),
                        reg.counter("opt.generations"),
                        reg.counter("opt.searches"),
                        reg.counter("opt.bounded_children"),
                        reg.counter("opt.bound_rescored")};
    return m;
}

/** Bit-for-bit genome equality: -0.0 and 0.0 priorities differ. */
bool
sameGenome(const sched::Mapping& a, const sched::Mapping& b)
{
    return a.accelSel == b.accelSel &&
           std::memcmp(a.priority.data(), b.priority.data(),
                       a.priority.size() * sizeof(double)) == 0;
}

}  // namespace

SearchRecorder::SearchRecorder(const sched::MappingEvaluator& eval,
                               const SearchOptions& opts)
    : opts_(opts), obs_counters_(obs::countersOn())
{
    if (opts_.recordConvergence)
        result_.convergence.reserve(opts_.sampleBudget);
    if (opts_.engine) {
        // A reused engine must wrap the evaluator this search runs on;
        // otherwise candidates would be scored against another problem.
        assert(&opts_.engine->evaluator() == &eval);
        engine_ = opts_.engine;
    } else {
        owned_engine_ =
            std::make_unique<exec::EvalEngine>(eval, opts_.threads);
        engine_ = owned_engine_.get();
    }
}

SearchRecorder::~SearchRecorder() = default;

void
SearchRecorder::record(const sched::Mapping& m, double f)
{
    ++used_;
    if (f > result_.bestFitness) {
        result_.bestFitness = f;
        result_.best = m;
    }
    if (opts_.recordConvergence)
        result_.convergence.push_back(result_.bestFitness);
    if (opts_.recordSamples) {
        result_.sampled.push_back(m);
        result_.sampledFitness.push_back(f);
    }
}

double
SearchRecorder::evaluate(const sched::Mapping& m)
{
    assert(!exhausted());
    double f = engine_->fitnessOne(m);
    record(m, f);
    if (obs_counters_)
        optMetrics().samples.add();
    return f;
}

std::vector<double>
SearchRecorder::evaluateBatch(std::span<const sched::Mapping> ms,
                              double cutoff, std::span<uint8_t> bounded)
{
    size_t n = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(ms.size()), remaining()));
    if (n == 0)
        return {};
    // One evaluateBatch call per generation in every population method —
    // this is the per-generation choke point the search trace hangs off.
    // span payload: i = generation index, a = best-so-far fitness,
    // b = samples used so far
    obs::Scope generation("opt.generation", generation_++);

    // The sample log (Fig. 10) holds exact fitness only.
    if (opts_.recordSamples)
        cutoff = -std::numeric_limits<double>::infinity();
    assert(bounded.empty() || bounded.size() >= n);
    std::vector<double> fitness;
    if (n > 1) {
        fitness = engine_->evaluateBatch(
            ms.data(), n, cutoff, bounded.empty() ? nullptr : bounded.data());
    } else {
        std::fill(bounded.begin(), bounded.end(), uint8_t{0});
        fitness.resize(n);
        for (size_t i = 0; i < n; ++i)
            fitness[i] = engine_->fitnessOne(ms[i]);
    }
    // Sequential bookkeeping in submission order keeps budget accounting
    // and convergence curves identical to the serial path.
    {
        obs::Scope scope("opt.record");
        for (size_t i = 0; i < n; ++i)
            record(ms[i], fitness[i]);
    }
    if (obs_counters_) {
        OptMetrics& m = optMetrics();
        m.samples.add(static_cast<int64_t>(n));
        m.generations.add();
        if (!bounded.empty())
            m.boundedChildren.add(static_cast<int64_t>(
                std::count(bounded.begin(), bounded.begin() + n, 1)));
    }
    generation.payload(result_.bestFitness, static_cast<double>(used_));
    return fitness;
}

double
SearchRecorder::rescore(const sched::Mapping& m)
{
    if (obs_counters_)
        optMetrics().boundRescored.add();
    return engine_->rescore(m);
}

SearchResult
SearchRecorder::finish()
{
    result_.samplesUsed = used_;
    return std::move(result_);
}

GaPopulation::GaPopulation(int size, const std::vector<sched::Mapping>& seeds,
                           int group_size, int num_accels, common::Rng& rng)
    : curFit_(size), nextFit_(size), order_(size), bounded_(size)
{
    cur_.reserve(size);
    for (const auto& s : seeds) {
        if (static_cast<int>(cur_.size()) >= size)
            break;
        cur_.push_back(s);
    }
    while (static_cast<int>(cur_.size()) < size)
        cur_.push_back(sched::Mapping::random(group_size, num_accels, rng));
    next_ = cur_;
}

bool
GaPopulation::scoreAll(SearchRecorder& rec)
{
    std::vector<double> fits = rec.evaluateBatch(cur_);
    std::copy(fits.begin(), fits.end(), curFit_.begin());
    return fits.size() == cur_.size();
}

void
GaPopulation::rank()
{
    std::iota(order_.begin(), order_.end(), 0);
    auto better = [this](int a, int b) { return curFit_[a] > curFit_[b]; };
    // At this size std::sort is this stable insertion sort; spelling it
    // out pins the stability that eliteCutoff() relies on.
    if (order_.size() <= static_cast<size_t>(kSmallSort))
        smallSort(order_.begin(), order_.end(), better);
    else
        std::sort(order_.begin(), order_.end(), better);
}

void
GaPopulation::carryElites(int elites)
{
    for (int i = 0; i < elites; ++i) {
        next_[i] = ranked(i);
        nextFit_[i] = rankedFitness(i);
    }
}

double
GaPopulation::eliteCutoff(int elites) const
{
    // The carried elites are in rank order, so equal fitness is adjacent.
    // A stable small sort orders such a tie by slot, whatever else the
    // generation holds.
    if (next_.size() > static_cast<size_t>(kSmallSort)) {
        for (int i = 1; i < elites; ++i)
            if (nextFit_[i] == nextFit_[i - 1] &&
                !sameGenome(next_[i], next_[i - 1]))
                return -std::numeric_limits<double>::infinity();
    }
    return nextFit_[elites - 1];
}

bool
GaPopulation::tieAtOrAbove(double cutoff, int end)
{
    top_.clear();
    for (int i = 0; i < end; ++i)
        if (nextFit_[i] >= cutoff)
            top_.push_back(i);
    std::sort(top_.begin(), top_.end(),
              [this](int a, int b) { return nextFit_[a] > nextFit_[b]; });
    for (size_t k = 1; k < top_.size(); ++k)
        if (nextFit_[top_[k]] == nextFit_[top_[k - 1]] &&
            !sameGenome(next_[top_[k]], next_[top_[k - 1]]))
            return true;
    return false;
}

void
GaPopulation::advance(SearchRecorder& rec, int first, double cutoff)
{
    // Whole-generation batch: the children are independent, so they fan
    // out over the evaluation engine's threads.
    std::span<const sched::Mapping> next(next_);
    std::span<uint8_t> bounded = std::span<uint8_t>(bounded_).subspan(first);
    std::vector<double> fits =
        rec.evaluateBatch(next.subspan(first), cutoff, bounded);
    std::copy(fits.begin(), fits.end(), nextFit_.begin() + first);

    // A bounded child sits below the cutoff either way, but std::sort's
    // order of a tie above it depends on every value in the array.
    const int end = first + static_cast<int>(fits.size());
    const auto scored = bounded.first(fits.size());
    if (next_.size() > static_cast<size_t>(kSmallSort) &&
        std::find(scored.begin(), scored.end(), 1) != scored.end() &&
        tieAtOrAbove(cutoff, end)) {
        for (int i = first; i < end; ++i)
            if (bounded_[i])
                nextFit_[i] = rec.rescore(next_[i]);
    }
    cur_.swap(next_);
    curFit_.swap(nextFit_);
}

SearchResult
Optimizer::search(const sched::MappingEvaluator& eval,
                  const SearchOptions& opts)
{
    // span payload: i = samples used, a = best fitness
    obs::Scope scope("opt.search", 0);
    SearchRecorder rec(eval, opts);
    if (!rec.exhausted())
        run(eval, opts, rec);
    SearchResult result = rec.finish();
    if (obs::countersOn())
        optMetrics().searches.add();
    scope.setIndex(result.samplesUsed);
    scope.payload(result.bestFitness);
    return result;
}

}  // namespace magma::opt
