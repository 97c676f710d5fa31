#include "opt/optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "exec/eval_engine.h"
#include "obs/scope.h"

namespace magma::opt {
namespace {

/** Search-level counters, resolved once. */
struct OptMetrics {
    obs::Counter& samples;
    obs::Counter& boundedChildren;
};

OptMetrics&
optMetrics()
{
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    static OptMetrics m{reg.counter("opt.samples"),
                        reg.counter("opt.bounded_children")};
    return m;
}

}  // namespace

SearchRecorder::SearchRecorder(const exec::EvalEngine& engine,
                               const SearchOptions& opts)
    : budget_(opts.sampleBudget),
      record_convergence_(opts.recordConvergence),
      record_samples_(opts.recordSamples),
      engine_(&engine),
      obs_counters_(obs::countersOn())
{
    if (record_convergence_)
        result_.convergence.reserve(budget_);
}

void
SearchRecorder::record(const sched::Mapping& m, double f)
{
    ++used_;
    if (f > result_.bestFitness) {
        result_.bestFitness = f;
        result_.best = m;
    }
    if (record_convergence_)
        result_.convergence.push_back(result_.bestFitness);
    if (record_samples_) {
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
                              double cutoff)
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
    if (record_samples_)
        cutoff = -std::numeric_limits<double>::infinity();
    // Bounded flags are read only by the counter.
    const bool count_bounded = obs_counters_ &&
        cutoff > -std::numeric_limits<double>::infinity();
    if (count_bounded)
        bounded_.assign(n, 0);
    std::vector<double> fitness;
    if (n > 1) {
        fitness = engine_->evaluateBatch(
            ms.data(), n, cutoff, count_bounded ? bounded_.data() : nullptr);
    } else {
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
        if (count_bounded)
            m.boundedChildren.add(static_cast<int64_t>(
                std::count(bounded_.begin(), bounded_.end(), 1)));
    }
    generation.payload(result_.bestFitness, static_cast<double>(used_));
    return fitness;
}

SearchResult
SearchRecorder::finish()
{
    result_.samplesUsed = used_;
    return std::move(result_);
}

GaPopulation::GaPopulation(int size, const std::vector<sched::Mapping>& seeds,
                           int group_size, int num_accels, common::Rng& rng)
    : curFit_(size), nextFit_(size), order_(size)
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
GaPopulation::rank(int top)
{
    std::iota(order_.begin(), order_.end(), 0);
    auto better = [this](int a, int b) {
        const double fa = curFit_[a], fb = curFit_[b];
        if (fa > fb || fa < fb)
            return fa > fb;
        // Equal, or a NaN on either side: NaN ranks below every number.
        if (std::isnan(fa) != std::isnan(fb))
            return std::isnan(fb);
        return a > b;
    };
    if (top >= static_cast<int>(order_.size()))
        std::sort(order_.begin(), order_.end(), better);
    else
        std::partial_sort(order_.begin(), order_.begin() + top, order_.end(),
                          better);
}

void
GaPopulation::carryElites(int elites)
{
    for (int i = 0; i < elites; ++i) {
        next_[i] = ranked(i);
        nextFit_[i] = rankedFitness(i);
    }
}

void
GaPopulation::advance(SearchRecorder& rec, int first, bool bound)
{
    // A NaN cutoff (a NaN elite) bounds nothing.
    const double cutoff = bound ? nextFit_[first - 1]
                                : -std::numeric_limits<double>::infinity();
    // Whole-generation batch: the children are independent, so they fan
    // out over the evaluation engine's threads.
    std::span<const sched::Mapping> next(next_);
    std::vector<double> fits =
        rec.evaluateBatch(next.subspan(first), cutoff);
    std::copy(fits.begin(), fits.end(), nextFit_.begin() + first);
    cur_.swap(next_);
    curFit_.swap(nextFit_);
}

SearchResult
Optimizer::search(const exec::EvalEngine& engine, const SearchOptions& opts)
{
    // span payload: i = samples used, a = best fitness
    obs::Scope scope("opt.search", 0);
    SearchRecorder rec(engine, opts);
    if (!rec.exhausted())
        run(engine.evaluator(), opts, rec);
    SearchResult result = rec.finish();
    scope.setIndex(result.samplesUsed);
    scope.payload(result.bestFitness);
    return result;
}

}  // namespace magma::opt
