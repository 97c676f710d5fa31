#ifndef MAGMA_COMMON_RNG_H_
#define MAGMA_COMMON_RNG_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace magma::common {

/**
 * MT19937-64 that produces exactly std::mt19937_64's output stream (same
 * seeding, same words in the same order), but generates it a whole
 * 312-word block at a time: one refill runs the twist as three plain
 * loops over the state and then tempers the block into an output buffer
 * in one more loop. The loops are branch-free portable C++ that the
 * compiler auto-vectorizes; a draw is then a bounds check and a load.
 *
 * Satisfies UniformRandomBitGenerator, so std::shuffle and the std
 * distributions accept it exactly as they accept std::mt19937_64.
 * Construction seeds the state as the standard engine does; the first
 * block is generated lazily on the first draw.
 */
class Mt19937_64 {
  public:
    using result_type = uint64_t;
    static constexpr size_t kStateSize = 312;
    static constexpr result_type default_seed = 5489u;

    explicit Mt19937_64(result_type seed = default_seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()()
    {
        if (next_ == kStateSize)
            refill();
        return out_[next_++];
    }

  private:
    /** Twist the state one block forward and temper it into out_. */
    void refill();

    uint64_t state_[kStateSize];
    uint64_t out_[kStateSize] = {};
    size_t next_ = kStateSize;
};

/**
 * A Bernoulli rate compiled to a cut on the raw engine word (see
 * Rng::bernoulliCut): the draw is true exactly when uniform() on the same
 * word would be below the rate, decided by one integer compare.
 */
struct BernoulliCut {
    uint64_t below = 0;   ///< words strictly below this draw true
    bool always = false;  ///< every word draws true (rate above any uniform())

    /** Whether a draw that consumes `word` comes out true. */
    constexpr bool admits(uint64_t word) const
    {
        return (word < below) | always;
    }
};

/**
 * Deterministic seeded random number generator used by every stochastic
 * component (optimizers, workload generation, RL agents).
 *
 * All randomness in the repository flows through an Rng instance so that
 * experiments are reproducible given a seed. Stream contract:
 *
 *  - the raw words (engine()()) are the std::mt19937_64 stream for the
 *    same seed, bit for bit;
 *  - uniform() is the closed form of libstdc++'s
 *    generate_canonical<double, 53> over one 64-bit word x, i.e.
 *    double(x) * 2^-64 clamped below 1 — what
 *    std::uniform_real_distribution<double>(0, 1) returns on that
 *    engine — computed here without the standard library's
 *    distribution code, so the value no longer depends on it;
 *  - bernoulli(p) is uniform() < p on one word. The cut form
 *    bernoulli(bernoulliCut(p)) consumes the same one word and returns
 *    the same value, decided by an integer compare: toUnit is monotone in
 *    the word, so uniform() < p exactly when the word is below the
 *    smallest word whose toUnit is at least p;
 *  - uniformInt and gauss still go through the std distributions over
 *    that word stream.
 *
 * CounterRng (below) is the second generator: a counter-based stream
 * keyed by (key, stream, substream) that MAGMA's breeding draws from, one
 * stream per breeding pair. GeometricSkip turns a run of Bernoulli trials
 * into one word per success. Changing any of this changes every
 * fixed-seed result in the repository (tests/test_golden.cc pins them).
 */
class Rng {
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

    /** One raw engine word. */
    uint64_t word() { return engine_(); }

    /** Uniform double in [0, 1). */
    double uniform() { return toUnit(engine_()); }

    /**
     * The word-to-double map behind uniform(): double(x) * 2^-64, or
     * nextafter(1, 0) when that rounds up to 1.
     */
    static constexpr double toUnit(uint64_t x)
    {
        // double(x) rounded once: both halves convert exactly (a signed
        // conversion, which needs no branch on the top bit), the product
        // by 2^32 is exact, and the sum rounds to nearest. Scaling by
        // 2^-64 is exact.
        double hi = static_cast<double>(static_cast<int64_t>(x >> 32));
        double lo = static_cast<double>(static_cast<int64_t>(x & 0xffffffff));
        double u = (hi * 0x1p32 + lo) * 0x1p-64;
        return u < 1.0 ? u : kBelowOne;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [0, n). n must be positive. */
    int uniformInt(int n)
    {
        return static_cast<int>(
            std::uniform_int_distribution<int64_t>(0, n - 1)(engine_));
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int uniformInt(int lo, int hi)
    {
        return static_cast<int>(
            std::uniform_int_distribution<int64_t>(lo, hi)(engine_));
    }

    /** Standard normal draw. */
    double gauss() { return normal_(engine_); }

    /** Normal draw with given mean and standard deviation. */
    double gauss(double mean, double stddev)
    {
        return mean + stddev * gauss();
    }

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Bernoulli draw against a precomputed cut: the same word and the
     * same outcome as bernoulli(p) for the p the cut was made from.
     */
    bool bernoulli(const BernoulliCut& cut) { return cut.admits(engine_()); }

    /**
     * The cut of rate p: the smallest word w with toUnit(w) >= p, so that
     * the words drawing true are exactly those with toUnit(w) < p. A p
     * that is NaN or at most 0 never draws true; a p above
     * nextafter(1, 0), the largest uniform(), always does.
     */
    static constexpr BernoulliCut bernoulliCut(double p)
    {
        if (!(p > 0.0))
            return {0, false};
        if (p > kBelowOne)
            return {0, true};
        // toUnit(w) >= p exactly when double(w), rounded to nearest even,
        // reaches s = p * 2^64 (exact, and at most 2^64 - 2048, so the
        // clamp to kBelowOne never decides it).
        double s = p * 0x1p64;
        uint64_t w = static_cast<uint64_t>(s);
        if (s <= 0x1p53)  // words up to 2^53 convert exactly: ceil(s)
            return {w + (static_cast<double>(w) < s), false};
        // Above 2^53, s is an integer and the words rounding up to it lie
        // within half the gap to the next double below. The midpoint is a
        // tie, which goes to s only when s's last mantissa bit is even.
        uint64_t bits = std::bit_cast<uint64_t>(s);
        uint64_t gap =
            w - static_cast<uint64_t>(std::bit_cast<double>(bits - 1));
        return {w - gap / 2 + (bits & 1), false};
    }

    /** Access to the raw engine for std distributions. */
    Mt19937_64& engine() { return engine_; }

  private:
    /** nextafter(1.0, 0.0): generate_canonical's clamp for u >= 1. */
    static constexpr double kBelowOne = 0x1.fffffffffffffp-1;

    Mt19937_64 engine_;
    std::normal_distribution<double> normal_{0.0, 1.0};
};

/**
 * The gaps between successes in a run of independent Bernoulli(p)
 * trials, compiled to word cuts: gap(word) is the number of failures
 * before the next success, drawn from one word by inversion. Cut k
 * admits the words whose uniform() is below (1 - p)^k, the chance that k
 * trials in a row fail, with the power formed by repeated IEEE
 * multiplication, so no libm function decides a draw. A p that is NaN or
 * at most 0 never succeeds, and a p of 1 or more always does.
 *
 * The table holds `span` cuts, so a gap of `span` or more reads as span:
 * `span` trials failed and the next gap is drawn afresh, which the
 * trials' independence makes exact.
 */
class GeometricSkip {
  public:
    GeometricSkip(double p, int span);

    int span() const { return static_cast<int>(below_.size()); }

    /** Failures before the next success (at most span()), from one word. */
    int gap(uint64_t word) const
    {
        // The gap falls as the word rises, so the gap of the last word
        // in the word's top-byte bucket is a floor; the cuts above it
        // that still admit the word (a prefix, since they are nested)
        // add one each. Most words need no step past the floor.
        int g = floor_[word >> 56];
        while (g < span() && word < below_[g])
            ++g;
        return g;
    }

  private:
    /** below_[k - 1]: the words below it draw k failures in a row. */
    std::vector<uint64_t> below_;
    /** The gap of the largest word with each top byte. */
    std::array<int, 256> floor_{};
};

/**
 * Philox4x32-10 (Salmon et al., "Parallel random numbers: as easy as 1,
 * 2, 3", SC'11): ten rounds of a keyed bijection on a 128-bit counter.
 * Random123's published known-answer vectors pin it
 * (tests/test_common.cc).
 */
constexpr std::array<uint32_t, 4>
philox4x32(std::array<uint32_t, 4> ctr, std::array<uint32_t, 2> key)
{
    for (int round = 0; round < 10; ++round) {
        if (round > 0) {
            key[0] += 0x9E3779B9u;
            key[1] += 0xBB67AE85u;
        }
        const uint64_t p0 = uint64_t{0xD2511F53u} * ctr[0];
        const uint64_t p1 = uint64_t{0xCD9E8D57u} * ctr[2];
        ctr = {static_cast<uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
               static_cast<uint32_t>(p1),
               static_cast<uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
               static_cast<uint32_t>(p0)};
    }
    return ctr;
}

/**
 * A counter-based word stream: stream (key, stream, substream) is the
 * Philox4x32-10 output of the counters {j, stream_lo, stream_hi,
 * substream} for j = 0, 1, ... under `key`, two words per block (lanes
 * 0-1, then 2-3, low lane in the low half). Any stream is a pure function
 * of its three keys, so streams can be drawn in any order, on any thread.
 *
 * The draws mirror Rng's on this word stream: uniform() and bernoulli()
 * take one word through the same Rng::toUnit and cut; uniformInt is
 * Lemire's multiply-shift on the word's top 32 bits, rejecting (and
 * drawing again) the few words that would bias it.
 */
class CounterRng {
  public:
    CounterRng(uint64_t key, uint64_t stream, uint32_t substream)
        : key_{static_cast<uint32_t>(key), static_cast<uint32_t>(key >> 32)},
          ctr_{0, static_cast<uint32_t>(stream),
               static_cast<uint32_t>(stream >> 32), substream}
    {}

    uint64_t word()
    {
        if (next_ == 2) {
            const std::array<uint32_t, 4> r = philox4x32(ctr_, key_);
            ++ctr_[0];
            out_[0] = uint64_t{r[1]} << 32 | r[0];
            out_[1] = uint64_t{r[3]} << 32 | r[2];
            next_ = 0;
        }
        return out_[next_++];
    }

    double uniform() { return Rng::toUnit(word()); }

    bool bernoulli(const BernoulliCut& cut) { return cut.admits(word()); }

    /** Uniform integer in [0, n). n must be positive. */
    int uniformInt(int n)
    {
        const uint32_t range = static_cast<uint32_t>(n);
        uint64_t m = (word() >> 32) * range;
        if (static_cast<uint32_t>(m) < range) {
            const uint32_t reject = (0u - range) % range;  // 2^32 mod n
            while (static_cast<uint32_t>(m) < reject)
                m = (word() >> 32) * range;
        }
        return static_cast<int>(m >> 32);
    }

  private:
    std::array<uint32_t, 2> key_;
    std::array<uint32_t, 4> ctr_;
    uint64_t out_[2] = {};
    int next_ = 2;
};

}  // namespace magma::common

#endif  // MAGMA_COMMON_RNG_H_
