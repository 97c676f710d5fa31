#include "common/rng.h"

#include <algorithm>

namespace magma::common {
namespace {

// MT19937-64 parameters (Matsumoto & Nishimura; std::mt19937_64).
constexpr size_t kN = Mt19937_64::kStateSize;
constexpr size_t kM = 156;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr uint64_t kUpperMask = 0xffffffff80000000ull;  // top w - r bits
constexpr uint64_t kLowerMask = 0x000000007fffffffull;  // low r = 31 bits
constexpr uint64_t kInitMul = 6364136223846793005ull;

/** One twist step: combine word k's top bits with word k+1's low bits. */
inline uint64_t
twist(uint64_t far, uint64_t cur, uint64_t next)
{
    uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    // Branch-free (y & 1) ? kMatrixA : 0, so the loops vectorize.
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
        uint64_t x = state_[i - 1];
        state_[i] = kInitMul * (x ^ (x >> 62)) + i;
    }
}

void
Mt19937_64::refill()
{
    // The standard in-place twist, split at the points where the
    // "far" word (k + m, wrapping) switches from old to new state.
    for (size_t k = 0; k < kN - kM; ++k)
        state_[k] = twist(state_[k + kM], state_[k], state_[k + 1]);
    for (size_t k = kN - kM; k < kN - 1; ++k)
        state_[k] = twist(state_[k + kM - kN], state_[k], state_[k + 1]);
    state_[kN - 1] = twist(state_[kM - 1], state_[kN - 1], state_[0]);

    for (size_t k = 0; k < kN; ++k) {
        uint64_t z = state_[k];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        z ^= z >> 43;
        out_[k] = z;
    }
    next_ = 0;
}

GeometricSkip::GeometricSkip(double p, int span)
    : below_(static_cast<size_t>(std::max(span, 1)))
{
    const double q = p > 0.0 ? (p < 1.0 ? 1.0 - p : 0.0) : 1.0;
    if (q == 1.0) {
        // Every cut admits every word: each gap is span().
        floor_.fill(this->span());
        return;
    }
    // Below 1, every power of q is at most nextafter(1, 0), so its cut is
    // a plain word bound.
    double all_fail = 1.0;
    for (uint64_t& below : below_) {
        all_fail *= q;
        below = Rng::bernoulliCut(all_fail).below;
    }
    // One walk down the cuts as the bucket's last word rises.
    int g = this->span();
    for (size_t b = 0; b < floor_.size(); ++b) {
        const uint64_t last = (uint64_t{b} << 56) | ((uint64_t{1} << 56) - 1);
        while (g > 0 && !(last < below_[g - 1]))
            --g;
        floor_[b] = g;
    }
}

}  // namespace magma::common
