#ifndef MAGMA_COST_COST_KEY_H_
#define MAGMA_COST_COST_KEY_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "cost/cost_model.h"
#include "dnn/layer.h"

namespace magma::cost {

/**
 * A memo key of cost-model inputs packed into N 64-bit words, compared
 * and hashed word by word. Doubles are stored by bit pattern, so nearby
 * values never collide and +0.0 / -0.0 are distinct keys.
 */
template <size_t N>
struct PackedKey {
    std::array<uint64_t, N> words{};

    bool operator==(const PackedKey&) const = default;

    /** Hash functor for unordered containers. */
    struct Hash {
        size_t operator()(const PackedKey& k) const noexcept
        {
            uint64_t h = N;
            for (uint64_t w : k.words) {
                h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
                h ^= h >> 31;
            }
            return static_cast<size_t>(h);
        }
    };
};

/** Two 32-bit fields in one word. */
inline uint64_t
packPair(int hi, int lo)
{
    return (static_cast<uint64_t>(static_cast<uint32_t>(hi)) << 32) |
           static_cast<uint32_t>(lo);
}

/** The job half of a query: every LayerShape field plus the batch. */
using LayerKey = PackedKey<5>;

inline LayerKey
layerKey(const dnn::LayerShape& l, int batch)
{
    return {{packPair(static_cast<int>(l.type), l.k), packPair(l.c, l.y),
             packPair(l.x, l.r), packPair(l.s, l.stride),
             static_cast<uint64_t>(static_cast<uint32_t>(batch))}};
}

/**
 * The hardware half: every SubAccelConfig field CostModel::analyze can
 * read. `name` is a label, not a cost input, so two cores that differ
 * only in name share one key.
 */
using ConfigKey = PackedKey<8>;

inline ConfigKey
configKey(const SubAccelConfig& c)
{
    return {{packPair(static_cast<int>(c.dataflow), c.flexibleShape ? 1 : 0),
             packPair(c.rows, c.cols), std::bit_cast<uint64_t>(c.slBytes),
             std::bit_cast<uint64_t>(c.sgBytes),
             std::bit_cast<uint64_t>(c.freqGhz),
             std::bit_cast<uint64_t>(c.bytesPerElem),
             std::bit_cast<uint64_t>(c.nocElemsPerCycle),
             std::bit_cast<uint64_t>(c.nocLatency)}};
}

/**
 * A whole query as exec::CostCache memoizes it: layer, configuration,
 * the model's energy parameters and a caller-supplied bandwidth bucket.
 */
using CostKey = PackedKey<18>;

inline CostKey
costKey(const LayerKey& layer, const ConfigKey& config,
        const EnergyParams& e, int bw_bucket)
{
    CostKey key;
    auto out = key.words.begin();
    for (uint64_t w : layer.words)
        *out++ = w;
    for (uint64_t w : config.words)
        *out++ = w;
    *out++ = std::bit_cast<uint64_t>(e.macPj);
    *out++ = std::bit_cast<uint64_t>(e.slPj);
    *out++ = std::bit_cast<uint64_t>(e.sgPj);
    *out++ = std::bit_cast<uint64_t>(e.dramPjPerByte);
    *out = static_cast<uint64_t>(static_cast<uint32_t>(bw_bucket));
    return key;
}

}  // namespace magma::cost

#endif  // MAGMA_COST_COST_KEY_H_
