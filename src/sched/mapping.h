#ifndef MAGMA_SCHED_MAPPING_H_
#define MAGMA_SCHED_MAPPING_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace magma::sched {

/**
 * The encoded global mapping (Section IV-A, Fig. 5a).
 *
 * Two genomes of group-size length:
 *  - `accelSel[j]`  : sub-accelerator id executing job j;
 *  - `priority[j]`  : priority of job j in [0,1), 0 highest — jobs on one
 *                     sub-accelerator execute in ascending priority order.
 */
struct Mapping {
    std::vector<int> accelSel;
    std::vector<double> priority;

    int size() const { return static_cast<int>(accelSel.size()); }

    /** Uniform random mapping (the Init engine). */
    static Mapping random(int group_size, int num_accels, common::Rng& rng);

    /**
     * Flatten to 2*G doubles in [0,1) — the representation continuous
     * optimizers (DE/PSO/CMA-ES/TBPSA) operate on. Accel genes map to
     * (id + 0.5) / num_accels.
     */
    std::vector<double> toFlat(int num_accels) const;

    /**
     * Rebuild from a flat vector; values are clamped into [0,1) and accel
     * genes decoded as floor(v * num_accels).
     */
    static Mapping fromFlat(const std::vector<double>& flat, int num_accels);

    /**
     * One-line text form "G a0..a(G-1) p0..p(G-1)" with priorities printed
     * at full precision (%.17g), so fromText(toText(m)) == m bitwise —
     * the property the serve-layer MappingStore persistence relies on.
     */
    std::string toText() const;

    /**
     * Parse a toText() line: blank-separated tokens, each read whole by
     * common::parseNumber, exactly 2*G genes after the size, accel genes
     * non-negative and priorities finite. Throws std::invalid_argument
     * otherwise, before allocating when the size outruns the genes.
     */
    static Mapping fromText(std::string_view line);

    bool operator==(const Mapping& o) const = default;
};

/**
 * Decoded mapping description (Fig. 4a): per sub-accelerator, the ordered
 * job queue (ascending priority, stable tie-break on job id).
 */
struct DecodedMapping {
    std::vector<std::vector<int>> queues;  // queues[accel] = ordered job ids
};

/** Decode an encoded mapping (Section IV-A's decoder). */
DecodedMapping decode(const Mapping& m, int num_accels);

}  // namespace magma::sched

#endif  // MAGMA_SCHED_MAPPING_H_
