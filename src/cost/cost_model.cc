#include "cost/cost_model.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

namespace magma::cost {
namespace {

double
ceilDiv(double a, double b)
{
    return std::ceil(a / b);
}

/** Tile-size candidates for a dimension, held inline: an int above 1
 * halves (rounding up) to 1 in at most 31 steps, so 32 slots hold the
 * halvings plus the floor entry. */
struct TileCandidates {
    std::array<int, 32> sizes{};
    int count = 0;

    const int* begin() const { return sizes.data(); }
    const int* end() const { return sizes.data() + count; }
};

/** dim, dim/2, dim/4, ... (rounded up) while above floor, then the floor
 * clamped to [1, dim]. */
TileCandidates
tileCandidates(int dim, int floor_size)
{
    TileCandidates out;
    int t = dim;
    while (t > floor_size && t > 1) {
        out.sizes[out.count++] = t;
        t -= t / 2;
    }
    out.sizes[out.count++] = std::max(std::min(floor_size, dim), 1);
    return out;
}

struct Traffic {
    double dram_bytes = 0.0;
    double tiles = 1.0;           ///< number of SG refill tiles
    double tile_fill_elems = 0.0; ///< elems distributed per tile over NoC
};

/** DRAM bytes contributed by a layer's activations under the locality
 * model: zero when resident in the SG, a kActLocality fraction of the
 * streamed input+output bytes otherwise. */
double
activationTraffic(const dnn::LayerShape& l, int batch,
                  const SubAccelConfig& cfg, bool resident)
{
    if (resident)
        return 0.0;
    double acts = (static_cast<double>(l.inputElemsPerSample()) +
                   l.outputElemsPerSample()) * batch * cfg.bytesPerElem;
    return CostModel::kActLocality * acts;
}

/**
 * Whether this job's input+output activations fit (double-buffered) in the
 * SG. When they do, activations live on-chip across layers of the batched
 * pipeline and the job's DRAM traffic is weight-dominated — matching the
 * low bandwidth MAESTRO reports for late CNN layers.
 */
bool
activationsResident(const dnn::LayerShape& l, int batch,
                    const SubAccelConfig& cfg)
{
    double act = (static_cast<double>(l.inputElemsPerSample()) +
                  l.outputElemsPerSample()) * batch * cfg.bytesPerElem;
    return act <= cfg.sgBytes / 2.0;
}

/**
 * HB (NVDLA-like, weight-stationary) traffic. Weights are fetched once;
 * activations follow the locality model (resident maps never leave the
 * SG, streamed ones pay the kActLocality fraction). Weight tiles are the
 * largest that fit the double-buffered footprint
 *   2 * (weight tile + input row-strip + output row)  <=  SG,
 * which minimizes the number of SG refills the NoC must absorb.
 */
Traffic
hbTraffic(const dnn::LayerShape& l, int batch, const SubAccelConfig& cfg,
          int rows, int cols)
{
    double bpe = cfg.bytesPerElem;
    double w_bytes = static_cast<double>(l.weightElems()) * bpe;
    bool resident = activationsResident(l, batch, cfg);

    int out_ch = (l.type == dnn::LayerType::DepthwiseConv2d) ? l.c : l.k;
    int red_ch = (l.type == dnn::LayerType::DepthwiseConv2d) ? 1 : l.c;

    double best_tiles = std::numeric_limits<double>::infinity();
    Traffic best;
    bool feasible = false;
    const TileCandidates tcs = tileCandidates(red_ch, cols);
    for (int tk : tileCandidates(out_ch, rows)) {
        for (int tc : tcs) {
            double wt = static_cast<double>(tk) * tc * l.r * l.s * bpe;
            double in_strip = static_cast<double>(tc) * l.inX() * l.r * bpe;
            double out_strip = static_cast<double>(tk) * l.x * bpe;
            double footprint = 2.0 * (wt + in_strip + out_strip);
            if (footprint > cfg.sgBytes)
                continue;
            feasible = true;
            double tiles = ceilDiv(out_ch, tk) * ceilDiv(red_ch, tc);
            if (tiles < best_tiles) {
                best_tiles = tiles;
                best.tiles = tiles;
                best.tile_fill_elems = wt / bpe;
            }
        }
    }
    if (feasible) {
        best.dram_bytes =
            w_bytes + activationTraffic(l, batch, cfg, resident);
    } else {
        // SG cannot hold even the minimal tile strips; every weight tile
        // is re-streamed per output row — heavy degradation, but bounded.
        int tk = std::min(out_ch, rows);
        int tc = std::min(red_ch, cols);
        double tiles = ceilDiv(out_ch, tk) * ceilDiv(red_ch, tc) * l.y;
        best.dram_bytes = w_bytes * static_cast<double>(l.y) +
                          activationTraffic(l, batch, cfg, false);
        best.tiles = tiles;
        best.tile_fill_elems = static_cast<double>(tk) * tc * l.r * l.s;
    }
    return best;
}

/**
 * LB (Eyeriss-like, row-stationary) traffic: activations are fetched at
 * most once (not at all when resident) and retired in place; weights are
 * broadcast per activation strip — once if they fit next to a strip,
 * otherwise streamed per strip group. LB's hallmark is minimal DRAM
 * traffic at the price of utilization.
 */
Traffic
lbTraffic(const dnn::LayerShape& l, int batch, const SubAccelConfig& cfg,
          int rows)
{
    double bpe = cfg.bytesPerElem;
    double w_bytes = static_cast<double>(l.weightElems()) * bpe;
    bool resident = activationsResident(l, batch, cfg);

    // Strip = rows of the output plane retired at once.
    double in_strip = static_cast<double>(l.c) * l.inX() * l.r * bpe;
    double out_strip =
        static_cast<double>(l.type == dnn::LayerType::DepthwiseConv2d
                                ? l.c : l.k) * l.x * bpe;
    double strips = std::max(
        1.0, ceilDiv(static_cast<double>(l.y) * batch, rows));

    Traffic t;
    double act_traffic = activationTraffic(l, batch, cfg, resident);
    double strip_footprint = 2.0 * (in_strip + out_strip);
    if (strip_footprint + w_bytes <= cfg.sgBytes) {
        // Weights resident next to the strips: everything moves once.
        t.dram_bytes = w_bytes + act_traffic;
        t.tiles = strips;
        t.tile_fill_elems = in_strip / bpe;
    } else {
        // Weights streamed per strip group; group size set by SG leftover.
        double budget = std::max(cfg.sgBytes - strip_footprint,
                                 cfg.sgBytes * 0.25);
        double w_passes = std::max(1.0, ceilDiv(w_bytes, budget));
        t.dram_bytes =
            w_bytes * std::min(w_passes, strips) + act_traffic;
        t.tiles = strips * w_passes;
        t.tile_fill_elems = std::min(w_bytes, budget) / bpe;
    }
    return t;
}

}  // namespace

CostResult
CostModel::analyzeWithShape(const dnn::LayerShape& layer, int batch,
                            const SubAccelConfig& cfg, int rows,
                            int cols) const
{
    assert(rows > 0 && cols > 0 && batch > 0);
    CostResult res;
    res.macs = layer.macsPerSample() * batch;
    res.usedRows = rows;
    res.usedCols = cols;

    // --- Compute latency: the dataflow's spatial mapping of the loop. ---
    double steps = 0.0;
    if (cfg.dataflow == DataflowStyle::HB) {
        if (layer.type == dnn::LayerType::DepthwiseConv2d) {
            // Channels spread over rows; no reduction to spread over
            // columns, so the column dimension idles (NVDLA's well-known
            // depthwise weakness).
            steps = ceilDiv(layer.c, rows) * layer.y * layer.x * layer.r *
                    layer.s * batch;
        } else {
            steps = ceilDiv(layer.k, rows) * ceilDiv(layer.c, cols) *
                    layer.y * layer.x * layer.r * layer.s * batch;
        }
    } else {
        // LB, Eyeriss row-stationary: filter rows R map across PE rows and
        // output rows Y (batch folded in) across PE columns; leftover PE
        // rows replicate additional output-row groups. Channels are
        // processed temporally — which is exactly why FC layers (R=1,Y=1)
        // crawl on LB while big early activation planes fly.
        double y_eff = static_cast<double>(layer.y) * batch;
        double y_groups = std::max(1.0, std::floor(rows / layer.r));
        double y_parallel = static_cast<double>(cols) * y_groups;
        double passes = ceilDiv(y_eff, y_parallel);
        if (layer.type == dnn::LayerType::DepthwiseConv2d) {
            steps = static_cast<double>(layer.c) * layer.s * layer.x *
                    passes;
        } else {
            steps = static_cast<double>(layer.k) * layer.c * layer.s *
                    layer.x * passes;
        }
    }

    // --- DRAM traffic + per-tile NoC fill. ---
    // The traffic models take the evaluated shape as `rows`/`cols`;
    // `cfg.rows`/`cfg.cols` hold the configured one.
    Traffic traffic = (cfg.dataflow == DataflowStyle::HB)
                          ? hbTraffic(layer, batch, cfg, rows, cols)
                          : lbTraffic(layer, batch, cfg, rows);

    // Double-buffered SG: tile fills pipeline behind compute, so the
    // exposed latency is the max of compute and total NoC streaming time,
    // plus the un-hideable first fill.
    double per_tile_fill =
        traffic.tile_fill_elems / std::max(cfg.nocElemsPerCycle, 1.0);
    double total_fill =
        traffic.tiles * (cfg.nocLatency + per_tile_fill);
    res.noStallCycles = std::max(steps, total_fill) + cfg.nocLatency +
                        per_tile_fill;
    res.dramBytes = traffic.dram_bytes;

    double seconds = res.noStallCycles / (cfg.freqGhz * 1e9);
    res.reqBwGbps = (res.dramBytes / seconds) / 1e9;
    res.utilization =
        static_cast<double>(res.macs) /
        (res.noStallCycles * static_cast<double>(rows) * cols);

    // --- Energy: per-level access counts (documented approximation). ---
    double macs = static_cast<double>(res.macs);
    double sl_accesses = 2.0 * macs;          // operand read + psum update
    double sg_accesses = macs / std::max(1.0, cfg.nocElemsPerCycle / 8.0) +
                         res.dramBytes / cfg.bytesPerElem;
    res.energyPj = macs * energy_.macPj + sl_accesses * energy_.slPj +
                   sg_accesses * energy_.sgPj +
                   res.dramBytes * energy_.dramPjPerByte;
    return res;
}

CostResult
CostModel::analyze(const dnn::LayerShape& layer, int batch,
                   const SubAccelConfig& cfg) const
{
    if (!cfg.flexibleShape)
        return analyzeWithShape(layer, batch, cfg, cfg.rows, cfg.cols);

    // Flexible mode (Section VI-F): evaluate every factor pair (h, w) of
    // the PE budget and keep the fastest, mirroring "align the array shape
    // to factors of the parallelizing tile dimensions". Heights are tried
    // in ascending order and the first fastest shape wins a tie.
    const int pes = cfg.pes();
    CostResult best;
    bool first = true;
    auto consider = [&](int h) {
        CostResult r = analyzeWithShape(layer, batch, cfg, h, pes / h);
        if (first || r.noStallCycles < best.noStallCycles) {
            best = r;
            first = false;
        }
    };
    // The divisors up to sqrt(pes) ascending, then their cofactors
    // ascending: every height in order, with O(sqrt(pes)) divisions.
    int root = 0;
    for (int h = 1; h <= pes / h; ++h) {
        root = h;
        if (pes % h == 0)
            consider(h);
    }
    for (int h = root; h >= 1; --h)
        if (pes % h == 0 && h != pes / h)
            consider(pes / h);
    return best;
}

}  // namespace magma::cost
