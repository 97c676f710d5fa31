/** @file Unit + property tests for the MAESTRO-like cost model. */

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "accel/platform.h"
#include "cost/cost_model.h"
#include "dnn/layer.h"

using namespace magma;
using cost::CostModel;
using cost::CostResult;
using cost::DataflowStyle;
using cost::SubAccelConfig;
using dnn::conv;
using dnn::depthwise;
using dnn::fc;
using dnn::pointwise;

namespace {

SubAccelConfig
hb64()
{
    return accel::makeSubAccel(DataflowStyle::HB, 64, 291);
}

SubAccelConfig
lb64()
{
    return accel::makeSubAccel(DataflowStyle::LB, 64, 218);
}

}  // namespace

TEST(CostModel, BasicSanity)
{
    CostModel model;
    CostResult r = model.analyze(conv(64, 64, 28, 28, 3, 3), 4, hb64());
    EXPECT_GT(r.noStallCycles, 0.0);
    EXPECT_GT(r.reqBwGbps, 0.0);
    EXPECT_GT(r.dramBytes, 0.0);
    EXPECT_GT(r.energyPj, 0.0);
    EXPECT_EQ(r.macs, 64LL * 64 * 28 * 28 * 9 * 4);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0 + 1e-9);
}

TEST(CostModel, LatencyLowerBoundIsMacsOverPes)
{
    CostModel model;
    SubAccelConfig cfg = hb64();
    CostResult r = model.analyze(conv(256, 256, 14, 14, 3, 3), 4, cfg);
    double min_cycles = static_cast<double>(r.macs) / cfg.pes();
    EXPECT_GE(r.noStallCycles, min_cycles - 1e-9);
}

TEST(CostModel, MoreRowsNeverSlower)
{
    CostModel model;
    dnn::LayerShape l = conv(512, 256, 14, 14, 3, 3);
    double prev = 1e300;
    for (int rows : {16, 32, 64, 128, 256}) {
        SubAccelConfig cfg = accel::makeSubAccel(DataflowStyle::HB, rows,
                                                 580);
        CostResult r = model.analyze(l, 4, cfg);
        EXPECT_LE(r.noStallCycles, prev * 1.001) << rows;
        prev = r.noStallCycles;
    }
}

TEST(CostModel, BatchScalesComputeLinearly)
{
    CostModel model;
    CostResult r1 = model.analyze(conv(256, 128, 14, 14, 3, 3), 1, hb64());
    CostResult r4 = model.analyze(conv(256, 128, 14, 14, 3, 3), 4, hb64());
    EXPECT_EQ(r4.macs, 4 * r1.macs);
    EXPECT_GT(r4.noStallCycles, r1.noStallCycles);
}

TEST(CostModel, FcOnLbIsFarSlowerThanHb)
{
    // Section VI-A3 / Fig. 7: FC layers crawl on the activation-parallel
    // LB style.
    CostModel model;
    dnn::LayerShape l = fc(768, 768);
    CostResult h = model.analyze(l, 128, hb64());
    CostResult b = model.analyze(l, 128, lb64());
    EXPECT_GT(b.noStallCycles, 10.0 * h.noStallCycles);
}

TEST(CostModel, LbNeedsFarLessBandwidthOnFc)
{
    CostModel model;
    dnn::LayerShape l = fc(1024, 1024);
    CostResult h = model.analyze(l, 128, hb64());
    CostResult b = model.analyze(l, 128, lb64());
    EXPECT_LT(b.reqBwGbps, 0.2 * h.reqBwGbps);
}

TEST(CostModel, EarlyConvFavorsLb)
{
    // First CNN layer: 3 input channels starve HB's channel parallelism;
    // LB's activation-plane parallelism shines (Section VI-A3).
    CostModel model;
    dnn::LayerShape l = conv(64, 3, 112, 112, 7, 7, 2);
    CostResult h = model.analyze(l, 4, hb64());
    CostResult b = model.analyze(l, 4, lb64());
    EXPECT_LT(b.noStallCycles, h.noStallCycles);
}

TEST(CostModel, LateConvFavorsHb)
{
    CostModel model;
    dnn::LayerShape l = conv(512, 512, 7, 7, 3, 3);
    CostResult h = model.analyze(l, 4, hb64());
    CostResult b = model.analyze(l, 4, lb64());
    EXPECT_LT(h.noStallCycles, b.noStallCycles);
}

TEST(CostModel, DepthwiseUnderutilizesHb)
{
    // NVDLA-style channel parallelism has no reduction dimension to spread
    // on depthwise layers; utilization must be far below a regular conv.
    CostModel model;
    CostResult dw = model.analyze(depthwise(256, 14, 14, 3, 3), 4, hb64());
    CostResult cv = model.analyze(conv(256, 256, 14, 14, 3, 3), 4, hb64());
    EXPECT_LT(dw.utilization, 0.5 * cv.utilization);
}

TEST(CostModel, TrafficAtLeastWeightBytes)
{
    CostModel model;
    for (const auto& l : {conv(256, 256, 14, 14, 3, 3), fc(4096, 4096),
                          pointwise(512, 128, 28, 28)}) {
        CostResult r = model.analyze(l, 4, hb64());
        EXPECT_GE(r.dramBytes, static_cast<double>(l.weightElems()))
            << l.toString();
    }
}

TEST(CostModel, ResidentActivationsMakeTrafficWeightDominated)
{
    // Small feature maps fit the SG: traffic collapses to ~weights.
    CostModel model;
    dnn::LayerShape l = conv(256, 256, 7, 7, 3, 3);
    CostResult r = model.analyze(l, 1, hb64());
    EXPECT_LT(r.dramBytes, 1.5 * l.weightElems());
}

TEST(CostModel, StreamedActivationsRaiseTraffic)
{
    // Huge feature maps cannot reside: traffic must include the locality-
    // discounted activation bytes on top of the weights.
    CostModel model;
    dnn::LayerShape l = pointwise(128, 128, 112, 112);
    CostResult r = model.analyze(l, 4, hb64());
    double acts = (l.inputElemsPerSample() + l.outputElemsPerSample()) * 4.0;
    EXPECT_GE(r.dramBytes,
              CostModel::kActLocality * acts +
                  static_cast<double>(l.weightElems()) - 1e-6);
}

TEST(CostModel, ReqBwConsistentWithTrafficAndLatency)
{
    CostModel model;
    SubAccelConfig cfg = hb64();
    CostResult r = model.analyze(conv(128, 128, 28, 28, 3, 3), 4, cfg);
    double seconds = r.noStallCycles / (cfg.freqGhz * 1e9);
    EXPECT_NEAR(r.reqBwGbps, r.dramBytes / seconds / 1e9, 1e-9);
    EXPECT_NEAR(r.noStallSeconds(cfg), seconds, 1e-18);
}

TEST(CostModel, SmallerSgNeverLowersTraffic)
{
    CostModel model;
    dnn::LayerShape l = conv(512, 512, 14, 14, 3, 3);
    SubAccelConfig big = hb64();
    SubAccelConfig small = hb64();
    small.sgBytes = 16.0 * 1024.0;
    CostResult rb = model.analyze(l, 4, big);
    CostResult rs = model.analyze(l, 4, small);
    EXPECT_GE(rs.dramBytes, rb.dramBytes * 0.999);
}

TEST(CostModel, EnergyGrowsWithTraffic)
{
    CostModel model;
    dnn::LayerShape l = conv(512, 512, 14, 14, 3, 3);
    SubAccelConfig big = hb64();
    SubAccelConfig small = hb64();
    small.sgBytes = 8.0 * 1024.0;
    CostResult rb = model.analyze(l, 4, big);
    CostResult rs = model.analyze(l, 4, small);
    EXPECT_GE(rs.energyPj, rb.energyPj);
}

TEST(CostModel, EnergyParamsScale)
{
    cost::EnergyParams cheap;
    cheap.dramPjPerByte = 0.0;
    CostModel expensive;  // defaults
    CostModel free_dram(cheap);
    dnn::LayerShape l = fc(2048, 2048);
    EXPECT_GT(expensive.analyze(l, 4, hb64()).energyPj,
              free_dram.analyze(l, 4, hb64()).energyPj);
}

TEST(CostModel, FlexibleShapeAtLeastAsFastAsFixed)
{
    CostModel model;
    SubAccelConfig fixed = hb64();
    SubAccelConfig flex = hb64();
    flex.flexibleShape = true;
    flex.sgBytes = 2.0 * 1024 * 1024;
    fixed.sgBytes = 2.0 * 1024 * 1024;
    for (const auto& l : {conv(48, 48, 20, 20, 3, 3), fc(100, 100),
                          depthwise(96, 28, 28, 3, 3),
                          pointwise(24, 24, 7, 7)}) {
        CostResult rfix = model.analyze(l, 4, fixed);
        CostResult rflex = model.analyze(l, 4, flex);
        EXPECT_LE(rflex.noStallCycles, rfix.noStallCycles * 1.0001)
            << l.toString();
        EXPECT_EQ(rflex.usedRows * rflex.usedCols, fixed.pes());
    }
}

TEST(CostModel, FlexibleShapeReportsChosenShape)
{
    CostModel model;
    SubAccelConfig flex = hb64();
    flex.flexibleShape = true;
    // A k=8 layer wants a short-and-wide array under HB.
    CostResult r = model.analyze(pointwise(8, 4096, 4, 4), 1, flex);
    EXPECT_LE(r.usedRows, 16);
}

TEST(CostModel, AnalyzeMatchesAnalyzeWithShapeForFixed)
{
    CostModel model;
    SubAccelConfig cfg = lb64();
    dnn::LayerShape l = conv(96, 96, 28, 28, 3, 3);
    CostResult a = model.analyze(l, 4, cfg);
    CostResult b = model.analyzeWithShape(l, 4, cfg, cfg.rows, cfg.cols);
    EXPECT_DOUBLE_EQ(a.noStallCycles, b.noStallCycles);
    EXPECT_DOUBLE_EQ(a.dramBytes, b.dramBytes);
}

TEST(CostModel, PeakGflopsFormula)
{
    SubAccelConfig cfg = hb64();
    EXPECT_DOUBLE_EQ(cfg.peakGflops(), 2.0 * 64 * 64 * 0.2);
}

// ------------------------- bit-pattern pins ------------------------------

namespace {

SubAccelConfig
flexible(DataflowStyle style, int rows)
{
    SubAccelConfig cfg = accel::makeSubAccel(style, rows, 2048);
    cfg.flexibleShape = true;
    return cfg;
}

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Every CostResult field, doubles as bit patterns. */
struct PinnedResult {
    uint64_t noStallCycles;
    uint64_t reqBwGbps;
    int64_t macs;
    uint64_t dramBytes;
    uint64_t energyPj;
    uint64_t utilization;
    int usedRows;
    int usedCols;
};

struct PinCase {
    const char* name;
    dnn::LayerShape layer;
    int batch;
    SubAccelConfig cfg;
    PinnedResult want;
};

}  // namespace

// Exact results on both branches of HB's tile search (some tile fits the
// SG / none does), both LB weight regimes and the flexible shape search.
// Any change to the model's arithmetic or its search order moves a bit.
TEST(CostModel, ResultsArePinnedBitwise)
{
    using DS = DataflowStyle;
    const PinCase cases[] = {
        {"hb_conv_feasible", conv(256, 128, 14, 14, 3, 3), 4,
         accel::makeSubAccel(DS::HB, 64, 291),
         {0x40eb994000000000ull, 0x3ff56471f82b7eb3ull, 231211008,
          0x4117100000000000ull, 0x41c7508c00000000ull,
          0x3feff5465b53b578ull, 64, 64}},
        {"hb_depthwise_feasible", depthwise(256, 28, 28, 3, 3), 2,
         accel::makeSubAccel(DS::HB, 64, 291),
         {0x40eb908800000000ull, 0x3fe8b2c8316e630eull, 3612672,
          0x410a980000000000ull, 0x418aa5fc00000000ull,
          0x3f8fff621dbefdc5ull, 64, 64}},
        {"hb_fc_feasible", fc(1000, 2048), 8,
         accel::makeSubAccel(DS::HB, 32, 146),
         {0x40c0204000000000ull, 0x4048ce00c6700632ull, 16384000,
          0x413f400000000000ull, 0x41bc1f3800000000ull,
          0x3fef0180f80c07c0ull, 32, 64}},
        {"hb_conv_infeasible", conv(512, 512, 7, 7, 3, 3), 4,
         accel::makeSubAccel(DS::HB, 64, 16),
         {0x40fb926000000000ull, 0x403d5d7bf33acd4full, 462422016,
          0x416fa08000000000ull, 0x41f1f93f80000000ull,
          0x3feffd3e59d444c9ull, 64, 64}},
        {"hb_fc_infeasible", fc(4096, 4096), 4,
         accel::makeSubAccel(DS::HB, 64, 4),
         {0x40d8018000000000ull, 0x4061122211122211ull, 67108864,
          0x4170020000000000ull, 0x41eb493800000000ull,
          0x3fe5540015540015ull, 64, 64}},
        {"lb_weights_resident", conv(64, 64, 56, 56, 3, 3), 1,
         accel::makeSubAccel(DS::LB, 64, 218),
         {0x41250019c0000000ull, 0x3fa4f625b00b153eull, 115605504,
          0x4101320000000000ull, 0x41b6b97780000000ull,
          0x3fa4ffe6401f92e5ull, 64, 64}},
        {"lb_weights_streamed", fc(4096, 4096), 4,
         accel::makeSubAccel(DS::LB, 64, 218),
         {0x4170000cc0000000ull, 0x3fc99985334374bfull, 67108864,
          0x4170000000000000ull, 0x41eb460000000000ull,
          0x3f4fffe6801451f0ull, 64, 64}},
        {"hb_flexible", conv(256, 128, 14, 14, 3, 3), 4,
         flexible(DS::HB, 32),
         {0x40fba22000000000ull, 0x3fe0acefaf79561eull, 231211008,
          0x4112000000000000ull, 0x41c6ce3000000000ull,
          0x3fefeb02c5de3ed5ull, 16, 128}},
        {"lb_flexible", depthwise(128, 56, 56, 3, 3), 2,
         flexible(DS::LB, 32),
         {0x40d505f000000000ull, 0x400f00fc856714fdull, 7225344,
          0x4119760000000000ull, 0x4199bca000000000ull,
          0x3fc4fa11ad49abefull, 1, 2048}},
    };
    CostModel model;
    for (const PinCase& c : cases) {
        SCOPED_TRACE(c.name);
        CostResult r = model.analyze(c.layer, c.batch, c.cfg);
        EXPECT_EQ(bits(r.noStallCycles), c.want.noStallCycles);
        EXPECT_EQ(bits(r.reqBwGbps), c.want.reqBwGbps);
        EXPECT_EQ(r.macs, c.want.macs);
        EXPECT_EQ(bits(r.dramBytes), c.want.dramBytes);
        EXPECT_EQ(bits(r.energyPj), c.want.energyPj);
        EXPECT_EQ(bits(r.utilization), c.want.utilization);
        EXPECT_EQ(r.usedRows, c.want.usedRows);
        EXPECT_EQ(r.usedCols, c.want.usedCols);
    }
}

// The flexible search walks the divisors of the PE count in ascending
// height order; the shape it keeps must be the one a scan of every height
// 1..PEs keeps (first fastest wins), including PE counts that are not
// powers of two, squares and primes.
TEST(CostModel, FlexibleSearchMatchesScanOfEveryHeight)
{
    CostModel model;
    const dnn::LayerShape layers[] = {
        conv(256, 128, 14, 14, 3, 3), depthwise(96, 28, 28, 3, 3),
        fc(1000, 2048), pointwise(64, 32, 56, 56), conv(3, 3, 4, 4, 1, 1)};
    const int shapes[][2] = {{64, 64}, {48, 64}, {36, 36}, {13, 1},
                             {7, 9},   {1, 1},   {30, 70}};
    for (DataflowStyle style : {DataflowStyle::HB, DataflowStyle::LB}) {
        for (const auto& shape : shapes) {
            SubAccelConfig cfg = accel::makeSubAccel(style, shape[0], 146);
            cfg.cols = shape[1];
            cfg.flexibleShape = true;
            const int pes = cfg.pes();
            for (const dnn::LayerShape& l : layers) {
                CostResult want;
                bool first = true;
                for (int h = 1; h <= pes; ++h) {
                    if (pes % h != 0)
                        continue;
                    CostResult r = model.analyzeWithShape(l, 2, cfg, h,
                                                          pes / h);
                    if (first || r.noStallCycles < want.noStallCycles) {
                        want = r;
                        first = false;
                    }
                }
                CostResult got = model.analyze(l, 2, cfg);
                SCOPED_TRACE(l.toString() + " on " +
                             std::to_string(shape[0]) + "x" +
                             std::to_string(shape[1]));
                EXPECT_EQ(got.usedRows, want.usedRows);
                EXPECT_EQ(got.usedCols, want.usedCols);
                EXPECT_EQ(bits(got.noStallCycles), bits(want.noStallCycles));
                EXPECT_EQ(bits(got.dramBytes), bits(want.dramBytes));
                EXPECT_EQ(bits(got.energyPj), bits(want.energyPj));
            }
        }
    }
}

// ------------------------- parameterized sweeps --------------------------

struct SweepCase {
    dnn::LayerShape layer;
    int batch;
};

class CostSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CostSweep, InvariantsHoldAcrossShapesAndStyles)
{
    CostModel model;
    const SweepCase& c = GetParam();
    for (DataflowStyle style : {DataflowStyle::HB, DataflowStyle::LB}) {
        for (int rows : {32, 64, 128}) {
            SubAccelConfig cfg = accel::makeSubAccel(style, rows, 291);
            CostResult r = model.analyze(c.layer, c.batch, cfg);
            // Latency positive and at least the compute lower bound.
            EXPECT_GE(r.noStallCycles,
                      static_cast<double>(r.macs) / cfg.pes() - 1e-9);
            // Utilization in (0, 1].
            EXPECT_GT(r.utilization, 0.0);
            EXPECT_LE(r.utilization, 1.0 + 1e-9);
            // Traffic covers the weights at least.
            EXPECT_GE(r.dramBytes,
                      static_cast<double>(c.layer.weightElems()) - 1e-9);
            // Bandwidth and energy well-formed.
            EXPECT_GT(r.reqBwGbps, 0.0);
            EXPECT_TRUE(std::isfinite(r.energyPj));
            EXPECT_GT(r.energyPj, 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CostSweep,
    ::testing::Values(
        SweepCase{conv(64, 3, 112, 112, 7, 7, 2), 4},
        SweepCase{conv(64, 64, 56, 56, 3, 3), 4},
        SweepCase{conv(256, 128, 28, 28, 3, 3), 4},
        SweepCase{conv(512, 512, 7, 7, 3, 3), 4},
        SweepCase{depthwise(32, 112, 112, 3, 3), 4},
        SweepCase{depthwise(384, 14, 14, 3, 3), 4},
        SweepCase{pointwise(128, 64, 56, 56), 4},
        SweepCase{pointwise(1280, 320, 7, 7), 4},
        SweepCase{fc(1000, 2048), 4},
        SweepCase{fc(768, 768), 128},
        SweepCase{fc(3072, 768), 128},
        SweepCase{fc(64, 32), 4},
        SweepCase{fc(1, 256), 4},
        SweepCase{conv(96, 96, 1, 1, 1, 1), 1},
        SweepCase{conv(16, 16, 224, 224, 5, 5), 2}));

class FlexSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FlexSweep, FlexibleBeatsOrMatchesEveryFixedShape)
{
    CostModel model;
    const SweepCase& c = GetParam();
    SubAccelConfig flex = hb64();
    flex.flexibleShape = true;
    CostResult best = model.analyze(c.layer, c.batch, flex);
    for (int rows : {1, 2, 8, 64, 512, 4096}) {
        CostResult fixed = model.analyzeWithShape(c.layer, c.batch, flex,
                                                  rows, flex.pes() / rows);
        EXPECT_LE(best.noStallCycles, fixed.noStallCycles * 1.0001)
            << "rows=" << rows;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FlexSweep,
    ::testing::Values(SweepCase{conv(48, 24, 30, 30, 3, 3), 2},
                      SweepCase{fc(500, 300), 16},
                      SweepCase{depthwise(60, 60, 60, 3, 3), 2},
                      SweepCase{pointwise(100, 700, 10, 10), 1}));
