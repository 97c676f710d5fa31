/** @file Unit tests for src/common: rng, stats, csv, matrix, pca. */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/matrix.h"
#include "common/pca.h"
#include "common/rng.h"
#include "common/stats.h"
#include "opt/magma_ga.h"
#include "sched/mapping.h"

using namespace magma::common;

// ---------------------------------------------------------------- Rng ----

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(-3.0, 7.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 7.0);
    }
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(3);
    std::set<int> seen;
    for (int i = 0; i < 1000; ++i) {
        int v = rng.uniformInt(5);
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 5);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntInclusiveRange)
{
    Rng rng(4);
    for (int i = 0; i < 200; ++i) {
        int v = rng.uniformInt(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
    }
}

namespace {

uint64_t
bits(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/** Seeds the stream-contract tests cover: 0, std's default, Rng's
 * default, all ones and an arbitrary one. */
const uint64_t kContractSeeds[] = {0, 5489, 0x9e3779b97f4a7c15ull, ~0ull,
                                   20240607};

/** A URBG that returns one fixed word, to drive the conversion. */
struct FixedWord {
    using result_type = uint64_t;
    uint64_t word;
    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~0ull; }
    uint64_t operator()() { return word; }
};

}  // namespace

TEST(Rng, DeterministicGivenSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(bits(a.uniform()), bits(b.uniform())) << i;
}

TEST(Rng, EngineMatchesStdMt19937_64)
{
    constexpr size_t kBlock = Mt19937_64::kStateSize;
    for (uint64_t seed : kContractSeeds) {
        std::mt19937_64 ref(seed);
        Mt19937_64 eng(seed);
        Rng rng(seed);
        std::vector<uint64_t> want(4 * kBlock);
        for (uint64_t& w : want)
            w = ref();
        for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(eng(), want[i]) << "seed " << seed << " draw " << i;
            ASSERT_EQ(rng.engine()(), want[i])
                << "seed " << seed << " draw " << i;
        }
        // The block boundaries, spelled out: the last word of the first
        // block and the first two of the second.
        Mt19937_64 edge(seed);
        for (size_t i = 0; i < kBlock - 1; ++i)
            edge();
        EXPECT_EQ(edge(), want[311]) << seed;
        EXPECT_EQ(edge(), want[312]) << seed;
        EXPECT_EQ(edge(), want[313]) << seed;
    }
    // Default construction matches too.
    std::mt19937_64 ref;
    Mt19937_64 eng;
    for (int i = 0; i < 700; ++i)
        ASSERT_EQ(eng(), ref()) << i;
}

TEST(Rng, UniformMatchesStdDistributionBitwise)
{
    for (uint64_t seed : kContractSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        std::uniform_real_distribution<double> range(-3.0, 7.0);
        for (int i = 0; i < 1000; ++i) {
            ASSERT_EQ(bits(rng.uniform()), bits(unit(ref)))
                << seed << " " << i;
            ASSERT_EQ(bits(rng.uniform(-3.0, 7.0)), bits(range(ref)))
                << seed << " " << i;
            ASSERT_EQ(rng.bernoulli(0.3), unit(ref) < 0.3)
                << seed << " " << i;
        }
    }
}

TEST(Rng, IntGaussMatchStd)
{
    for (uint64_t seed : kContractSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        std::normal_distribution<double> normal(0.0, 1.0);
        for (int i = 0; i < 300; ++i) {
            int n = 1 + i % 97;
            ASSERT_EQ(rng.uniformInt(n),
                      std::uniform_int_distribution<int64_t>(0, n - 1)(ref));
            ASSERT_EQ(rng.uniformInt(-5, n),
                      std::uniform_int_distribution<int64_t>(-5, n)(ref));
            // Consecutive gauss() calls share the distribution's cached
            // second Box-Muller value, so the reference keeps one object.
            ASSERT_EQ(bits(rng.gauss()), bits(normal(ref)))
                << seed << " " << i;
        }
    }
}

TEST(Rng, ToUnitMatchesGenerateCanonicalAtEdges)
{
    const double below_one = std::nextafter(1.0, 0.0);
    const uint64_t two53 = 1ull << 53;
    const uint64_t two63 = 1ull << 63;
    const uint64_t edges[] = {0,
                              1,
                              two53 - 1,
                              two53 + 1,
                              two63 - 1,
                              two63,
                              two63 + 1024,
                              two63 + 1025,
                              two63 + 3072,
                              0xfffffffffffff7ffull,
                              ~0ull - 2047,
                              ~0ull - 1024,
                              ~0ull - 1023,
                              ~0ull};
    for (uint64_t x : edges) {
        FixedWord g{x};
        double want = std::generate_canonical<double, 53>(g);
        EXPECT_EQ(bits(Rng::toUnit(x)), bits(want)) << x;
        EXPECT_LT(Rng::toUnit(x), 1.0) << x;
    }
    // Ties round to even: 2^63 + 1024 down, 2^63 + 1025 up.
    EXPECT_EQ(Rng::toUnit(two63 + 1024), 0.5);
    EXPECT_EQ(Rng::toUnit(two63 + 1025), 0.5 + 0x1p-53);
    // Words that round to 2^64 clamp just below one.
    EXPECT_EQ(Rng::toUnit(~0ull - 1023), below_one);  // 2^64 - 1024
    EXPECT_EQ(Rng::toUnit(~0ull), below_one);          // 2^64 - 1
    EXPECT_EQ(Rng::toUnit(0), 0.0);
    EXPECT_EQ(Rng::toUnit(1), 0x1p-64);
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniform() == b.uniform())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, GaussHasRoughlyUnitMoments)
{
    Rng rng(5);
    RunningStat s;
    for (int i = 0; i < 20000; ++i)
        s.push(rng.gauss());
    EXPECT_NEAR(s.mean(), 0.0, 0.05);
    EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(6);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, BernoulliDegenerateRates)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

/** The cut draw equals toUnit(w) < p on the words around the cut, at
 * both ends of the word range and on random words, for rates from the
 * degenerate edges to the largest uniform() and beyond. */
TEST(Rng, BernoulliCutMatchesUniformCompare)
{
    const double below_one = std::nextafter(1.0, 0.0);
    const double rates[] = {0.0,
                            -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            0x1p-64,
                            0x1p-60,
                            0.05,
                            0.5,
                            0.9,
                            below_one,
                            1.0,
                            1.5,
                            std::numeric_limits<double>::quiet_NaN()};
    std::mt19937_64 words(0xc075);
    for (double p : rates) {
        SCOPED_TRACE(testing::Message() << "p = " << p);
        const BernoulliCut c = Rng::bernoulliCut(p);
        const uint64_t cut = c.below;
        for (uint64_t w : {cut - 1, cut, cut + 1, uint64_t{0}, ~uint64_t{0}})
            ASSERT_EQ(c.admits(w), Rng::toUnit(w) < p) << "word " << w;
        for (int i = 0; i < 10000; ++i) {
            uint64_t w = words();
            ASSERT_EQ(c.admits(w), Rng::toUnit(w) < p) << "word " << w;
        }
    }
    // Random rates across the binades, their exact powers of two (where
    // the gap to the double below halves) and rates close under 1: the
    // cut is the first word whose uniform() reaches p.
    Rng meta(77);
    for (int i = 0; i < 20000; ++i) {
        int k = meta.uniformInt(70);
        double p = std::ldexp(1.0 + meta.uniform(), -2 - k);
        if (i % 4 == 1)
            p = std::ldexp(1.0, -1 - k);
        if (i % 4 == 2)
            p = 1.0 - std::ldexp(1.0 + meta.uniform(), -2 - k % 52);
        const BernoulliCut c = Rng::bernoulliCut(p);
        ASSERT_FALSE(c.always) << p;
        ASSERT_GT(c.below, 0u) << p;
        ASSERT_LT(Rng::toUnit(c.below - 1), p) << p;
        ASSERT_GE(Rng::toUnit(c.below), p) << p;
    }
    static_assert(Rng::bernoulliCut(0.5).below == (1ull << 63) - 512);
    EXPECT_EQ(Rng::bernoulliCut(0x1p-64).below, 1u);
    EXPECT_EQ(Rng::bernoulliCut(below_one).below, ~0ull - 3070);
    EXPECT_FALSE(Rng::bernoulliCut(below_one).always);
    EXPECT_TRUE(Rng::bernoulliCut(1.0).always);
    EXPECT_FALSE(Rng::bernoulliCut(std::nan("")).admits(0));
    EXPECT_FALSE(Rng::bernoulliCut(-1.0).admits(0));

    // The draw consumes exactly one word, as bernoulli(p) does.
    Rng a(31), b(31);
    const BernoulliCut c = Rng::bernoulliCut(0.3);
    for (int i = 0; i < 100000; ++i)
        ASSERT_EQ(a.bernoulli(0.3), b.bernoulli(c)) << i;
    EXPECT_EQ(a.engine()(), b.engine()());
}

/** The skip-sampled MagmaGa::mutate draws the same words, with the same
 * outcomes, as its gaps written as uniform() compares with (1 - rate)^k:
 * at the dyn/serve archive rate 0.05 and at a high rate, over 100K
 * children each. */
TEST(Rng, GapTableMutateMatchesCompareForm)
{
    using magma::opt::MagmaGa;
    using magma::sched::Mapping;
    const int genes = 12;
    const int accels = 4;
    const int trials = 2 * genes;
    for (double rate : {0.05, 0.7}) {
        SCOPED_TRACE(testing::Message() << "rate " << rate);
        Rng by_compare(5), by_table(5);
        const GeometricSkip skip(rate, trials);
        Rng init(9);
        const Mapping parent = Mapping::random(genes, accels, init);
        for (int child = 0; child < 100000; ++child) {
            Mapping want = parent, got = parent;
            for (int t = 0;; ++t) {
                const double u = by_compare.uniform();
                double all_fail = 1.0 - rate;
                for (int k = 0; k < trials && u < all_fail; ++k) {
                    ++t;
                    all_fail *= 1.0 - rate;
                }
                if (t >= trials)
                    break;
                if (t & 1)
                    want.priority[t >> 1] = by_compare.uniform();
                else
                    want.accelSel[t >> 1] = by_compare.uniformInt(accels);
            }
            MagmaGa::mutate(got, skip, accels, by_table);
            ASSERT_EQ(got, want) << "child " << child;
        }
        EXPECT_EQ(by_table.word(), by_compare.word());
    }
}

/** MAGMA's cut-form crossover gates and crossoverGen's fair coin draw
 * the same words, with the same outcomes, as the bernoulli(rate) form,
 * over 50K breeding steps. */
TEST(Rng, CutFormCrossoverGatesMatchBernoulliForm)
{
    using magma::opt::MagmaGa;
    using magma::sched::Mapping;
    const int genes = 12;
    const int accels = 4;
    const magma::opt::MagmaConfig cfg;
    const BernoulliCut gen_cut = Rng::bernoulliCut(cfg.crossoverGenRate);
    const BernoulliCut rg_cut = Rng::bernoulliCut(cfg.crossoverRgRate);
    const BernoulliCut accel_cut = Rng::bernoulliCut(cfg.crossoverAccelRate);
    Rng by_rate(17), by_cut(17), init(3);
    const Mapping dad = Mapping::random(genes, accels, init);
    const Mapping mom = Mapping::random(genes, accels, init);
    for (int pair = 0; pair < 50000; ++pair) {
        Mapping son_a = dad, daughter_a = mom;
        if (by_rate.bernoulli(cfg.crossoverGenRate)) {
            // crossoverGen with its coin drawn as bernoulli(0.5).
            int pivot = by_rate.uniformInt(genes);
            if (by_rate.bernoulli(0.5)) {
                for (int i = pivot; i < genes; ++i)
                    std::swap(son_a.accelSel[i], daughter_a.accelSel[i]);
            } else {
                for (int i = pivot; i < genes; ++i)
                    std::swap(son_a.priority[i], daughter_a.priority[i]);
            }
        }
        if (by_rate.bernoulli(cfg.crossoverRgRate))
            MagmaGa::crossoverRg(son_a, daughter_a, by_rate);
        if (by_rate.bernoulli(cfg.crossoverAccelRate))
            MagmaGa::crossoverAccel(son_a, mom, accels, by_rate);

        Mapping son_b = dad, daughter_b = mom;
        if (by_cut.bernoulli(gen_cut))
            MagmaGa::crossoverGen(son_b, daughter_b, by_cut);
        if (by_cut.bernoulli(rg_cut))
            MagmaGa::crossoverRg(son_b, daughter_b, by_cut);
        if (by_cut.bernoulli(accel_cut))
            MagmaGa::crossoverAccel(son_b, mom, accels, by_cut);

        ASSERT_EQ(son_b, son_a) << "pair " << pair;
        ASSERT_EQ(daughter_b, daughter_a) << "pair " << pair;
    }
    EXPECT_EQ(by_rate.engine()(), by_cut.engine()());
}

// ---------------------------------------------- CounterRng and Philox ---

/** Random123's known-answer vectors for Philox4x32-10 (counter, key,
 * output). */
TEST(Philox, KnownAnswerVectors)
{
    struct Kat {
        std::array<uint32_t, 4> ctr;
        std::array<uint32_t, 2> key;
        std::array<uint32_t, 4> out;
    };
    const Kat kats[] = {
        {{0, 0, 0, 0}, {0, 0},
         {0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}},
        {{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
         {0xffffffff, 0xffffffff},
         {0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}},
        {{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
         {0xa4093822, 0x299f31d0},
         {0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}},
    };
    for (const Kat& k : kats)
        EXPECT_EQ(philox4x32(k.ctr, k.key), k.out);
    static_assert(philox4x32({0, 0, 0, 0}, {0, 0})[0] == 0x6627e8d5);
}

/** A stream's words are the Philox blocks of its counters, low lane in
 * the low half; streams are pure functions of their keys. */
TEST(CounterRng, WordsAreThePhiloxBlocksOfTheStream)
{
    const uint64_t key = 0x299f31d0a4093822ull;
    CounterRng rng(key, 0x0123456789abcdefull, 7);
    for (uint32_t block = 0; block < 4; ++block) {
        const std::array<uint32_t, 4> r = philox4x32(
            {block, 0x89abcdef, 0x01234567, 7}, {0xa4093822, 0x299f31d0});
        EXPECT_EQ(rng.word(), uint64_t{r[1]} << 32 | r[0]);
        EXPECT_EQ(rng.word(), uint64_t{r[3]} << 32 | r[2]);
    }
    CounterRng again(key, 0x0123456789abcdefull, 7);
    CounterRng other_sub(key, 0x0123456789abcdefull, 8);
    CounterRng other_stream(key, 0x0123456789abcdeeull, 7);
    const uint64_t first = again.word();
    EXPECT_NE(first, other_sub.word());
    EXPECT_NE(first, other_stream.word());
}

/** uniformInt covers [0, n) evenly (n = 3 and 100, 300K draws each,
 * within 5 sigma per bucket) and handles n = 1 and a large n. */
TEST(CounterRng, UniformIntIsInRangeAndEven)
{
    for (int n : {3, 100}) {
        CounterRng rng(11, 5, static_cast<uint32_t>(n));
        std::vector<int> hits(n);
        const int draws = 300000;
        for (int i = 0; i < draws; ++i) {
            int v = rng.uniformInt(n);
            ASSERT_GE(v, 0);
            ASSERT_LT(v, n);
            ++hits[v];
        }
        const double p = 1.0 / n;
        const double sigma = std::sqrt(draws * p * (1 - p));
        for (int v = 0; v < n; ++v)
            EXPECT_NEAR(hits[v], draws * p, 5 * sigma) << "n " << n;
    }
    CounterRng rng(12, 0, 0);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(rng.uniformInt(1), 0);
        int v = rng.uniformInt(std::numeric_limits<int>::max());
        EXPECT_GE(v, 0);
    }
}

// ------------------------------------------------------- GeometricSkip ---

/** Gaps follow the geometric law: P(gap >= k) = (1 - p)^k within 5 sigma
 * over 200K words, saturating at span. */
TEST(GeometricSkip, GapsAreGeometric)
{
    const double p = 0.05;
    const int span = 40;
    GeometricSkip skip(p, span);
    EXPECT_EQ(skip.span(), span);
    Rng rng(21);
    const int draws = 200000;
    std::vector<int> at_least(span + 1);
    for (int i = 0; i < draws; ++i) {
        int gap = skip.gap(rng.word());
        ASSERT_GE(gap, 0);
        ASSERT_LE(gap, span);
        for (int k = 0; k <= gap; ++k)
            ++at_least[k];
    }
    EXPECT_EQ(at_least[0], draws);
    for (int k = 1; k <= span; ++k) {
        const double want = std::pow(1 - p, k);
        const double sigma = std::sqrt(draws * want * (1 - want));
        EXPECT_NEAR(at_least[k], draws * want, 5 * sigma) << "k " << k;
    }
}

/** The cuts are the Bernoulli cuts of the powers (1 - p)^k by repeated
 * multiplication; degenerate rates never or always succeed. */
TEST(GeometricSkip, CutsAndDegenerateRates)
{
    GeometricSkip skip(0.25, 8);
    double all_fail = 1.0;
    for (int k = 1; k <= 8; ++k) {
        all_fail *= 0.75;
        const BernoulliCut cut = Rng::bernoulliCut(all_fail);
        // The last word a cut admits has a gap of at least k, the first
        // one it rejects a gap below k.
        EXPECT_GE(skip.gap(cut.below - 1), k);
        EXPECT_LT(skip.gap(cut.below), k);
    }
    for (double never : {0.0, -1.0, std::nan("")}) {
        GeometricSkip s(never, 5);
        EXPECT_EQ(s.gap(0), 5);
        EXPECT_EQ(s.gap(~uint64_t{0}), 5);
    }
    for (double always : {1.0, 2.0}) {
        GeometricSkip s(always, 5);
        EXPECT_EQ(s.gap(0), 0);
        EXPECT_EQ(s.gap(~uint64_t{0}), 0);
    }
    EXPECT_EQ(GeometricSkip(0.5, 0).span(), 1);
}

// -------------------------------------------------------------- stats ----

TEST(Stats, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Stats, GeomeanIsBelowMeanForSpreadData)
{
    std::vector<double> xs = {1.0, 100.0};
    EXPECT_LT(geomean(xs), mean(xs));
}

TEST(Stats, StddevBasics)
{
    EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
                std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, MinMax)
{
    EXPECT_DOUBLE_EQ(minOf({3.0, -1.0, 2.0}), -1.0);
    EXPECT_DOUBLE_EQ(maxOf({3.0, -1.0, 2.0}), 3.0);
    EXPECT_TRUE(std::isinf(minOf({})));
    EXPECT_TRUE(std::isinf(maxOf({})));
}

TEST(Stats, MedianOddEven)
{
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, RunningStatMatchesBatch)
{
    std::vector<double> xs = {1.5, -2.0, 3.25, 0.0, 10.0, -7.5};
    RunningStat s;
    for (double x : xs)
        s.push(x);
    EXPECT_EQ(s.count(), xs.size());
    EXPECT_NEAR(s.mean(), mean(xs), 1e-12);
    EXPECT_NEAR(s.stddev(), stddev(xs), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), -7.5);
    EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(Stats, RunningStatEmpty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

// ---------------------------------------------------------------- csv ----

TEST(Csv, WritesHeaderAndRows)
{
    std::string path = "test_csv_out.csv";
    {
        CsvWriter w(path, {"a", "b"});
        ASSERT_TRUE(w.ok());
        w.row({"1", "x"});
        w.rowNumeric({2.5, 3.0});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,x");
    std::getline(in, line);
    EXPECT_EQ(line, "2.5,3");
    std::remove(path.c_str());
}

TEST(Csv, QuotesCellsWithSeparators)
{
    std::string path = "test_csv_quoted.csv";
    {
        CsvWriter w(path, {"case", "gflops"});
        w.row({"(a) Vision, S2, BW=16", "1.5"});
        w.row({"say \"hi\"", "two\nlines"});
        w.row({"plain", ""});
    }
    std::ifstream in(path);
    std::stringstream all;
    all << in.rdbuf();
    EXPECT_EQ(all.str(), "case,gflops\n"
                         "\"(a) Vision, S2, BW=16\",1.5\n"
                         "\"say \"\"hi\"\"\",\"two\nlines\"\n"
                         "plain,\n");
    std::remove(path.c_str());
}

TEST(Csv, NumFormatsCompactly)
{
    EXPECT_EQ(CsvWriter::num(2.0), "2");
    EXPECT_EQ(CsvWriter::num(0.5), "0.5");
}

// ------------------------------------------------------------- matrix ----

TEST(Matrix, IdentityMultiplyIsNoop)
{
    Matrix a(2, 2);
    a.at(0, 0) = 1.0;
    a.at(0, 1) = 2.0;
    a.at(1, 0) = 3.0;
    a.at(1, 1) = 4.0;
    Matrix r = a.multiply(Matrix::identity(2));
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 2; ++j)
            EXPECT_DOUBLE_EQ(r.at(i, j), a.at(i, j));
}

TEST(Matrix, MultiplyKnownProduct)
{
    Matrix a(2, 3), b(3, 2);
    int v = 1;
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 3; ++j)
            a.at(i, j) = v++;
    v = 1;
    for (size_t i = 0; i < 3; ++i)
        for (size_t j = 0; j < 2; ++j)
            b.at(i, j) = v++;
    Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 22.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 28.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 49.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 64.0);
}

TEST(Matrix, MatVec)
{
    Matrix a(2, 2);
    a.at(0, 0) = 1.0;
    a.at(0, 1) = -1.0;
    a.at(1, 0) = 2.0;
    a.at(1, 1) = 0.5;
    std::vector<double> y = a.multiply(std::vector<double>{2.0, 4.0});
    EXPECT_DOUBLE_EQ(y[0], -2.0);
    EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Matrix, Scale)
{
    Matrix a(1, 2, 2.0);
    a.scale(2.0);
    EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
    EXPECT_DOUBLE_EQ(a.at(0, 1), 4.0);
}

TEST(Jacobi, DiagonalMatrixEigen)
{
    Matrix a(3, 3, 0.0);
    a.at(0, 0) = 3.0;
    a.at(1, 1) = 1.0;
    a.at(2, 2) = 2.0;
    EigenSym e = jacobiEigenSym(a);
    EXPECT_NEAR(e.eigenvalues[0], 3.0, 1e-10);
    EXPECT_NEAR(e.eigenvalues[1], 2.0, 1e-10);
    EXPECT_NEAR(e.eigenvalues[2], 1.0, 1e-10);
}

TEST(Jacobi, KnownSymmetricMatrix)
{
    // [[2,1],[1,2]] has eigenvalues 3 and 1.
    Matrix a(2, 2);
    a.at(0, 0) = 2.0;
    a.at(0, 1) = 1.0;
    a.at(1, 0) = 1.0;
    a.at(1, 1) = 2.0;
    EigenSym e = jacobiEigenSym(a);
    EXPECT_NEAR(e.eigenvalues[0], 3.0, 1e-10);
    EXPECT_NEAR(e.eigenvalues[1], 1.0, 1e-10);
    // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
    double v0 = e.eigenvectors.at(0, 0);
    double v1 = e.eigenvectors.at(1, 0);
    EXPECT_NEAR(std::abs(v0), 1.0 / std::sqrt(2.0), 1e-8);
    EXPECT_NEAR(v0, v1, 1e-8);
}

TEST(Jacobi, ReconstructsRandomSymmetricMatrix)
{
    Rng rng(13);
    const size_t n = 8;
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i; j < n; ++j) {
            a.at(i, j) = rng.gauss();
            a.at(j, i) = a.at(i, j);
        }
    EigenSym e = jacobiEigenSym(a);
    // A == V diag(l) V^T
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (size_t k = 0; k < n; ++k)
                acc += e.eigenvectors.at(i, k) * e.eigenvalues[k] *
                       e.eigenvectors.at(j, k);
            EXPECT_NEAR(acc, a.at(i, j), 1e-8);
        }
    }
}

TEST(Jacobi, EigenvectorsOrthonormal)
{
    Rng rng(14);
    const size_t n = 6;
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i; j < n; ++j) {
            a.at(i, j) = rng.uniform();
            a.at(j, i) = a.at(i, j);
        }
    EigenSym e = jacobiEigenSym(a);
    for (size_t c1 = 0; c1 < n; ++c1)
        for (size_t c2 = 0; c2 < n; ++c2) {
            double dot = 0.0;
            for (size_t i = 0; i < n; ++i)
                dot += e.eigenvectors.at(i, c1) * e.eigenvectors.at(i, c2);
            EXPECT_NEAR(dot, c1 == c2 ? 1.0 : 0.0, 1e-8);
        }
}

// ---------------------------------------------------------------- pca ----

TEST(Pca, RecoversDominantDirection)
{
    // Points spread along (1,1)/sqrt(2) with small noise orthogonally.
    Rng rng(15);
    std::vector<std::vector<double>> xs;
    for (int i = 0; i < 500; ++i) {
        double t = rng.gauss() * 10.0;
        double n = rng.gauss() * 0.1;
        xs.push_back({t + n, t - n});
    }
    Pca pca;
    pca.fit(xs, 2);
    EXPECT_GT(pca.explainedVarianceRatio()[0], 0.99);
    // First component aligned with (1,1)/sqrt(2): transformed coordinate of
    // (1,1) has magnitude ~sqrt(2), second ~0.
    std::vector<double> p = pca.transform({1.0, 1.0});
    std::vector<double> q = pca.transform({0.0, 0.0});
    EXPECT_NEAR(std::abs(p[0] - q[0]), std::sqrt(2.0), 1e-2);
    EXPECT_NEAR(std::abs(p[1] - q[1]), 0.0, 5e-2);
}

TEST(Pca, TransformBatchMatchesSingle)
{
    Rng rng(16);
    std::vector<std::vector<double>> xs;
    for (int i = 0; i < 50; ++i)
        xs.push_back({rng.gauss(), rng.gauss(), rng.gauss()});
    Pca pca;
    pca.fit(xs, 2);
    auto batch = pca.transform(xs);
    for (size_t i = 0; i < xs.size(); ++i) {
        auto single = pca.transform(xs[i]);
        EXPECT_DOUBLE_EQ(batch[i][0], single[0]);
        EXPECT_DOUBLE_EQ(batch[i][1], single[1]);
    }
}

TEST(Pca, ExplainedVarianceSumsToAtMostOne)
{
    Rng rng(17);
    std::vector<std::vector<double>> xs;
    for (int i = 0; i < 100; ++i)
        xs.push_back({rng.gauss(), 2.0 * rng.gauss(), 0.5 * rng.gauss(),
                      rng.gauss()});
    Pca pca;
    pca.fit(xs, 3);
    double sum = 0.0;
    for (double r : pca.explainedVarianceRatio()) {
        EXPECT_GE(r, 0.0);
        sum += r;
    }
    EXPECT_LE(sum, 1.0 + 1e-9);
}
