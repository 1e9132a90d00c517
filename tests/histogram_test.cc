/**
 * @file
 * Unit tests for the log-scale histogram.
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "stats/histogram.hh"

namespace hyperplane {
namespace stats {
namespace {

TEST(LogHistogram, QuantileRelativeErrorBounded)
{
    LogHistogram h(0.01, 1.02, 2048);
    Rng rng(2);
    std::vector<double> samples;
    for (int i = 0; i < 50000; ++i) {
        const double v = rng.exponential(100.0);
        samples.push_back(v);
        h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double exact =
            samples[static_cast<std::size_t>(q * (samples.size() - 1))];
        const double approx = h.quantile(q);
        EXPECT_NEAR(approx / exact, 1.0, 0.04)
            << "quantile " << q;
    }
}

TEST(LogHistogram, MeanExact)
{
    LogHistogram h;
    h.record(10);
    h.record(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(LogHistogram, CoversManyOrdersOfMagnitude)
{
    LogHistogram h(0.01, 1.02, 2048);
    h.record(0.05);
    h.recordN(5e6, 99);
    EXPECT_DOUBLE_EQ(h.min(), 0.05);
    EXPECT_DOUBLE_EQ(h.max(), 5e6);
    EXPECT_GT(h.quantile(0.99), 1e5);
}

TEST(LogHistogram, QuantileClampedToObservedRange)
{
    LogHistogram h;
    h.record(42.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 42.0);
}

TEST(LogHistogram, CdfMonotoneEndsAtOne)
{
    LogHistogram h(0.01, 1.02, 2048);
    Rng rng(3);
    for (int i = 0; i < 5000; ++i)
        h.record(rng.exponential(42.0));
    const auto cdf = h.cdf();
    ASSERT_FALSE(cdf.empty());
    double prevV = 0.0, prevF = 0.0;
    for (const auto &[v, f] : cdf) {
        EXPECT_GE(v, prevV);
        EXPECT_GE(f, prevF);
        prevV = v;
        prevF = f;
    }
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
    EXPECT_DOUBLE_EQ(cdf.back().first, h.max());
}

TEST(LogHistogram, ClearResets)
{
    LogHistogram h;
    h.record(1.0);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogramMerge, QuantilesMatchCombinedRecording)
{
    // Sharded recording + merge must be indistinguishable from
    // recording everything into one histogram: bin addition is exact.
    LogHistogram a(100.0, 1.05, 512);
    LogHistogram b(100.0, 1.05, 512);
    LogHistogram combined(100.0, 1.05, 512);
    Rng rng(17);
    for (int i = 0; i < 20000; ++i) {
        const double v = rng.exponential(5000.0) + 100.0;
        (i % 3 == 0 ? a : b).record(v);
        combined.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
    EXPECT_DOUBLE_EQ(a.min(), combined.min());
    EXPECT_DOUBLE_EQ(a.max(), combined.max());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q))
            << "q=" << q;
    }
}

TEST(LogHistogramMerge, EmptyOperandsAreNeutral)
{
    LogHistogram a(100.0, 1.05, 64);
    LogHistogram empty(100.0, 1.05, 64);
    a.merge(empty); // empty into empty
    EXPECT_EQ(a.count(), 0u);

    a.record(250.0);
    a.merge(empty); // empty into populated: no-op
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.min(), 250.0);
    EXPECT_DOUBLE_EQ(a.max(), 250.0);

    LogHistogram c(100.0, 1.05, 64);
    c.merge(a); // populated into empty: adopts min/max
    EXPECT_EQ(c.count(), 1u);
    EXPECT_DOUBLE_EQ(c.min(), 250.0);
    EXPECT_DOUBLE_EQ(c.max(), 250.0);
}

TEST(LogHistogramMerge, FromPartsRoundTripsThenMerges)
{
    LogHistogram src(200.0, 1.05, 128);
    std::vector<double> samples;
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        samples.push_back(rng.exponential(3000.0) + 200.0);
        src.record(samples.back());
    }

    LogHistogram copy = LogHistogram::fromParts(
        src.base(), src.growth(), src.bins(), src.sum(), src.min(),
        src.max());
    EXPECT_EQ(copy.count(), src.count());
    EXPECT_DOUBLE_EQ(copy.quantile(0.99), src.quantile(0.99));

    // The merge contract: bin-identical to one histogram that recorded
    // the stream twice (quantile rank rounding shifts with the count,
    // so self-merge is NOT expected to leave quantiles bit-identical).
    LogHistogram twice(200.0, 1.05, 128);
    for (const double v : samples) {
        twice.record(v);
        twice.record(v);
    }
    copy.merge(src);
    EXPECT_EQ(copy.count(), 2 * src.count());
    // Summation order differs (merge adds totals, `twice` accumulates
    // per sample), so the sums agree to rounding, bins exactly.
    EXPECT_NEAR(copy.sum(), twice.sum(), 1e-9 * twice.sum());
    for (double q : {0.5, 0.99, 0.999})
        EXPECT_DOUBLE_EQ(copy.quantile(q), twice.quantile(q));
}

} // namespace
} // namespace stats
} // namespace hyperplane
