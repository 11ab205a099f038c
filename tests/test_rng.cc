/**
 * @file
 * Unit and property tests for the deterministic RNG and the Zipf
 * sampler (src/common/rng).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace ramp
{
namespace
{

// The reference SplitMix64 stream from state 0 (Steele, Lea & Flood).
// Rng seeding, the service's tenant streams and routing hash, and
// runner::taskSeed all draw from this one function.
TEST(SplitMix64, ReferenceValuesFromStateZero)
{
    std::uint64_t state = 0;
    EXPECT_EQ(splitMix64(state), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(splitMix64(state), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(splitMix64(state), 0x06c45d188009454fULL);
    EXPECT_EQ(state, 3 * 0x9e3779b97f4a7c15ULL);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, NextRangeStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextRange(bound), bound);
    }
}

TEST(Rng, NextRangeOfOneIsZero)
{
    Rng rng(9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.nextRange(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, NextDoubleMeanNearHalf)
{
    Rng rng(13);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(17);
    const int n = 100000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateProbabilities)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, PoissonMeanSmallLambda)
{
    Rng rng(23);
    const double lambda = 3.5;
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextPoisson(lambda));
    EXPECT_NEAR(sum / n, lambda, 0.1);
}

TEST(Rng, PoissonMeanLargeLambda)
{
    Rng rng(29);
    const double lambda = 120.0;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextPoisson(lambda));
    EXPECT_NEAR(sum / n, lambda, 1.0);
}

TEST(Rng, PoissonZeroMeanIsZero)
{
    Rng rng(31);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextPoisson(0.0), 0u);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(37);
    const double rate = 0.25;
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.1);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(41);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.nextGaussian();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(43);
    Rng child = parent.split();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (parent.next() == child.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(ZipfSampler, UniformWhenAlphaZero)
{
    ZipfSampler zipf(10, 0.0);
    Rng rng(47);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (const int count : counts)
        EXPECT_NEAR(static_cast<double>(count) / n, 0.1, 0.01);
}

TEST(ZipfSampler, ProbabilitiesSumToOne)
{
    ZipfSampler zipf(100, 0.8);
    double sum = 0;
    for (std::uint64_t r = 0; r < 100; ++r)
        sum += zipf.probability(r);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSampler, ProbabilityOutOfRangeIsZero)
{
    ZipfSampler zipf(10, 1.0);
    EXPECT_EQ(zipf.probability(10), 0.0);
    EXPECT_EQ(zipf.probability(1000), 0.0);
}

TEST(ZipfSampler, SingleItem)
{
    ZipfSampler zipf(1, 2.0);
    Rng rng(53);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

/**
 * Check CdfTable::lookup against std::lower_bound at every point where
 * an off-by-one could hide: each CDF entry and both its neighbours,
 * each bucket edge k / m and both its neighbours, 0 and the largest
 * double below 1. Returns "" or a description of the first mismatch.
 */
std::string
lookupMismatch(const CdfTable &table)
{
    std::vector<double> cdf(table.size());
    for (std::size_t i = 0; i < cdf.size(); ++i)
        cdf[i] = table.cdf(i);
    const double m = static_cast<double>(table.buckets());

    std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
    auto add = [&probes](double x) {
        probes.push_back(x);
        probes.push_back(std::nextafter(x, 0.0));
        probes.push_back(std::nextafter(x, 2.0));
    };
    for (const double value : cdf)
        add(value);
    for (std::size_t k = 0; k < table.buckets(); ++k)
        add(static_cast<double>(k) / m);

    for (const double u : probes) {
        if (!(u >= 0.0 && u < 1.0))
            continue;
        const auto expected = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const std::size_t got = table.lookup(u);
        if (got != expected) {
            std::ostringstream out;
            out << "u=" << std::hexfloat << u << " lookup " << got
                << " lower_bound " << expected;
            return out.str();
        }
    }
    return "";
}

/**
 * Weights whose prefix sums reproduce cdf exactly. Every entry must lie
 * in [0.5, 1] and the last must be 1, so each difference and each
 * running sum is exact (Sterbenz) and the table's cdf equals the input.
 */
std::vector<double>
weightsOf(const std::vector<double> &cdf)
{
    std::vector<double> weights(cdf.size());
    double prev = 0;
    for (std::size_t i = 0; i < cdf.size(); ++i) {
        weights[i] = cdf[i] - prev;
        prev = cdf[i];
    }
    return weights;
}

TEST(CdfTable, LookupEqualsLowerBoundOnZipfCdfs)
{
    for (const std::size_t n : {1, 2, 3, 41, 1024, 65536})
        for (const double alpha : {0.0, 0.2, 0.8, 1.5, 8.0}) {
            std::vector<double> weights(n);
            for (std::size_t i = 0; i < n; ++i)
                weights[i] =
                    1.0 / std::pow(static_cast<double>(i + 1), alpha);
            const CdfTable table(weights);
            ASSERT_EQ(table.size(), n);
            ASSERT_GE(table.buckets(), n);
            ASSERT_EQ(table.cdf(n - 1), 1.0);
            EXPECT_EQ(lookupMismatch(table), "")
                << "n=" << n << " alpha=" << alpha;
        }
}

TEST(CdfTable, LookupEqualsLowerBoundWithFlatSteps)
{
    // Zero weights make flat runs: at the start, in the middle, across
    // bucket edges and at the end (entries equal to 1.0).
    Rng rng(61);
    for (const std::size_t n : {4, 300, 1000, 4099}) {
        std::vector<double> weights(n);
        for (std::size_t i = 0; i < n; ++i)
            weights[i] = rng.nextBool(0.6) ? 0.0
                                           : 1.0 + rng.nextRange(4);
        weights[0] = 0.0;
        weights[n / 2] = 1.0;
        weights[n - 1] = 0.0;
        const CdfTable table(weights);
        EXPECT_EQ(lookupMismatch(table), "") << "n=" << n;
    }
}

TEST(CdfTable, LookupStepsBackAcrossARoundedBucketEdge)
{
    // With m = 300 buckets, u * m can round up to k for the double u
    // just below k / m. Put CDF entries exactly there (and on the edge
    // itself), so starting from bucket k overshoots the answer.
    const std::size_t n = 300;
    const double m = static_cast<double>(n);
    std::vector<double> cdf;
    std::size_t overshooting = 0;
    for (std::size_t k = n / 2 + 1; k < n; ++k) {
        const double edge = static_cast<double>(k) / m;
        const double below = std::nextafter(edge, 0.0);
        if (static_cast<std::size_t>(below * m) >= k)
            ++overshooting;
        cdf.push_back(below);
        cdf.push_back(edge);
    }
    ASSERT_GT(overshooting, 0u);
    cdf.resize(n, 1.0);
    const CdfTable table(weightsOf(cdf));
    ASSERT_EQ(table.buckets(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(table.cdf(i), cdf[i]) << i;
    EXPECT_EQ(lookupMismatch(table), "");
}

TEST(CdfTable, RejectsWeightsWithoutAPositiveSum)
{
    EXPECT_DEATH(CdfTable(std::vector<double>{}), "entries");
    EXPECT_DEATH(CdfTable(std::vector<double>{0.0, 0.0}), "positive");
    EXPECT_DEATH(CdfTable(std::vector<double>{1.0, -1.0}), "negative");
}

/** Property sweep: rank-0 mass matches theory across alphas. */
class ZipfAlphaTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfAlphaTest, HeadProbabilityMatchesTheory)
{
    const double alpha = GetParam();
    const std::uint64_t n = 50;
    ZipfSampler zipf(n, alpha);

    double denom = 0;
    for (std::uint64_t r = 1; r <= n; ++r)
        denom += 1.0 / std::pow(static_cast<double>(r), alpha);
    EXPECT_NEAR(zipf.probability(0), 1.0 / denom, 1e-9);

    Rng rng(59);
    const int samples = 200000;
    int head = 0;
    for (int i = 0; i < samples; ++i)
        head += zipf.sample(rng) == 0 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(head) / samples,
                zipf.probability(0), 0.01);
}

TEST_P(ZipfAlphaTest, RanksMonotonicallyLessLikely)
{
    ZipfSampler zipf(20, GetParam());
    for (std::uint64_t r = 1; r < 20; ++r)
        EXPECT_GE(zipf.probability(r - 1) + 1e-12,
                  zipf.probability(r));
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaTest,
                         ::testing::Values(0.0, 0.3, 0.8, 1.0, 1.5));

} // namespace
} // namespace ramp
