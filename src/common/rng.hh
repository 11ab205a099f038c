/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component of RAMP (trace synthesis, FaultSim's
 * Monte-Carlo engine) draws from an explicitly seeded Rng so that every
 * experiment is exactly reproducible. The generator is xoshiro256**,
 * seeded through SplitMix64 per its authors' recommendation.
 */

#ifndef RAMP_COMMON_RNG_HH
#define RAMP_COMMON_RNG_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ramp
{

/**
 * One SplitMix64 step (Steele, Lea & Flood, 2014): advance `state`
 * by the golden gamma and return its finalized value. It seeds Rng,
 * draws the service's tenant streams, hashes tenants to shards and
 * derives per-task seeds.
 */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** xoshiro256** pseudo-random generator with convenience draws. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t nextRange(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p);

    /**
     * Poisson draw with the given mean.
     *
     * Uses Knuth multiplication for small means and a normal
     * approximation for large ones; adequate for FaultSim event counts.
     */
    std::uint64_t nextPoisson(double mean);

    /** Exponential draw with the given rate (mean 1/rate). */
    double nextExponential(double rate);

    /** Standard normal draw (Box-Muller). */
    double nextGaussian();

    /** Split off an independent stream (for per-core generators). */
    Rng split();

  private:
    std::uint64_t s_[4];
};

/**
 * Exact inverse CDF of a discrete distribution over [0, n).
 *
 * lookup(u) returns the smallest i with cdf(i) >= u, the index
 * std::lower_bound returns, in O(1) expected steps: a guide table
 * (Chen & Asau, 1974) of m >= n buckets holds, for bucket k, the first
 * index whose CDF is >= k / m. The lookup starts at u's bucket and
 * steps back or forward to the exact answer, so a bucket edge that
 * u * m rounds across, or a flat run of zero-weight entries, never
 * changes the result. The guide costs 4 B per entry.
 */
class CdfTable
{
  public:
    /**
     * Build from finite non-negative weights with a positive sum:
     * cdf(i) = (w[0] + ... + w[i]) / sum, and cdf(n - 1) is exactly 1.
     */
    explicit CdfTable(std::vector<double> weights);

    /** Smallest i with cdf(i) >= u, for u in [0, 1). */
    std::size_t
    lookup(double u) const
    {
        const auto bucket = static_cast<std::size_t>(u * scale_);
        std::size_t i = guide_[std::min(bucket, guide_.size() - 1)];
        while (i > 0 && cdf_[i - 1] >= u)
            --i;
        while (cdf_[i] < u)
            ++i;
        return i;
    }

    /** Number of entries n. */
    std::size_t size() const { return cdf_.size(); }

    /** Number of guide buckets m. */
    std::size_t buckets() const { return guide_.size(); }

    /** P(index <= i); nondecreasing, cdf(n - 1) == 1.0. */
    double cdf(std::size_t i) const { return cdf_[i]; }

  private:
    std::vector<double> cdf_;
    /** guide_[k] = first i with cdf_[i] >= k / m. */
    std::vector<std::uint32_t> guide_;
    /** m as a double, so a bucket is floor(u * scale_). */
    double scale_;
};

/**
 * Zipf-distributed integer sampler over [0, n).
 *
 * Rank r is drawn with probability proportional to 1 / (r + 1)^alpha.
 * An exact inverse-CDF guide table (CdfTable) gives O(1) expected
 * sampling; alpha = 0 degenerates to the uniform distribution. Used to
 * synthesise the skewed page-hotness populations the paper's placement
 * policies rely on.
 */
class ZipfSampler
{
  public:
    /** Build a sampler over n items with skew alpha >= 0. */
    ZipfSampler(std::uint64_t n, double alpha);

    /** Draw a rank in [0, n); rank 0 is the hottest. */
    std::uint64_t sample(Rng &rng) const;

    /** Number of items. */
    std::uint64_t size() const { return table_.size(); }

    /** Skew parameter. */
    double alpha() const { return alpha_; }

    /** Probability mass of a given rank. */
    double probability(std::uint64_t rank) const;

  private:
    double alpha_;
    CdfTable table_;
};

} // namespace ramp

#endif // RAMP_COMMON_RNG_HH
