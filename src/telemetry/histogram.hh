/**
 * @file
 * Fixed-bucket histogram shared by the telemetry registry and the
 * bench binaries.
 *
 * One value type covers both uses: the registry wraps it with
 * sharded atomic bins for hot-path observation, and the figure
 * binaries bin page populations (write ratios, hotness shares) with
 * it directly instead of hand-rolling bucket arithmetic. Buckets
 * are defined by an explicit edge vector (edges[i], edges[i+1]) —
 * linear() builds the common equal-width layout — and samples
 * outside the range clamp to the end buckets, matching the
 * convention the paper's write-ratio figures use. The smallest and
 * largest samples are tracked too, and percentiles are clamped to
 * them, so a quantile is never a value no sample came near.
 */

#ifndef RAMP_TELEMETRY_HISTOGRAM_HH
#define RAMP_TELEMETRY_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ramp::telemetry
{

/** Value-type fixed-bucket histogram (bucket i is [edge i, edge i+1)). */
class FixedHistogram
{
  public:
    /** Build from explicit, strictly increasing edges (>= 2). */
    explicit FixedHistogram(std::vector<double> edges);

    /** Equal-width layout over [lo, hi) with `bins` buckets. */
    static FixedHistogram linear(double lo, double hi,
                                 std::size_t bins);

    /** Add a sample; out-of-range values clamp to the end buckets. */
    void add(double x, std::uint64_t count = 1);

    /** Bucket index a sample falls into (clamped). */
    std::size_t bucketOf(double x) const;

    /** Count in bucket i. */
    std::uint64_t bucketCount(std::size_t i) const
    {
        return counts_[i];
    }

    /** Number of buckets (edges() - 1). */
    std::size_t numBuckets() const { return counts_.size(); }

    /** Total samples added. */
    std::uint64_t total() const { return total_; }

    /** @{ @name Sample extremes (+inf / -inf while empty) */
    double min() const { return min_; }
    double max() const { return max_; }

    /**
     * Widen the extremes to cover [lo, hi]. For callers that fill
     * buckets through addToBucket() and track the extremes apart
     * (the sharded telemetry metric).
     */
    void widenRange(double lo, double hi);
    /** @} */

    /** Add `count` samples to bucket i without a sample value. */
    void addToBucket(std::size_t i, std::uint64_t count);

    /** Inclusive lower edge of bucket i. */
    double bucketLow(std::size_t i) const { return edges_[i]; }

    /** Exclusive upper edge of bucket i. */
    double bucketHigh(std::size_t i) const { return edges_[i + 1]; }

    /** The edge vector (numBuckets() + 1 entries). */
    const std::vector<double> &edges() const { return edges_; }

    /** Raw bucket counts, in bucket order. */
    const std::vector<std::uint64_t> &counts() const
    {
        return counts_;
    }

    /**
     * Value at quantile q in [0, 1], linearly interpolated inside
     * the bucket holding the q-th sample (the usual fixed-bucket
     * estimate: exact at bucket edges, linear between them), then
     * clamped to [min(), max()]. NaN when the histogram is empty —
     * an empty distribution has no quantiles, and emitters render
     * NaN as JSON null.
     */
    double percentile(double q) const;

    /** @{ @name Common latency quantiles (percentile shorthands) */
    double p50() const { return percentile(0.50); }
    double p95() const { return percentile(0.95); }
    double p99() const { return percentile(0.99); }
    /** @} */

    /**
     * Fold another histogram's counts into this one. The layouts
     * must match exactly (panics otherwise): merge is for shards
     * and per-workload partials of one metric, not unit conversion.
     */
    void merge(const FixedHistogram &other);

    /** True when the bucket edges are identical. */
    bool sameLayout(const FixedHistogram &other) const
    {
        return edges_ == other.edges_;
    }

    /** Zero every bucket and forget the extremes. */
    void reset();

  private:
    std::vector<double> edges_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace ramp::telemetry

#endif // RAMP_TELEMETRY_HISTOGRAM_HH
