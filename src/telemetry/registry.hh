/**
 * @file
 * Metrics registry: named counters, gauges, and histograms.
 *
 * The hot path is one relaxed atomic add into a per-thread shard —
 * no locks, no shared cache line between threads. Counters and
 * histogram buckets are striped across `numShards` cache-line-
 * aligned slots indexed by a per-thread shard id; snapshot() merges
 * the shards into plain numbers. Because every mutation is an
 * unconditional add, the merged totals are exact and independent of
 * how work was scheduled across threads — a parallel campaign
 * snapshots the same metrics as a serial one.
 *
 * Metric objects live as long as the registry (the process):
 * call sites look a metric up once (function-local static reference)
 * and keep the handle. Lookup is mutex-protected; mutation is not.
 */

#ifndef RAMP_TELEMETRY_REGISTRY_HH
#define RAMP_TELEMETRY_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "telemetry/histogram.hh"

namespace ramp::telemetry
{

/** Shard stripes per metric; power of two. */
constexpr std::size_t numShards = 16;

/** Stable shard index of the calling thread. */
std::size_t threadShard();

/** One cache-line-aligned accumulator slot. */
struct alignas(64) ShardSlot
{
    std::atomic<std::uint64_t> value{0};
};

/** Monotonic event counter (sharded; add is a relaxed atomic add). */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        shards_[threadShard()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Sum over all shards (exact once writers are quiescent). */
    std::uint64_t total() const;

    /** Zero every shard (tests). */
    void reset();

  private:
    ShardSlot shards_[numShards];
};

/** Last-write-wins scalar (interval lengths, configured sizes). */
class Gauge
{
  public:
    void set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { set(0); }

  private:
    std::atomic<double> value_{0};
};

/**
 * Fixed-bucket histogram metric: the layout is immutable, each
 * bucket is a sharded counter, observe() is bucket lookup plus one
 * relaxed add, plus a compare-exchange on the rare sample that is a
 * new minimum or maximum.
 */
class HistogramMetric
{
  public:
    explicit HistogramMetric(FixedHistogram layout);

    void observe(double x, std::uint64_t count = 1)
    {
        const std::size_t cell =
            layout_.bucketOf(x) * numShards + threadShard();
        cells_[cell].value.fetch_add(count,
                                     std::memory_order_relaxed);
        if (count == 0)
            return;
        for (double lo = min_.load(std::memory_order_relaxed);
             x < lo && !min_.compare_exchange_weak(
                           lo, x, std::memory_order_relaxed);)
            ;
        for (double hi = max_.load(std::memory_order_relaxed);
             x > hi && !max_.compare_exchange_weak(
                           hi, x, std::memory_order_relaxed);)
            ;
    }

    /** The (empty) bucket layout this metric was built with. */
    const FixedHistogram &layout() const { return layout_; }

    /** Merge the shards into a plain histogram. */
    FixedHistogram snapshot() const;

    /** Zero every bucket (tests). */
    void reset();

  private:
    FixedHistogram layout_;
    std::unique_ptr<ShardSlot[]> cells_;
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/** Point-in-time merged view of every registered metric. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, FixedHistogram> histograms;

    /** Counter value, or `fallback` when never registered. */
    std::uint64_t counterOr(const std::string &name,
                            std::uint64_t fallback = 0) const;

    /**
     * Quantile of the named histogram (FixedHistogram::percentile);
     * NaN when the histogram was never registered or is empty.
     */
    double histogramPercentile(const std::string &name,
                               double q) const;

    /** Render as a JSON object (counters/gauges/histograms keys). */
    std::string toJson(int indent = 0) const;
};

/** Process-wide named-metric table. */
class MetricsRegistry
{
  public:
    /** The counter registered under `name` (created on demand). */
    Counter &counter(const std::string &name);

    /** The gauge registered under `name` (created on demand). */
    Gauge &gauge(const std::string &name);

    /**
     * The histogram registered under `name`, created with `layout`
     * on first use. A second registration with a different layout
     * is a bug (panics): one name means one bucketing.
     */
    HistogramMetric &histogram(const std::string &name,
                               const FixedHistogram &layout);

    /** Merge every metric into a snapshot (sorted by name). */
    MetricsSnapshot snapshot() const;

    /** Zero every registered metric, keeping handles valid. */
    void resetValues();

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::unique_ptr<Counter>>
        counters_;
    std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::unordered_map<std::string, std::unique_ptr<HistogramMetric>>
        histograms_;
};

/** The process-wide registry every instrumentation site uses. */
MetricsRegistry &metrics();

} // namespace ramp::telemetry

#endif // RAMP_TELEMETRY_REGISTRY_HH
