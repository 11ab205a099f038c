#include "telemetry/registry.hh"

#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace ramp::telemetry
{

std::size_t
threadShard()
{
    // Threads are assigned round-robin shard slots on first use;
    // the pool's long-lived workers therefore land on distinct
    // stripes (modulo numShards) instead of hashing collisions.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) %
        numShards;
    return shard;
}

std::uint64_t
Counter::total() const
{
    std::uint64_t sum = 0;
    for (const auto &shard : shards_)
        sum += shard.value.load(std::memory_order_relaxed);
    return sum;
}

void
Counter::reset()
{
    for (auto &shard : shards_)
        shard.value.store(0, std::memory_order_relaxed);
}

HistogramMetric::HistogramMetric(FixedHistogram layout)
    : layout_(std::move(layout)),
      cells_(new ShardSlot[layout_.numBuckets() * numShards])
{
    layout_.reset(); // The layout carries edges, never counts.
}

FixedHistogram
HistogramMetric::snapshot() const
{
    FixedHistogram merged = layout_;
    for (std::size_t bucket = 0; bucket < merged.numBuckets();
         ++bucket) {
        std::uint64_t sum = 0;
        for (std::size_t shard = 0; shard < numShards; ++shard)
            sum += cells_[bucket * numShards + shard].value.load(
                std::memory_order_relaxed);
        merged.addToBucket(bucket, sum);
    }
    merged.widenRange(min_.load(std::memory_order_relaxed),
                      max_.load(std::memory_order_relaxed));
    return merged;
}

void
HistogramMetric::reset()
{
    const std::size_t cells = layout_.numBuckets() * numShards;
    for (std::size_t i = 0; i < cells; ++i)
        cells_[i].value.store(0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

std::uint64_t
MetricsSnapshot::counterOr(const std::string &name,
                           std::uint64_t fallback) const
{
    const auto it = counters.find(name);
    return it == counters.end() ? fallback : it->second;
}

double
MetricsSnapshot::histogramPercentile(const std::string &name,
                                     double q) const
{
    const auto it = histograms.find(name);
    return it == histograms.end()
               ? std::numeric_limits<double>::quiet_NaN()
               : it->second.percentile(q);
}

std::string
MetricsSnapshot::toJson(int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string in1 = pad + "  ";
    const std::string in2 = pad + "    ";
    std::ostringstream out;

    out << "{\n" << in1 << "\"counters\": {";
    bool first = true;
    for (const auto &[name, value] : counters) {
        out << (first ? "\n" : ",\n") << in2 << '"'
            << jsonEscape(name) << "\": " << value;
        first = false;
    }
    out << (first ? "" : "\n" + in1) << "},\n";

    out << in1 << "\"gauges\": {";
    first = true;
    for (const auto &[name, value] : gauges) {
        out << (first ? "\n" : ",\n") << in2 << '"'
            << jsonEscape(name) << "\": " << jsonNumber(value);
        first = false;
    }
    out << (first ? "" : "\n" + in1) << "},\n";

    out << in1 << "\"histograms\": {";
    first = true;
    for (const auto &[name, hist] : histograms) {
        out << (first ? "\n" : ",\n") << in2 << '"'
            << jsonEscape(name) << "\": {\"edges\": [";
        for (std::size_t i = 0; i < hist.edges().size(); ++i)
            out << (i > 0 ? ", " : "")
                << jsonNumber(hist.edges()[i]);
        out << "], \"counts\": [";
        for (std::size_t i = 0; i < hist.numBuckets(); ++i)
            out << (i > 0 ? ", " : "") << hist.bucketCount(i);
        out << "], \"total\": " << hist.total() << "}";
        first = false;
    }
    out << (first ? "" : "\n" + in1) << "}\n" << pad << "}";
    return out.str();
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (slot == nullptr)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (slot == nullptr)
        slot = std::make_unique<Gauge>();
    return *slot;
}

HistogramMetric &
MetricsRegistry::histogram(const std::string &name,
                           const FixedHistogram &layout)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (slot == nullptr)
        slot = std::make_unique<HistogramMetric>(layout);
    else if (!slot->layout().sameLayout(layout))
        ramp_panic("telemetry histogram '", name,
                   "' registered twice with different bucket "
                   "layouts");
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const auto &[name, counter] : counters_)
        snap.counters.emplace(name, counter->total());
    for (const auto &[name, gauge] : gauges_)
        snap.gauges.emplace(name, gauge->value());
    for (const auto &[name, hist] : histograms_)
        snap.histograms.emplace(name, hist->snapshot());
    return snap;
}

void
MetricsRegistry::resetValues()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_)
        counter->reset();
    for (const auto &[name, gauge] : gauges_)
        gauge->reset();
    for (const auto &[name, hist] : histograms_)
        hist->reset();
}

MetricsRegistry &
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace ramp::telemetry
