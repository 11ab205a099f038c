#include "telemetry/histogram.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace ramp::telemetry
{

FixedHistogram::FixedHistogram(std::vector<double> edges)
    : edges_(std::move(edges))
{
    if (edges_.size() < 2)
        ramp_fatal("FixedHistogram needs at least two edges");
    for (std::size_t i = 1; i < edges_.size(); ++i)
        if (!(edges_[i] > edges_[i - 1]))
            ramp_fatal("FixedHistogram edges must be strictly "
                       "increasing");
    counts_.assign(edges_.size() - 1, 0);
}

FixedHistogram
FixedHistogram::linear(double lo, double hi, std::size_t bins)
{
    if (bins == 0)
        ramp_fatal("FixedHistogram needs at least one bucket");
    if (!(hi > lo))
        ramp_fatal("FixedHistogram range must be non-empty");
    std::vector<double> edges;
    edges.reserve(bins + 1);
    const double width = (hi - lo) / static_cast<double>(bins);
    for (std::size_t i = 0; i < bins; ++i)
        edges.push_back(lo + width * static_cast<double>(i));
    edges.push_back(hi); // Exact upper edge, no rounding drift.
    return FixedHistogram(std::move(edges));
}

std::size_t
FixedHistogram::bucketOf(double x) const
{
    // First edge greater than x starts the next bucket; clamp the
    // out-of-range tails onto the end buckets.
    const auto it =
        std::upper_bound(edges_.begin(), edges_.end(), x);
    const auto idx = it - edges_.begin();
    if (idx <= 0)
        return 0;
    return std::min<std::size_t>(static_cast<std::size_t>(idx - 1),
                                 counts_.size() - 1);
}

void
FixedHistogram::add(double x, std::uint64_t count)
{
    addToBucket(bucketOf(x), count);
    if (count > 0)
        widenRange(x, x);
}

void
FixedHistogram::addToBucket(std::size_t i, std::uint64_t count)
{
    counts_[i] += count;
    total_ += count;
}

void
FixedHistogram::widenRange(double lo, double hi)
{
    min_ = std::min(min_, lo);
    max_ = std::max(max_, hi);
}

double
FixedHistogram::percentile(double q) const
{
    if (total_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    q = std::clamp(q, 0.0, 1.0);
    // No sample lies outside [min, max] (infinite when a caller
    // filled buckets without a range), so neither may a quantile.
    const auto clamped = [&](double value) {
        return min_ <= max_ ? std::clamp(value, min_, max_) : value;
    };
    // The continuous rank the quantile lands on; walk the
    // cumulative counts to the bucket containing it.
    const double target = q * static_cast<double>(total_);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        const double before = static_cast<double>(cumulative);
        cumulative += counts_[i];
        if (static_cast<double>(cumulative) < target)
            continue;
        const double fraction =
            (target - before) / static_cast<double>(counts_[i]);
        return clamped(edges_[i] + (edges_[i + 1] - edges_[i]) *
                                       std::clamp(fraction, 0.0, 1.0));
    }
    // All samples sit below the target rank only through rounding;
    // the quantile is the top of the last occupied bucket.
    for (std::size_t i = counts_.size(); i-- > 0;)
        if (counts_[i] != 0)
            return clamped(edges_[i + 1]);
    return std::numeric_limits<double>::quiet_NaN();
}

void
FixedHistogram::merge(const FixedHistogram &other)
{
    if (!sameLayout(other))
        ramp_panic("FixedHistogram::merge: bucket layouts differ");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    widenRange(other.min_, other.max_);
}

void
FixedHistogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

} // namespace ramp::telemetry
