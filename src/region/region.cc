#include "region/region.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "eventlog/eventlog.hh"
#include "prof/prof.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{

namespace
{

/** Telemetry handles of the region hot path (one lookup ever). */
struct RegionTelemetry
{
    telemetry::Counter &merges =
        telemetry::metrics().counter("region.merges");
    telemetry::Counter &splits =
        telemetry::metrics().counter("region.splits");
    telemetry::Counter &epochs =
        telemetry::metrics().counter("region.epochs");
    telemetry::HistogramMetric &count =
        telemetry::metrics().histogram(
            "region.count",
            telemetry::FixedHistogram::linear(0, 4096, 16));
};

RegionTelemetry &
regionTelemetry()
{
    static RegionTelemetry telemetry;
    return telemetry;
}

void
emitAdaptation(eventlog::EventKind kind, std::size_t index,
               const Region &result, PageId partner_first, Cycle now)
{
    RAMP_OBS(Events, {
        eventlog::EventRecord record;
        record.kind = kind;
        record.policy = eventlog::PolicyId::RegionMigration;
        record.epoch = now;
        record.region = static_cast<std::uint32_t>(index);
        record.page = result.first;
        record.span = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(result.pages, UINT32_MAX));
        record.partner = partner_first;
        record.hotness = static_cast<float>(result.density());
        record.avf = static_cast<float>(result.avf);
        eventlog::emit(record);
    });
}

} // namespace

RegionMonitor::RegionMonitor(const RegionConfig &config)
    : config_(config)
{
    if (config_.minRegions == 0)
        config_.minRegions = 1;
    if (config_.maxRegions < config_.minRegions)
        ramp_fatal("region budget: maxRegions (", config_.maxRegions,
                   ") below minRegions (", config_.minRegions, ")");
    regions_.reserve(config_.maxRegions);
}

void
RegionMonitor::initFootprint(PageId first, std::uint64_t pages)
{
    if (pages == 0)
        ramp_fatal("region footprint must cover at least one page");
    regions_.clear();
    lastHit_ = 0;
    const std::uint64_t count = std::max<std::uint64_t>(
        1, std::min({config_.maxRegions, config_.minRegions * 2,
                     pages}));
    const std::uint64_t base = pages / count;
    const std::uint64_t extra = pages % count;
    PageId next = first;
    for (std::uint64_t i = 0; i < count; ++i) {
        Region region;
        region.first = next;
        region.pages = base + (i < extra ? 1 : 0);
        next = region.end();
        regions_.push_back(region);
    }
}

void
RegionMonitor::initFromProfile(const PageProfile &profile)
{
    regions_.clear();
    lastHit_ = 0;
    auto entries = profile.entries();
    if (entries.empty())
        return;
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    const std::uint64_t touched = entries.size();
    const std::uint64_t chunks =
        std::min<std::uint64_t>(config_.maxRegions, touched);
    const std::uint64_t base = touched / chunks;
    const std::uint64_t extra = touched % chunks;
    std::size_t cursor = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        const std::size_t take = base + (c < extra ? 1 : 0);
        Region region;
        region.first = entries[cursor].first;
        double avf_mass = 0;
        for (std::size_t i = 0; i < take; ++i) {
            const PageStats &stats = entries[cursor + i].second;
            region.reads += static_cast<double>(stats.reads);
            region.writes += static_cast<double>(stats.writes);
            avf_mass += stats.avf;
        }
        const PageId last = entries[cursor + take - 1].first;
        region.pages = last - region.first + 1;
        region.avf = avf_mass / static_cast<double>(region.pages);
        cursor += take;
        regions_.push_back(region);
    }
}

std::size_t
RegionMonitor::indexOf(PageId page) const
{
    // Branchless binary search for the last region whose first page
    // is <= `page`: this runs once per access that misses the
    // recency cache, and a data-dependent conditional move beats the
    // mispredicted branches of std::upper_bound on skewed streams.
    const std::size_t count = regions_.size();
    if (count == 0 || page < regions_.front().first)
        return npos;
    std::size_t base = 0;
    std::size_t len = count;
    while (len > 1) {
        const std::size_t half = len / 2;
        base += regions_[base + half].first <= page ? half : 0;
        len -= half;
    }
    return page < regions_[base].end() ? base : npos;
}

void
RegionMonitor::recordAccess(PageId page, bool is_write)
{
    if (regions_.empty()) {
        Region region;
        region.first = page;
        region.pages = 1;
        regions_.push_back(region);
        lastHit_ = 0;
    }

    // Recency cache: trace streams are strongly page-local, so most
    // lookups hit the same region as the previous access.
    if (lastHit_ < regions_.size()) {
        const Region &hit = regions_[lastHit_];
        if (page >= hit.first && page < hit.end()) {
            Region &region = regions_[lastHit_];
            if (is_write)
                ++region.epochWrites;
            else
                ++region.epochReads;
            return;
        }
    }

    std::size_t index = indexOf(page);
    if (index == npos) {
        // Outside the covered span (or in a seed gap): grow the
        // nearest region on the left, or the front region backward,
        // so coverage only ever expands and stays contiguous per
        // region.
        if (page < regions_.front().first) {
            Region &front = regions_.front();
            front.pages += front.first - page;
            front.first = page;
            index = 0;
        } else {
            const auto it = std::upper_bound(
                regions_.begin(), regions_.end(), page,
                [](PageId p, const Region &r) {
                    return p < r.first;
                });
            index = static_cast<std::size_t>(
                        it - regions_.begin()) - 1;
            Region &left = regions_[index];
            left.pages = page - left.first + 1;
        }
    }
    Region &region = regions_[index];
    if (is_write)
        ++region.epochWrites;
    else
        ++region.epochReads;
    lastHit_ = index;
}

double
RegionMonitor::meanDensity() const
{
    std::uint64_t pages = 0;
    double hotness = 0;
    for (const Region &region : regions_) {
        pages += region.pages;
        hotness += region.hotness();
    }
    return pages == 0 ? 0.0
                      : hotness / static_cast<double>(pages);
}

double
RegionMonitor::meanAvf() const
{
    std::uint64_t pages = 0;
    double mass = 0;
    for (const Region &region : regions_) {
        pages += region.pages;
        mass += region.avf * static_cast<double>(region.pages);
    }
    return pages == 0 ? 0.0 : mass / static_cast<double>(pages);
}

std::uint64_t
RegionMonitor::trackedBytes() const
{
    return config_.maxRegions * sizeof(Region);
}

void
RegionMonitor::mergePass(Cycle now)
{
    std::size_t i = 0;
    while (i + 1 < regions_.size() &&
           regions_.size() > config_.minRegions) {
        Region &a = regions_[i];
        const Region &b = regions_[i + 1];
        const double da = a.density();
        const double db = b.density();
        const double hi = std::max(da, db);
        const bool similar =
            hi <= 0.0 ||
            std::fabs(da - db) <= config_.mergeDensityDelta * hi;
        if (!similar) {
            ++i;
            continue;
        }
        const PageId absorbed_first = b.first;
        const std::uint64_t span = b.end() - a.first;
        // Aggregates sum; AVF mass (mean x pages) is conserved over
        // the widened span, so footprint-wide means are unchanged.
        a.avf = (a.avf * static_cast<double>(a.pages) +
                 b.avf * static_cast<double>(b.pages)) /
                static_cast<double>(span);
        a.pages = span;
        a.reads += b.reads;
        a.writes += b.writes;
        a.epochReads += b.epochReads;
        a.epochWrites += b.epochWrites;
        a.age = std::min(a.age, b.age);
        regions_.erase(regions_.begin() +
                       static_cast<std::ptrdiff_t>(i) + 1);
        ++merges_;
        if (config_.ledger)
            emitAdaptation(eventlog::EventKind::RegionMerge, i, a,
                           absorbed_first, now);
    }
}

void
RegionMonitor::splitRegion(std::size_t index, std::uint64_t lhs,
                           Cycle now)
{
    Region &left = regions_[index];
    const std::uint64_t total = left.pages;
    Region right;
    right.first = left.first + lhs;
    right.pages = total - lhs;
    // Apportion by page count; the remainder stays on the left
    // so epoch counts are conserved exactly.
    const auto take = [&](std::uint64_t count) {
        return count * lhs / total;
    };
    right.epochReads = left.epochReads - take(left.epochReads);
    right.epochWrites =
        left.epochWrites - take(left.epochWrites);
    left.epochReads -= right.epochReads;
    left.epochWrites -= right.epochWrites;
    const double share = static_cast<double>(lhs) /
                         static_cast<double>(total);
    const double lr = left.reads * share;
    const double lw = left.writes * share;
    right.reads = left.reads - lr;
    right.writes = left.writes - lw;
    left.reads = lr;
    left.writes = lw;
    right.avf = left.avf;
    left.pages = lhs;
    left.age = 0;
    right.age = 0;
    regions_.insert(regions_.begin() +
                        static_cast<std::ptrdiff_t>(index) + 1,
                    right);
    ++splits_;
    if (config_.ledger)
        emitAdaptation(eventlog::EventKind::RegionSplit, index,
                       regions_[index], right.first, now);
}

void
RegionMonitor::splitPass(Cycle now)
{
    // DAMON's adaptation: aim to double the region count each epoch
    // (bounded by the budget) and let the next merge pass re-join
    // halves that still behave alike — divergent halves drift apart.
    const std::uint64_t target = std::min<std::uint64_t>(
        config_.maxRegions,
        std::max<std::uint64_t>(config_.minRegions,
                                2 * regions_.size()));
    while (regions_.size() < target) {
        // Largest region first (lowest first page on ties): big
        // spans are where undetected divergence hides.
        std::size_t pick = npos;
        for (std::size_t i = 0; i < regions_.size(); ++i) {
            if (regions_[i].pages < 2)
                continue;
            if (pick == npos ||
                regions_[i].pages > regions_[pick].pages)
                pick = i;
        }
        if (pick == npos)
            break;
        splitRegion(pick, regions_[pick].pages / 2, now);
    }
}

bool
RegionMonitor::splitAt(PageId page, Cycle now)
{
    std::size_t index = indexOf(page);
    if (index == npos)
        return false;
    // Cleave off everything left of the page, then everything right
    // of it, budget permitting, so the struck page stands alone.
    if (page > regions_[index].first &&
        regions_.size() < config_.maxRegions) {
        splitRegion(index, page - regions_[index].first, now);
        ++index; // the page now heads the right half
    }
    if (regions_[index].pages >= 2 &&
        regions_[index].first == page &&
        regions_.size() < config_.maxRegions)
        splitRegion(index, 1, now);
    Region &struck = regions_[index];
    struck.avf = 1.0; // maximally risky to every scheme predicate
    struck.age = 0;
    return true;
}

void
RegionMonitor::endEpoch(Cycle now)
{
    ++epochs_;
    const std::uint64_t merges_before = merges_;
    const std::uint64_t splits_before = splits_;

    for (Region &region : regions_) {
        region.reads = config_.decay * region.reads +
                       static_cast<double>(region.epochReads);
        region.writes = config_.decay * region.writes +
                        static_cast<double>(region.epochWrites);
        ++region.age;
    }

    {
        RAMP_PROF_SCOPE(adapt_prof, "region.adapt");
        mergePass(now);
        splitPass(now);
    }

    for (Region &region : regions_) {
        region.epochReads = 0;
        region.epochWrites = 0;
    }
    lastHit_ = 0;

    RAMP_OBS(Telemetry, {
        auto &tel = regionTelemetry();
        tel.epochs.add(1);
        tel.merges.add(merges_ - merges_before);
        tel.splits.add(splits_ - splits_before);
        tel.count.observe(static_cast<double>(regions_.size()));
    });
}

} // namespace ramp
