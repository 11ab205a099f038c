#include "migration/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "eventlog/eventlog.hh"

namespace ramp
{

namespace
{

/** Ledger record pre-filled with a migration move's common fields. */
eventlog::EventRecord
moveRecord(eventlog::EventKind kind, eventlog::PolicyId policy,
           Cycle now, PageId page)
{
    eventlog::EventRecord record;
    record.kind = kind;
    record.policy = policy;
    record.epoch = now;
    record.page = page;
    switch (kind) {
      case eventlog::EventKind::Promote:
      case eventlog::EventKind::SwapIn:
        record.src = eventlog::Tier::Ddr;
        record.dst = eventlog::Tier::Hbm;
        break;
      default:
        record.src = eventlog::Tier::Hbm;
        record.dst = eventlog::Tier::Ddr;
        break;
    }
    return record;
}

} // namespace

void
MigrationEngine::beginRun(const PageIndex &pages)
{
    (void)pages;
}

Cycle
MigrationEngine::onSlotAccess(std::uint32_t slot, PageId page,
                              bool is_write, MemoryId mem)
{
    (void)slot;
    onAccess(page, is_write, mem);
    return remapPenalty(page);
}

void
MigrationEngine::claimRun()
{
    if (bound_ || tracked_)
        ramp_panic(name(), ": beginRun on an engine that already "
                   "tracked accesses; build one engine per run");
    bound_ = true;
}

void
MigrationEngine::notePageAccess()
{
    if (bound_)
        ramp_panic(name(), ": PageId access on an engine bound to a "
                   "run's page slots; build one engine per run");
    tracked_ = true;
}

Cycle
MigrationEngine::remapPenalty(PageId page)
{
    (void)page;
    return 0;
}

void
MigrationEngine::onFault(PageId page, bool uncorrected, Cycle now)
{
    (void)page;
    (void)uncorrected;
    (void)now;
}

// ---------------------------------------------------------------
// FullCounterMigration
// ---------------------------------------------------------------

FullCounterMigration::FullCounterMigration(Cycle interval_cycles,
                                           std::uint32_t cap_pages)
    : interval_(interval_cycles), capPages_(cap_pages)
{
    if (interval_cycles == 0 || cap_pages == 0)
        ramp_fatal("migration interval and cap must be positive");
}

void
FullCounterMigration::beginRun(const PageIndex &pages)
{
    claimRun();
    counters_.bind(pages);
}

void
FullCounterMigration::onAccess(PageId page, bool is_write,
                               MemoryId mem)
{
    (void)mem;
    notePageAccess();
    counters_.onAccess(page, is_write);
}

// ---------------------------------------------------------------
// PerfFocusedMigration
// ---------------------------------------------------------------

MigrationDecision
PerfFocusedMigration::onInterval(Cycle now, const PlacementMap &map)
{
    (void)now;
    MigrationDecision decision;
    const double mean = counters_.meanHotness();

    // Hot DDR pages above the dynamic mean threshold are candidates
    // for promotion (Section 6.1, "Hotness Threshold").
    std::vector<std::pair<PageId, std::uint32_t>> candidates;
    for (const auto &[page, counts] : counters_.touched()) {
        if (map.memoryOf(page) == MemoryId::DDR &&
            static_cast<double>(counts.hotness()) > mean &&
            !map.isPinned(page))
            candidates.emplace_back(page, counts.hotness());
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });

    // HBM victims: coldest first (untouched pages count zero).
    std::vector<std::pair<PageId, std::uint32_t>> victims;
    for (const PageId page : map.hbmPages()) {
        if (!map.isPinned(page))
            victims.emplace_back(page,
                                 counters_.countsOf(page).hotness());
    }
    std::sort(victims.begin(), victims.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second < b.second;
                  return a.first < b.first;
              });

    std::size_t candidate_idx = 0;
    std::uint64_t free_frames = map.hbmFreePages();
    while (candidate_idx < candidates.size() && free_frames > 0 &&
           decision.pagesMoved() < capPages_) {
        decision.promotions.push_back(
            candidates[candidate_idx++].first);
        --free_frames;
    }
    for (std::size_t v = 0;
         candidate_idx < candidates.size() && v < victims.size() &&
         decision.pagesMoved() + 1 < capPages_;
         ++v, ++candidate_idx) {
        // Only exchange when the newcomer is genuinely hotter.
        if (candidates[candidate_idx].second <= victims[v].second)
            break;
        decision.swaps.emplace_back(victims[v].first,
                                    candidates[candidate_idx].first);
    }

    RAMP_OBS(Events, {
        using eventlog::EventKind;
        const auto policy = eventlog::PolicyId::PerfMigration;
        const auto thresh = static_cast<float>(mean);
        const auto scored = [&](EventKind kind, PageId page,
                                PageId partner) {
            auto record = moveRecord(kind, policy, now, page);
            record.partner = partner;
            const auto counts = counters_.countsOf(page);
            record.hotness = static_cast<float>(counts.hotness());
            record.wrRatio = static_cast<float>(counts.wrRatio());
            record.threshHot = thresh;
            eventlog::emit(record);
        };
        for (const PageId page : decision.promotions)
            scored(EventKind::Promote, page, invalidPage);
        for (const auto &[victim, incoming] : decision.swaps) {
            scored(EventKind::SwapOut, victim, incoming);
            scored(EventKind::SwapIn, incoming, victim);
        }
    });

    counters_.reset();
    return decision;
}

std::uint64_t
PerfFocusedMigration::hardwareCostBytes(std::uint64_t total_pages,
                                        std::uint64_t hbm_pages) const
{
    (void)hbm_pages;
    // One combined 8-bit counter per page in the system.
    return FullCounterTable::storageBytes(total_pages, 8, false);
}

// ---------------------------------------------------------------
// FcReliabilityMigration
// ---------------------------------------------------------------

MigrationDecision
FcReliabilityMigration::onInterval(Cycle now, const PlacementMap &map)
{
    (void)now;
    MigrationDecision decision;
    const double mean_hot = counters_.meanHotness();
    const double mean_wr = counters_.meanWrRatio();
    constexpr double riskMargin = 1.0;

    // A page is low-risk when its Wr ratio is above the interval
    // mean (many writes per read => short ACE intervals, 5.3).
    const auto low_risk = [&](const FullCounterTable::Counts &c) {
        return c.wrRatio() >= mean_wr;
    };
    const auto hot = [&](const FullCounterTable::Counts &c) {
        return static_cast<double>(c.hotness()) > mean_hot;
    };

    // Fill set: hot AND low-risk DDR pages, hottest first.
    std::vector<std::pair<PageId, std::uint32_t>> fills;
    for (const auto &[page, counts] : counters_.touched()) {
        if (map.memoryOf(page) == MemoryId::DDR && hot(counts) &&
            low_risk(counts) && !map.isPinned(page))
            fills.emplace_back(page, counts.hotness());
    }
    std::sort(fills.begin(), fills.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });

    // Evict set: HBM pages that are cold OR high-risk; order by
    // badness so the most exposed pages leave first. High-risk
    // pages leave even without a fill partner. The risk test uses a
    // clear margin below the mean so near-uniform populations (e.g.
    // cactusADM's grid functions) are not half-evicted every
    // interval by the mean split.
    struct Victim
    {
        PageId page;
        bool highRisk;
        std::uint32_t hotness;
    };
    std::vector<Victim> victims;
    for (const PageId page : map.hbmPages()) {
        if (map.isPinned(page))
            continue;
        const auto counts = counters_.countsOf(page);
        const bool risky = faulted_.count(page) != 0 ||
                           (counts.hotness() > 0 &&
                            counts.wrRatio() < riskMargin * mean_wr);
        const bool cold = !hot(counts);
        if (risky || cold)
            victims.push_back({page, risky, counts.hotness()});
    }
    std::sort(victims.begin(), victims.end(),
              [](const Victim &a, const Victim &b) {
                  if (a.highRisk != b.highRisk)
                      return a.highRisk > b.highRisk;
                  if (a.hotness != b.hotness)
                      return a.hotness < b.hotness;
                  return a.page < b.page;
              });

    std::size_t fill_idx = 0;
    std::uint64_t free_frames = map.hbmFreePages();
    while (fill_idx < fills.size() && free_frames > 0 &&
           decision.pagesMoved() < capPages_) {
        decision.promotions.push_back(fills[fill_idx++].first);
        --free_frames;
    }
    for (const auto &victim : victims) {
        if (decision.pagesMoved() + 1 >= capPages_)
            break;
        if (fill_idx < fills.size()) {
            decision.swaps.emplace_back(victim.page,
                                        fills[fill_idx++].first);
        } else if (victim.highRisk) {
            decision.evictions.push_back(victim.page);
        }
    }

    RAMP_OBS(Events, {
        using eventlog::EventKind;
        const auto policy = eventlog::PolicyId::FcMigration;
        const auto scored = [&](EventKind kind, PageId page,
                                PageId partner) {
            auto record = moveRecord(kind, policy, now, page);
            record.partner = partner;
            const auto counts = counters_.countsOf(page);
            record.hotness = static_cast<float>(counts.hotness());
            record.wrRatio = static_cast<float>(counts.wrRatio());
            record.quadrant =
                eventlog::quadrantOf(hot(counts), low_risk(counts));
            record.threshHot = static_cast<float>(mean_hot);
            record.threshRisk = static_cast<float>(mean_wr);
            eventlog::emit(record);
        };
        for (const PageId page : decision.promotions)
            scored(EventKind::Promote, page, invalidPage);
        for (const auto &[victim, incoming] : decision.swaps) {
            scored(EventKind::SwapOut, victim, incoming);
            scored(EventKind::SwapIn, incoming, victim);
        }
        for (const PageId page : decision.evictions)
            scored(EventKind::Evict, page, invalidPage);
    });

    counters_.reset();
    return decision;
}

void
FcReliabilityMigration::onFault(PageId page, bool uncorrected,
                                Cycle now)
{
    (void)uncorrected;
    (void)now;
    // Any strike — correctable burst or uncorrected — makes the
    // page permanently high-risk to the classifier.
    faulted_.insert(page);
}

std::uint64_t
FcReliabilityMigration::hardwareCostBytes(std::uint64_t total_pages,
                                          std::uint64_t hbm_pages) const
{
    (void)hbm_pages;
    // Split 8-bit read + 8-bit write counters per page (Section 6.3).
    return FullCounterTable::storageBytes(total_pages, 8, true);
}

// ---------------------------------------------------------------
// CrossCounterMigration
// ---------------------------------------------------------------

CrossCounterMigration::CrossCounterMigration(
    Cycle mea_interval_cycles, std::uint32_t fc_per_mea,
    std::size_t mea_entries, std::uint32_t promo_cap_pages,
    std::uint32_t fc_evict_cap_pages)
    : meaInterval_(mea_interval_cycles), fcPerMea_(fc_per_mea),
      promoCapPages_(promo_cap_pages),
      fcEvictCapPages_(fc_evict_cap_pages), mea_(mea_entries)
{
    if (mea_interval_cycles == 0 || fc_per_mea == 0)
        ramp_fatal("cross-counter intervals must be positive");
    if (promo_cap_pages == 0 || fc_evict_cap_pages == 0)
        ramp_fatal("cross-counter caps must be positive");
}

void
CrossCounterMigration::beginRun(const PageIndex &pages)
{
    claimRun();
    riskCounters_.bind(pages);
    remap_.bind(pages);
}

void
CrossCounterMigration::onAccess(PageId page, bool is_write,
                                MemoryId mem)
{
    notePageAccess();
    mea_.onAccess(page);
    if (mem == MemoryId::HBM)
        riskCounters_.onAccess(page, is_write);
}

Cycle
CrossCounterMigration::remapPenalty(PageId page)
{
    notePageAccess();
    return remap_.lookup(page);
}

MigrationDecision
CrossCounterMigration::onInterval(Cycle now, const PlacementMap &map)
{
    (void)now;
    MigrationDecision decision;

    ++meaTick_;
    const bool fc_boundary = meaTick_ % fcPerMea_ == 0;

    if (fc_boundary) {
        // Reliability unit: classify HBM pages; high-risk and cold
        // pages leave HBM (coarse-grained risk mitigation).
        const double mean_hot = riskCounters_.meanHotness();
        const double mean_wr = riskCounters_.meanWrRatio();
        pendingEvictions_.clear();
        for (const PageId page : map.hbmPages()) {
            if (map.isPinned(page) || promotedThisRound_.count(page))
                continue;
            const auto counts = riskCounters_.countsOf(page);
            constexpr double riskMargin = 0.5;
            const bool risky =
                faulted_.count(page) != 0 ||
                (counts.hotness() > 0 &&
                 counts.wrRatio() < riskMargin * mean_wr);
            const bool cold =
                static_cast<double>(counts.hotness()) <= mean_hot;
            if (risky &&
                decision.evictions.size() < fcEvictCapPages_) {
                decision.evictions.push_back(page);
                RAMP_OBS(Events, {
                    auto record = moveRecord(
                        eventlog::EventKind::Evict,
                        eventlog::PolicyId::CcMigration, now, page);
                    record.hotness =
                        static_cast<float>(counts.hotness());
                    record.wrRatio =
                        static_cast<float>(counts.wrRatio());
                    record.quadrant = eventlog::quadrantOf(
                        !cold, !risky);
                    record.threshHot =
                        static_cast<float>(mean_hot);
                    record.threshRisk =
                        static_cast<float>(riskMargin * mean_wr);
                    eventlog::emit(record);
                });
            } else if (cold || risky)
                pendingEvictions_.push_back(page);
        }
        riskCounters_.reset();
        promotedThisRound_.clear();
    }

    // Performance unit: promote up to the budget's worth of hot
    // DDR-resident pages every MEA interval. Victims come from the
    // reliability unit's pending list when one exists; otherwise the
    // unit keeps migrating (Section 6.4.3) by swapping against a
    // rotating HBM slot, MemPod-style.
    std::uint64_t free_frames =
        map.hbmFreePages() + decision.evictions.size();
    std::uint32_t promoted = 0;
    std::vector<PageId> rotation;
    // Pages already leaving HBM this boundary must not be reused as
    // swap victims; the pending list may also hold stale entries
    // from an earlier boundary (pages that have left HBM since).
    std::unordered_set<PageId> used(decision.evictions.begin(),
                                    decision.evictions.end());
    auto pending_victim = [&]() {
        while (!pendingEvictions_.empty()) {
            const PageId candidate = pendingEvictions_.back();
            pendingEvictions_.pop_back();
            if (map.memoryOf(candidate) == MemoryId::HBM &&
                !map.isPinned(candidate) && !used.count(candidate) &&
                !promotedThisRound_.count(candidate))
                return candidate;
        }
        return invalidPage;
    };
    for (const PageId page : mea_.hotPages()) {
        if (promoted >= promoCapPages_)
            break;
        if (map.memoryOf(page) != MemoryId::DDR || map.isPinned(page))
            continue;
        PageId pending = invalidPage;
        if (free_frames > 0) {
            decision.promotions.push_back(page);
            --free_frames;
            RAMP_OBS(Events, {
                // MEA tracks recency, not counts: the promoted
                // page's hotness is genuinely unmeasured.
                eventlog::emit(moveRecord(
                    eventlog::EventKind::Promote,
                    eventlog::PolicyId::CcMigration, now, page));
            });
        } else if ((pending = pending_victim()) != invalidPage) {
            decision.swaps.emplace_back(pending, page);
            used.insert(pending);
            RAMP_OBS(Events, {
                auto out = moveRecord(
                    eventlog::EventKind::SwapOut,
                    eventlog::PolicyId::CcMigration, now, pending);
                out.partner = page;
                out.hotness = static_cast<float>(
                    riskCounters_.countsOf(pending).hotness());
                eventlog::emit(out);
                auto in = moveRecord(
                    eventlog::EventKind::SwapIn,
                    eventlog::PolicyId::CcMigration, now, page);
                in.partner = pending;
                eventlog::emit(in);
            });
        } else {
            if (rotation.empty())
                rotation = map.hbmPages();
            // Sample a handful of rotating slots and evict the one
            // the risk counters have seen least — a cheap cold
            // estimate that avoids displacing known-hot pages.
            PageId victim = invalidPage;
            std::uint32_t victim_hotness = UINT32_MAX;
            std::size_t sampled = 0;
            for (std::size_t tries = 0;
                 tries < rotation.size() && sampled < 8; ++tries) {
                if (rotationCursor_ >= rotation.size())
                    rotationCursor_ = 0;
                const PageId candidate =
                    rotation[rotationCursor_++];
                if (map.isPinned(candidate) ||
                    used.count(candidate) ||
                    map.memoryOf(candidate) != MemoryId::HBM ||
                    promotedThisRound_.count(candidate))
                    continue;
                ++sampled;
                const std::uint32_t hotness =
                    riskCounters_.countsOf(candidate).hotness();
                if (hotness < victim_hotness) {
                    victim = candidate;
                    victim_hotness = hotness;
                }
                if (hotness == 0)
                    break; // cannot do better than untouched
            }
            if (victim == invalidPage)
                break; // every slot pinned or freshly promoted
            decision.swaps.emplace_back(victim, page);
            used.insert(victim);
            RAMP_OBS(Events, {
                auto out = moveRecord(
                    eventlog::EventKind::SwapOut,
                    eventlog::PolicyId::CcMigration, now, victim);
                out.partner = page;
                out.hotness = static_cast<float>(victim_hotness);
                eventlog::emit(out);
                auto in = moveRecord(
                    eventlog::EventKind::SwapIn,
                    eventlog::PolicyId::CcMigration, now, page);
                in.partner = victim;
                eventlog::emit(in);
            });
        }
        promotedThisRound_.insert(page);
        ++promoted;
    }
    mea_.reset();
    return decision;
}

void
CrossCounterMigration::onFault(PageId page, bool uncorrected,
                               Cycle now)
{
    (void)uncorrected;
    (void)now;
    faulted_.insert(page);
}

std::uint64_t
CrossCounterMigration::hardwareCostBytes(std::uint64_t total_pages,
                                         std::uint64_t hbm_pages) const
{
    (void)total_pages;
    // Split 8-bit R/W risk counters for HBM pages only, the MEA map,
    // and the remap-table cache (Section 6.4.2: 512 KB + ~100 KB +
    // 64 KB = 676 KB at paper scale).
    const std::uint64_t mea_unit = 100 * 1024;
    return FullCounterTable::storageBytes(hbm_pages, 8, true) +
           mea_unit + RemapCache::storageBytes(8192);
}

} // namespace ramp
