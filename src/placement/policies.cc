#include "placement/policies.hh"

#include <algorithm>

#include "common/logging.hh"
#include "eventlog/eventlog.hh"

namespace ramp
{

const char *
policyName(StaticPolicy policy)
{
    switch (policy) {
      case StaticPolicy::DdrOnly: return "ddr-only";
      case StaticPolicy::PerfFocused: return "perf-focused";
      case StaticPolicy::ReliabilityFocused: return "rel-focused";
      case StaticPolicy::Balanced: return "balanced";
      case StaticPolicy::WrRatio: return "wr-ratio";
      case StaticPolicy::Wr2Ratio: return "wr2-ratio";
    }
    return "?";
}

namespace
{

/** Fill HBM from an ordered candidate list; the rest go to DDR. */
PlacementMap
fillFromOrder(const std::vector<std::pair<PageId, PageStats>> &order,
              const PageProfile &profile,
              std::uint64_t hbm_capacity_pages,
              std::uint64_t hbm_target_pages,
              eventlog::PolicyId policy)
{
    PlacementMap map(hbm_capacity_pages);
    // Quadrant thresholds are computed once up front so the ledger
    // branch costs nothing per page when recording is off.
    float mean_hot = 0.0F;
    float mean_avf = 0.0F;
    RAMP_OBS(Events, {
        mean_hot = static_cast<float>(profile.meanHotness());
        mean_avf = static_cast<float>(profile.meanAvf());
    });
    std::uint64_t placed = 0;
    for (const auto &[page, stats] : order) {
        if (placed >= hbm_target_pages)
            break;
        map.place(page, MemoryId::HBM);
        ++placed;
        RAMP_OBS(Events, {
            eventlog::EventRecord record;
            record.kind = eventlog::EventKind::Place;
            record.policy = policy;
            record.dst = eventlog::Tier::Hbm;
            record.page = page;
            record.hotness = static_cast<float>(stats.hotness());
            record.wrRatio = static_cast<float>(stats.wrRatio());
            record.avf = static_cast<float>(stats.avf);
            record.quadrant = eventlog::quadrantOf(
                record.hotness > mean_hot, record.avf <= mean_avf);
            record.threshHot = mean_hot;
            record.threshRisk = mean_avf;
            eventlog::emit(record);
        });
    }
    // Remaining pages default to DDR; no explicit placement needed,
    // but touch them so frames exist deterministically.
    return map;
}

} // namespace

PlacementMap
buildStaticPlacement(StaticPolicy policy, const PageProfile &profile,
                     std::uint64_t hbm_capacity_pages)
{
    switch (policy) {
      case StaticPolicy::DdrOnly:
        return PlacementMap(hbm_capacity_pages);

      case StaticPolicy::PerfFocused: {
        const auto order = profile.sortedByDescending(
            [](const PageStats &s) { return s.hotness(); });
        return fillFromOrder(order, profile, hbm_capacity_pages,
                             hbm_capacity_pages,
                             eventlog::PolicyId::PerfFocused);
      }

      case StaticPolicy::ReliabilityFocused: {
        // Ascending AVF == descending (1 - AVF).
        const auto order = profile.sortedByDescending(
            [](const PageStats &s) { return 1.0 - s.avf; });
        return fillFromOrder(order, profile, hbm_capacity_pages,
                             hbm_capacity_pages,
                             eventlog::PolicyId::RelFocused);
      }

      case StaticPolicy::Balanced: {
        const double mean_hot = profile.meanHotness();
        const double mean_avf = profile.meanAvf();
        auto order = profile.sortedByDescending(
            [](const PageStats &s) { return s.hotness(); });
        // Restrict to the hot & low-risk quadrant only; this policy
        // is deliberately conservative (Section 5.2) and may leave
        // HBM underfilled.
        std::erase_if(order, [&](const auto &entry) {
            return static_cast<double>(entry.second.hotness()) <=
                       mean_hot ||
                   entry.second.avf > mean_avf;
        });
        return fillFromOrder(order, profile, hbm_capacity_pages,
                             hbm_capacity_pages,
                             eventlog::PolicyId::Balanced);
      }

      case StaticPolicy::WrRatio: {
        const auto order = profile.sortedByDescending(
            [](const PageStats &s) { return s.wrRatio(); });
        return fillFromOrder(order, profile, hbm_capacity_pages,
                             hbm_capacity_pages,
                             eventlog::PolicyId::WrRatio);
      }

      case StaticPolicy::Wr2Ratio: {
        const auto order = profile.sortedByDescending(
            [](const PageStats &s) { return s.wr2Ratio(); });
        return fillFromOrder(order, profile, hbm_capacity_pages,
                             hbm_capacity_pages,
                             eventlog::PolicyId::Wr2Ratio);
      }
    }
    ramp_panic("unknown static policy");
}

PlacementMap
buildBalancedFilledPlacement(const PageProfile &profile,
                             std::uint64_t hbm_capacity_pages)
{
    const double mean_hot = profile.meanHotness();
    const double mean_avf = profile.meanAvf();
    auto order = profile.sortedByDescending(
        [](const PageStats &s) { return s.hotness(); });
    // Stable partition: quadrant pages keep hotness order up front,
    // everything else follows in hotness order.
    std::stable_partition(
        order.begin(), order.end(), [&](const auto &entry) {
            return static_cast<double>(entry.second.hotness()) >
                       mean_hot &&
                   entry.second.avf <= mean_avf;
        });
    return fillFromOrder(order, profile, hbm_capacity_pages,
                         hbm_capacity_pages,
                         eventlog::PolicyId::Balanced);
}

PlacementMap
buildHotFractionPlacement(const PageProfile &profile,
                          std::uint64_t hbm_capacity_pages,
                          double fraction)
{
    if (fraction < 0.0 || fraction > 1.0)
        ramp_fatal("hot fraction must be in [0, 1]");
    const auto order = profile.sortedByDescending(
        [](const PageStats &s) { return s.hotness(); });
    const auto target = static_cast<std::uint64_t>(
        fraction * static_cast<double>(hbm_capacity_pages));
    return fillFromOrder(order, profile, hbm_capacity_pages, target,
                         eventlog::PolicyId::HotFraction);
}

} // namespace ramp
