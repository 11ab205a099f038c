#include "region/engine.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "eventlog/eventlog.hh"

namespace ramp
{

RegionMigrationEngine::RegionMigrationEngine(
    Cycle interval_cycles, const RegionConfig &config,
    std::vector<RegionScheme> schemes)
    : interval_(interval_cycles), monitor_(config),
      schemes_(std::move(schemes))
{
    if (interval_cycles == 0)
        ramp_fatal("region engine needs a non-zero interval");
}

void
RegionMigrationEngine::seedFromProfile(const PageProfile &profile)
{
    monitor_.initFromProfile(profile);
}

void
RegionMigrationEngine::seedFootprint(PageId first,
                                     std::uint64_t pages)
{
    monitor_.initFootprint(first, pages);
}

void
RegionMigrationEngine::onAccess(PageId page, bool is_write,
                                MemoryId mem)
{
    (void)mem;
    monitor_.recordAccess(page, is_write);
}

MigrationDecision
RegionMigrationEngine::onInterval(Cycle now, const PlacementMap &map)
{
    monitor_.endEpoch(now);
    MigrationDecision decision;
    decision.regionOps = schemes_.evaluate(monitor_, map);
    return decision;
}

void
RegionMigrationEngine::onFault(PageId page, bool uncorrected,
                               Cycle now)
{
    (void)uncorrected;
    // Isolate the struck page into its own maximally-risky region so
    // highrisk/avf predicates act on it at page resolution instead
    // of smearing the risk over the whole covering span.
    monitor_.splitAt(page, now);
}

std::uint64_t
RegionMigrationEngine::hardwareCostBytes(std::uint64_t total_pages,
                                         std::uint64_t hbm_pages) const
{
    // Bounded by the region budget, not the footprint: that is the
    // whole point of the abstraction.
    (void)total_pages;
    (void)hbm_pages;
    return monitor_.trackedBytes();
}

std::vector<RegionScheme>
defaultRegionSchemes()
{
    // The paper's balanced quadrant policy, region-granular: claim
    // HBM for hot & low-risk spans, push risky spans out, and expire
    // spans that stayed cold for two epochs.
    RegionScheme promote;
    promote.action = RegionAction::Promote;
    promote.requireHot = true;
    promote.requireLowRisk = true;
    promote.quota = 4;

    RegionScheme evict_risky;
    evict_risky.action = RegionAction::Demote;
    evict_risky.requireHighRisk = true;
    evict_risky.quota = 4;

    RegionScheme expire_cold;
    expire_cold.action = RegionAction::Demote;
    expire_cold.requireCold = true;
    expire_cold.minAge = 2;
    expire_cold.quota = 4;

    return {promote, evict_risky, expire_cold};
}

PlacementMap
buildRegionStaticPlacement(StaticPolicy policy,
                           const PageProfile &profile,
                           const RegionConfig &config,
                           std::uint64_t hbm_capacity_pages)
{
    PlacementMap map(hbm_capacity_pages);
    if (policy == StaticPolicy::DdrOnly)
        return map;

    RegionMonitor monitor(config);
    monitor.initFromProfile(profile);
    const auto &regions = monitor.regions();

    // Fig 4 thresholds come from the page profile (not the region
    // set) so per-page regions classify exactly like the page
    // policies do.
    const double mean_hot = profile.meanHotness();
    const double mean_avf = profile.meanAvf();

    const auto metric = [&](const Region &r) -> double {
        switch (policy) {
          case StaticPolicy::PerfFocused: return r.density();
          case StaticPolicy::ReliabilityFocused: return 1.0 - r.avf;
          case StaticPolicy::Balanced: return r.density();
          case StaticPolicy::WrRatio: return r.wrRatio();
          case StaticPolicy::Wr2Ratio: return r.wr2Ratio();
          default: return 0.0;
        }
    };

    std::vector<std::size_t> order(regions.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (policy == StaticPolicy::Balanced) {
        // Hot & low-risk quadrant only; like the page policy, this
        // may leave the HBM underfilled.
        std::erase_if(order, [&](std::size_t i) {
            return regions[i].density() <= mean_hot ||
                   regions[i].avf > mean_avf;
        });
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const double ma = metric(regions[a]);
                  const double mb = metric(regions[b]);
                  if (ma != mb)
                      return ma > mb;
                  return regions[a].first < regions[b].first;
              });

    for (const std::size_t i : order) {
        if (map.hbmFreePages() == 0)
            break;
        const Region &region = regions[i];
        const std::uint64_t placed =
            map.placeRange(region.first, region.pages,
                           MemoryId::HBM);
        if (placed == 0)
            continue;
        if (config.ledger) {
            RAMP_OBS(Events, {
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Region;
                record.policy = eventlog::policyIdFromName(
                    policyName(policy));
                record.page = region.first;
                record.region = static_cast<std::uint32_t>(i);
                record.span = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(region.pages,
                                            UINT32_MAX));
                record.moved = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(placed, UINT32_MAX));
                record.detail = static_cast<std::uint8_t>(
                    RegionAction::Place);
                record.dst = eventlog::Tier::Hbm;
                record.hotness =
                    static_cast<float>(region.density());
                record.avf = static_cast<float>(region.avf);
                record.threshHot = static_cast<float>(mean_hot);
                record.threshRisk = static_cast<float>(mean_avf);
                eventlog::emit(record);
            });
        }
    }
    return map;
}

} // namespace ramp
