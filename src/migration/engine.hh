/**
 * @file
 * Dynamic migration engines (paper Section 6).
 *
 * Three schemes share one interface; the two Full-Counter schemes
 * also share FullCounterMigration, whose per-access hook is inline:
 *  - PerfFocusedMigration: Meswani-style interval migration on raw
 *    access counts with a dynamic mean-hotness threshold (6.1). This
 *    is the state-of-the-art baseline the reliability-aware schemes
 *    are normalised against.
 *  - FcReliabilityMigration: Full Counters split into read/write
 *    halves; HBM keeps pages that are hot AND low-risk (6.2).
 *  - CrossCounterMigration: MEA performance unit promoting a few hot
 *    pages every fine interval + a Full-Counter reliability unit
 *    evicting risky/cold HBM pages every coarse interval (6.4).
 */

#ifndef RAMP_MIGRATION_ENGINE_HH
#define RAMP_MIGRATION_ENGINE_HH

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "migration/counters.hh"
#include "placement/map.hh"

namespace ramp
{

/** Page moves an engine requests at an interval boundary. */
struct MigrationDecision
{
    /** (HBM victim, DDR fill) exchanges. */
    std::vector<std::pair<PageId, PageId>> swaps;

    /** Unpaired HBM -> DDR moves (risk mitigation). */
    std::vector<PageId> evictions;

    /** Unpaired DDR -> HBM moves into free frames. */
    std::vector<PageId> promotions;

    /** Total pages that cross the HMA. */
    std::uint64_t pagesMoved() const
    {
        return 2 * swaps.size() + evictions.size() + promotions.size();
    }

    bool empty() const
    {
        return swaps.empty() && evictions.empty() &&
               promotions.empty();
    }
};

/**
 * Interface the HMA simulator drives.
 *
 * HmaSystem binds the engine to its run's page slots (beginRun) and
 * reports each access by slot (onSlotAccess), so the engines that
 * override both keep their per-page tracking in flat per-slot state
 * and hash nothing per access. Their base defaults forward to the
 * PageId calls, which is all an engine or a wrapper that overrides
 * only those calls needs. A bound engine indexes one run's slots, so
 * it serves one run: the engines that bind panic, naming themselves,
 * on beginRun after any tracked access and on a PageId access after
 * beginRun. The Section 6 engines are final and define their slot
 * hooks inline, so HmaSystem's access loop, which is specialised per
 * engine class (HmaSystem::loopShape), calls them without the vtable;
 * every other engine takes the loop's one virtual call per access.
 */
class MigrationEngine
{
  public:
    virtual ~MigrationEngine() = default;

    /** Scheme name for reports. */
    virtual const char *name() const = 0;

    /**
     * Bind to a run's page slots, before the run's first access.
     * `pages` holds every page the run touches and outlives the run.
     * The default keeps the engine on the PageId calls.
     */
    virtual void beginRun(const PageIndex &pages);

    /**
     * Observe one demand access (before it is performed) to `page`,
     * whose slot in the beginRun index is `slot`; returns the extra
     * latency of the access (remap-table lookups). The default is
     * onAccess(page, ...) then remapPenalty(page).
     */
    virtual Cycle onSlotAccess(std::uint32_t slot, PageId page,
                               bool is_write, MemoryId mem);

    /** Observe one demand access (before it is performed). */
    virtual void onAccess(PageId page, bool is_write,
                          MemoryId mem) = 0;

    /** Finest interval at which onInterval must be called. */
    virtual Cycle interval() const = 0;

    /** Interval boundary: decide migrations for this boundary. */
    virtual MigrationDecision
    onInterval(Cycle now, const PlacementMap &map) = 0;

    /** Extra per-access latency (remap-table lookups); default 0. */
    virtual Cycle remapPenalty(PageId page);

    /**
     * An online fault landed on the page (faults/injector.hh). The
     * default ignores it — the perf-focused baseline is deliberately
     * reliability-blind; the reliability-aware engines mark the page
     * as permanently high-risk so their classifiers see it.
     */
    virtual void onFault(PageId page, bool uncorrected, Cycle now);

    /**
     * Tracking-hardware storage in bytes for a system with the given
     * page populations (Sections 6.3 / 6.4.2 use the paper's
     * unscaled 4.25M total / 262K HBM pages).
     */
    virtual std::uint64_t
    hardwareCostBytes(std::uint64_t total_pages,
                      std::uint64_t hbm_pages) const = 0;

  protected:
    /** @{ @name The one-run rule, for engines that bind to slots */
    /** Start of a beginRun override: panics unless still fresh. */
    void claimRun();

    /** Start of a PageId access override: panics once bound. */
    void notePageAccess();
    /** @} */

  private:
    bool bound_ = false;   ///< beginRun was called
    bool tracked_ = false; ///< a PageId access was observed
};

/**
 * What the two Full-Counter engines share (Sections 6.1 and 6.2): an
 * interval, a page-move budget per interval, and one counter table
 * that every demand access feeds. The slot hook is final and inline,
 * so an access loop that holds a FullCounterMigration calls it
 * directly instead of through the vtable.
 */
class FullCounterMigration : public MigrationEngine
{
  public:
    void beginRun(const PageIndex &pages) final;

    Cycle onSlotAccess(std::uint32_t slot, PageId page, bool is_write,
                       MemoryId mem) final
    {
        (void)page;
        (void)mem;
        counters_.onSlotAccess(slot, is_write);
        return 0;
    }

    void onAccess(PageId page, bool is_write, MemoryId mem) final;
    Cycle interval() const final { return interval_; }

  protected:
    /**
     * @param interval_cycles migration interval
     * @param cap_pages page-move budget per interval (bandwidth
     *                  guard; see SystemConfig::fcMigrationCapPages)
     */
    FullCounterMigration(Cycle interval_cycles, std::uint32_t cap_pages);

    Cycle interval_;
    std::uint32_t capPages_;
    FullCounterTable counters_;
};

/** Performance-focused interval migration (Section 6.1). */
class PerfFocusedMigration final : public FullCounterMigration
{
  public:
    /** See FullCounterMigration for the parameters. */
    explicit PerfFocusedMigration(Cycle interval_cycles,
                                  std::uint32_t cap_pages = 256)
        : FullCounterMigration(interval_cycles, cap_pages)
    {
    }

    const char *name() const override { return "perf-migration"; }
    MigrationDecision onInterval(Cycle now,
                                 const PlacementMap &map) override;
    std::uint64_t
    hardwareCostBytes(std::uint64_t total_pages,
                      std::uint64_t hbm_pages) const override;
};

/** Reliability-aware Full-Counter migration (Section 6.2). */
class FcReliabilityMigration final : public FullCounterMigration
{
  public:
    /** See FullCounterMigration for the parameters. */
    explicit FcReliabilityMigration(Cycle interval_cycles,
                                    std::uint32_t cap_pages = 256)
        : FullCounterMigration(interval_cycles, cap_pages)
    {
    }

    const char *name() const override { return "fc-migration"; }
    MigrationDecision onInterval(Cycle now,
                                 const PlacementMap &map) override;
    void onFault(PageId page, bool uncorrected, Cycle now) override;
    std::uint64_t
    hardwareCostBytes(std::uint64_t total_pages,
                      std::uint64_t hbm_pages) const override;

  private:
    std::unordered_set<PageId> faulted_; ///< struck pages stay risky
};

/** Cross-Counter migration: MEA + HBM risk counters (Section 6.4). */
class CrossCounterMigration final : public MigrationEngine
{
  public:
    /**
     * @param mea_interval_cycles fine performance-unit interval
     * @param fc_per_mea coarse reliability interval, in MEA intervals
     * @param mea_entries MEA map size (32 in MemPod)
     * @param promo_cap_pages promotions per MEA interval
     * @param fc_evict_cap_pages risk evictions per FC boundary
     */
    CrossCounterMigration(Cycle mea_interval_cycles,
                          std::uint32_t fc_per_mea,
                          std::size_t mea_entries = 32,
                          std::uint32_t promo_cap_pages = 8,
                          std::uint32_t fc_evict_cap_pages = 256);

    const char *name() const override { return "cc-migration"; }
    void beginRun(const PageIndex &pages) override;

    Cycle onSlotAccess(std::uint32_t slot, PageId page, bool is_write,
                       MemoryId mem) override
    {
        // The performance unit tracks every access (recency); the
        // reliability unit's Full Counters exist only for HBM pages
        // (Section 6.4.2's cost reduction).
        mea_.onAccess(page);
        if (mem == MemoryId::HBM)
            riskCounters_.onSlotAccess(slot, is_write);
        return remap_.lookupSlot(slot);
    }

    void onAccess(PageId page, bool is_write, MemoryId mem) override;
    Cycle interval() const override { return meaInterval_; }
    MigrationDecision onInterval(Cycle now,
                                 const PlacementMap &map) override;
    Cycle remapPenalty(PageId page) override;
    void onFault(PageId page, bool uncorrected, Cycle now) override;
    std::uint64_t
    hardwareCostBytes(std::uint64_t total_pages,
                      std::uint64_t hbm_pages) const override;

    /** Remap-cache statistics (for reports). */
    const RemapCache &remapCache() const { return remap_; }

  private:
    Cycle meaInterval_;
    std::uint32_t fcPerMea_;
    std::uint32_t promoCapPages_;
    std::uint32_t fcEvictCapPages_;
    std::uint32_t meaTick_ = 0;
    std::size_t rotationCursor_ = 0;
    MeaTracker mea_;
    FullCounterTable riskCounters_; ///< HBM-resident pages only
    RemapCache remap_;
    std::vector<PageId> pendingEvictions_; ///< high-risk HBM pages
    std::unordered_set<PageId> promotedThisRound_;
    std::unordered_set<PageId> faulted_; ///< struck pages stay risky
};

} // namespace ramp

#endif // RAMP_MIGRATION_ENGINE_HH
