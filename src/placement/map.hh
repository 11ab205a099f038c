/**
 * @file
 * Page placement map: which memory holds each page.
 *
 * The map is the contract between placement policies, the migration
 * engines, and the HMA simulator: it tracks page residency, assigns
 * device-local frames (so the DRAM models see stable addresses),
 * enforces HBM capacity, and honours pinned pages (the Section 7
 * annotation mechanism marks pages as pinned so migration policies
 * leave them alone).
 */

#ifndef RAMP_PLACEMENT_MAP_HH
#define RAMP_PLACEMENT_MAP_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hh"

namespace ramp
{

/** What PlacementMap::retirePage did (fault response). */
struct RetireOutcome
{
    /** False when the page was already retired (no-op). */
    bool retired = false;

    /** Tier the page occupied when the fault struck. */
    MemoryId from = MemoryId::DDR;

    /** Tier the page lives in after the remap. */
    MemoryId to = MemoryId::DDR;

    /**
     * True when the remap reached the other tier. False means the
     * surviving tier was full: the page got a fresh frame in its own
     * tier and the caller owns retrying the cross-tier move.
     */
    bool crossedTier = false;
};

/** Page-to-memory assignment with frame allocation. */
class PlacementMap
{
    struct Entry;

  public:
    /** Build an empty map with the given HBM capacity. */
    explicit PlacementMap(std::uint64_t hbm_capacity_pages);

    /** Memory currently holding a page (DDR when never placed). */
    MemoryId memoryOf(PageId page) const;

    /**
     * Device-local byte address of an access, allocating the page's
     * frame on first touch.
     */
    Addr deviceAddr(Addr addr)
    {
        return deviceAddr(handleOf(pageOf(addr)), addr);
    }

    /** @{ @name Entry handles (hash-free access path)
     *
     * A handle names one page's entry. Entries are never erased and
     * unordered_map nodes never move, so a handle stays valid for
     * the map's lifetime and follows every later swap, migration and
     * retirement of its page. Taking a handle inserts the page's
     * entry exactly like deviceAddr() does; a caller that takes it
     * at the page's first access keeps the map's insertion order,
     * and so hbmPages() order, unchanged.
     */
    class Handle
    {
      public:
        Handle() = default;
        explicit operator bool() const { return entry_ != nullptr; }

      private:
        friend class PlacementMap;
        explicit Handle(Entry *entry) : entry_(entry) {}
        Entry *entry_ = nullptr;
    };

    /** Handle of a page's entry (inserting it when absent). */
    Handle handleOf(PageId page) { return Handle(&entryOf(page)); }

    /** Memory currently holding the handle's page. */
    MemoryId memoryOf(Handle page) const;

    /** deviceAddr() for an access to the handle's page. */
    Addr deviceAddr(Handle page, Addr addr);

    /**
     * Cache hint: start loading the handle's entry ahead of a
     * memoryOf()/deviceAddr(). No-op for an empty handle; changes no
     * state.
     */
    void prefetch(Handle page) const
    {
        if (page)
            __builtin_prefetch(page.entry_);
    }
    /** @} */

    /**
     * Place a page in a memory (initial placement). Placing into a
     * full HBM is a fatal configuration error.
     */
    void place(PageId page, MemoryId mem);

    /** Place and pin (annotation): migrations must not move it. */
    void placePinned(PageId page, MemoryId mem);

    /** True when the page is pinned. */
    bool isPinned(PageId page) const;

    /**
     * Exchange an HBM-resident page with a DDR-resident page (the
     * migration primitive). Returns false — and does nothing — when
     * either page is pinned or residency does not match.
     */
    bool swap(PageId hbm_page, PageId ddr_page);

    /**
     * Move an HBM page to DDR without a partner (eviction when no
     * fill candidate exists). Returns false for pinned/mismatched.
     */
    bool evictToDdr(PageId hbm_page);

    /**
     * Move a DDR page into a free HBM frame. Returns false when the
     * HBM is full or residency does not match.
     */
    bool promoteToHbm(PageId ddr_page);

    /** Pages currently resident in HBM. */
    std::vector<PageId> hbmPages() const;

    /**
     * Move every page of [first, first+pages) that sits in the other
     * tier and is not pinned into dst, in page order, until HBM is
     * full.
     * @return pages actually moved
     */
    std::uint64_t moveRange(PageId first, std::uint64_t pages,
                            MemoryId dst);

    /** Pin the page where it currently resides. */
    void pin(PageId page);

    /** @{ @name Fault response (retirement and capacity loss)
     *
     * An uncorrected error kills the physical frame, not the page:
     * retirePage quarantines the frame forever (it never re-enters a
     * free list), remaps the page to the other tier when it fits,
     * and pins it there so migration engines leave it alone. Losing
     * an HBM frame shrinks hbmCapacityPages() by one — the budget
     * tracks surviving hardware, so an overfull map is a valid state
     * the caller drains with demotion sweeps.
     */

    /**
     * Retire a page after an uncorrected error. The frame it sat in
     * (allocated now if it was never touched) is quarantined; the
     * page is remapped to the other tier when capacity allows and
     * pinned on a successful cross. A DDR page that finds HBM full
     * stays in DDR on a fresh frame, unpinned, so the caller can
     * retry the promotion later.
     */
    RetireOutcome retirePage(PageId page);

    /**
     * Lose `pages` frames of a tier's capacity (e.g. a dead HBM
     * channel). Only HBM capacity is modelled; the budget may drop
     * below current occupancy — see overfullHbmPages().
     * @return frames actually lost (clamped to remaining capacity)
     */
    std::uint64_t loseCapacity(MemoryId mem, std::uint64_t pages);

    /** Pages resident in HBM beyond the surviving capacity. */
    std::uint64_t overfullHbmPages() const
    {
        return hbmUsed_ > hbmCapacity_ ? hbmUsed_ - hbmCapacity_ : 0;
    }

    /** True when the page has been retired by an uncorrected error. */
    bool isRetired(PageId page) const
    {
        return retiredPages_.count(page) != 0;
    }

    /** True when the frame is quarantined (never reallocated). */
    bool isFrameRetired(MemoryId mem, std::uint64_t frame) const;

    /** Quarantined frame count in a tier. */
    std::uint64_t retiredFrames(MemoryId mem) const;

    /** Retired pages in ascending id order (deterministic). */
    std::vector<PageId> retiredPages() const;
    /** @} */

    /** @{ @name Capacity */
    std::uint64_t hbmCapacityPages() const { return hbmCapacity_; }
    std::uint64_t hbmUsedPages() const { return hbmUsed_; }
    std::uint64_t hbmFreePages() const
    {
        // Saturating: capacity loss can push the budget below the
        // current occupancy (see overfullHbmPages()).
        return hbmUsed_ >= hbmCapacity_ ? 0
                                        : hbmCapacity_ - hbmUsed_;
    }
    /** @} */

    /** Total pages moved across the HMA by swap/evict/promote. */
    std::uint64_t migrations() const { return migrations_; }

  private:
    struct Entry
    {
        MemoryId mem = MemoryId::DDR;
        std::uint64_t frame = UINT64_MAX;
        bool pinned = false;
    };

    Entry &entryOf(PageId page);
    std::uint64_t allocFrame(MemoryId mem);
    void freeFrame(MemoryId mem, std::uint64_t frame);

    std::uint64_t hbmCapacity_;
    std::uint64_t hbmUsed_ = 0;
    std::uint64_t migrations_ = 0;
    std::unordered_map<PageId, Entry> entries_;
    std::unordered_set<PageId> retiredPages_;
    std::unordered_set<std::uint64_t> retiredHbmFrames_;
    std::unordered_set<std::uint64_t> retiredDdrFrames_;
    std::vector<std::uint64_t> freeHbmFrames_;
    std::vector<std::uint64_t> freeDdrFrames_;
    std::uint64_t nextHbmFrame_ = 0;
    std::uint64_t nextDdrFrame_ = 0;
};

inline MemoryId
PlacementMap::memoryOf(Handle page) const
{
    return page.entry_->mem;
}

inline Addr
PlacementMap::deviceAddr(Handle page, Addr addr)
{
    Entry &entry = *page.entry_;
    if (entry.frame == UINT64_MAX)
        entry.frame = allocFrame(entry.mem);
    return entry.frame * pageSize + addr % pageSize;
}

} // namespace ramp

#endif // RAMP_PLACEMENT_MAP_HH
