/**
 * @file
 * Activity-tracking hardware of the dynamic migration schemes.
 *
 * Three structures from Section 6:
 *  - FullCounterTable: per-page saturating read/write counters (the
 *    Meswani-style "Full Counters"; split R/W counters turn the
 *    performance tracker into a risk tracker, Section 6.2/6.3).
 *  - MeaTracker: the Majority Element Algorithm (Misra-Gries) hot
 *    page tracker MemPod uses; recency-favouring, tiny storage
 *    (Section 6.4).
 *  - RemapCache: model of MemPod's remap-table cache; misses charge
 *    a lookup latency penalty on the access path.
 *
 * All three run on every demand access of a migration pass, so their
 * storage is flat: the counters and the remap cache keep per-slot
 * vectors, and the MEA scans its few entries (DESIGN.md §16). A run
 * binds the counters and the cache to its own page slots, so the
 * access path hashes nothing; their PageId entry points are a thin
 * adapter that takes slots from the structure's own PageIndex.
 */

#ifndef RAMP_MIGRATION_COUNTERS_HH
#define RAMP_MIGRATION_COUNTERS_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/page_index.hh"
#include "common/types.hh"

namespace ramp
{

/** Saturating per-page read/write counters, cleared per interval. */
class FullCounterTable
{
  public:
    /** Per-page counter pair. */
    struct Counts
    {
        std::uint32_t reads = 0;
        std::uint32_t writes = 0;

        /** Raw access count (the hotness metric). */
        std::uint32_t hotness() const { return reads + writes; }

        /** Wr ratio; high values indicate low risk (Section 5.3). */
        double wrRatio() const;
    };

    /** @param bits counter width (the paper uses 8-bit saturating) */
    explicit FullCounterTable(std::uint32_t bits = 8);

    /**
     * Bind the table to a run's page slots, before its first access.
     * Slots then index `pages`, which must hold every page the run
     * touches and outlive the table's use; the PageId entry points
     * may no longer be called.
     */
    void bind(const PageIndex &pages);

    /** Count one access to the page in a slot of the bound index. */
    void onSlotAccess(std::uint32_t slot, bool is_write)
    {
        Cell &cell = cells_[slot];
        if (cell.gen != gen_) {
            cell = {Counts{}, gen_};
            touched_.push_back(slot);
        }
        auto &field = is_write ? cell.counts.writes : cell.counts.reads;
        if (field < maxCount_)
            ++field; // saturating: no overflow (Section 6.3)
    }

    /** Count one access (unbound tables only). */
    void onAccess(PageId page, bool is_write);

    /** Counters of one page this interval (zeros if untouched). */
    Counts countsOf(PageId page) const;

    /** All pages touched this interval, in first-touch order. */
    std::vector<std::pair<PageId, Counts>> touched() const;

    /** Mean hotness over touched pages (the dynamic threshold). */
    double meanHotness() const;

    /** Mean Wr ratio over touched pages (the risk threshold). */
    double meanWrRatio() const;

    /** Clear all counters (interval boundary) in O(1). */
    void reset();

    /** Saturation limit. */
    std::uint32_t maxCount() const { return maxCount_; }

    /**
     * Hardware storage for tracking a page population, in bytes
     * (Section 6.3: two 8-bit counters per 4 KB page -> 16 bits per
     * page; one combined counter -> 8 bits).
     */
    static std::uint64_t storageBytes(std::uint64_t pages,
                                      std::uint32_t bits,
                                      bool split_read_write);

  private:
    /** A slot's counts; live only when gen equals gen_. */
    struct Cell
    {
        Counts counts;
        std::uint32_t gen = 0;
    };

    /** The index slots refer to: the bound run's, or index_. */
    const PageIndex &pages() const
    {
        return bound_ != nullptr ? *bound_ : index_;
    }

    std::uint32_t maxCount_;
    std::uint32_t gen_ = 1;      ///< reset() bumps it
    const PageIndex *bound_ = nullptr;
    PageIndex index_;            ///< PageId adapter's slots
    std::vector<Cell> cells_;    ///< by slot
    std::vector<std::uint32_t> touched_; ///< this interval, first touch
};

/** Misra-Gries majority-element hot-page tracker (32 entries). */
class MeaTracker
{
  public:
    explicit MeaTracker(std::size_t entries = 32);

    /** Observe one access. */
    void onAccess(PageId page);

    /** Current candidate hot pages, highest count first. */
    std::vector<PageId> hotPages() const;

    /** Clear the map (MEA interval boundary). */
    void reset();

    /** Number of map entries (the hardware budget). */
    std::size_t capacity() const { return capacity_; }

    /** Storage cost in bytes (entries x (page id + counter)). */
    static std::uint64_t storageBytes(std::size_t entries);

  private:
    struct Entry
    {
        PageId page;
        std::uint64_t count;
    };

    std::size_t capacity_;
    std::vector<Entry> entries_; ///< at most capacity_, any order
};

/** LRU model of the remap-table cache (64 KB in MemPod). */
class RemapCache
{
  public:
    /**
     * @param entries cached remap entries (64 KB / 8 B = 8192)
     * @param miss_penalty extra access latency on a miss, in cycles
     */
    explicit RemapCache(std::size_t entries = 8192,
                        Cycle miss_penalty = 24);

    /**
     * Bind the cache to a run's page slots, before its first lookup
     * (the contract of FullCounterTable::bind).
     */
    void bind(const PageIndex &pages);

    /**
     * Look up the page in a slot of the bound index; returns the
     * added latency (0 on hit).
     */
    Cycle lookupSlot(std::uint32_t slot);

    /** Look up a page (unbound caches only). */
    Cycle lookup(PageId page);

    /** @{ @name Statistics */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double hitRatio() const;
    /** @} */

    /** Storage cost in bytes (8 B per entry). */
    static std::uint64_t storageBytes(std::size_t entries);

  private:
    static constexpr std::uint32_t nil = UINT32_MAX;

    /** One cached entry; prev/next link the LRU list by node index. */
    struct Node
    {
        std::uint32_t slot; ///< cached page
        std::uint32_t prev;
        std::uint32_t next;
    };

    void unlink(std::uint32_t node);
    void pushFront(std::uint32_t node);

    std::size_t capacity_;
    Cycle missPenalty_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::vector<Node> nodes_; ///< at most capacity_
    std::uint32_t head_ = nil; ///< MRU
    std::uint32_t tail_ = nil; ///< LRU
    PageIndex index_; ///< PageId adapter: every page ever looked up
    std::vector<std::uint32_t> nodeOf_; ///< by slot; nil when uncached
};

} // namespace ramp

#endif // RAMP_MIGRATION_COUNTERS_HH
