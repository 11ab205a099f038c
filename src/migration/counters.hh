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
 * storage is flat: the counters and the remap cache hash a PageId
 * once, through their own PageIndex, into a dense slot that indexes
 * plain vectors; the MEA scans its few entries (DESIGN.md §16).
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

    /** Count one access. */
    void onAccess(PageId page, bool is_write);

    /** Counters of one page this interval (zeros if untouched). */
    Counts countsOf(PageId page) const;

    /** All pages touched this interval, in first-touch order. */
    const std::vector<std::pair<PageId, Counts>> &touched() const
    {
        return counters_;
    }

    /** Mean hotness over touched pages (the dynamic threshold). */
    double meanHotness() const;

    /** Mean Wr ratio over touched pages (the risk threshold). */
    double meanWrRatio() const;

    /** Clear all counters (interval boundary); capacity is kept. */
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
    std::uint32_t maxCount_;
    PageIndex index_;
    std::vector<std::pair<PageId, Counts>> counters_; ///< by slot
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

    /** Look up a page; returns the added latency (0 on hit). */
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
        std::uint32_t slot; ///< cached page, as a slot of index_
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
    PageIndex index_;                 ///< every page ever looked up
    std::vector<std::uint32_t> nodeOf_; ///< by slot; nil when uncached
};

} // namespace ramp

#endif // RAMP_MIGRATION_COUNTERS_HH
