/**
 * @file
 * Tests for the migration tracking hardware
 * (src/migration/counters): Full Counters, MEA, remap cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "common/page_index.hh"
#include "common/rng.hh"
#include "migration/counters.hh"

namespace ramp
{
namespace
{

TEST(FullCounters, CountsReadsAndWritesSeparately)
{
    FullCounterTable counters;
    counters.onAccess(1, false);
    counters.onAccess(1, false);
    counters.onAccess(1, true);
    const auto counts = counters.countsOf(1);
    EXPECT_EQ(counts.reads, 2u);
    EXPECT_EQ(counts.writes, 1u);
    EXPECT_EQ(counts.hotness(), 3u);
    EXPECT_DOUBLE_EQ(counts.wrRatio(), 0.5);
}

TEST(FullCounters, UntouchedPageIsZero)
{
    FullCounterTable counters;
    EXPECT_EQ(counters.countsOf(77).hotness(), 0u);
}

TEST(FullCounters, SaturatesAtWidth)
{
    FullCounterTable counters(4); // max 15
    for (int i = 0; i < 100; ++i)
        counters.onAccess(1, false);
    EXPECT_EQ(counters.countsOf(1).reads, 15u);
    EXPECT_EQ(counters.maxCount(), 15u);
}

TEST(FullCounters, DefaultEightBitSaturation)
{
    FullCounterTable counters;
    for (int i = 0; i < 500; ++i)
        counters.onAccess(1, true);
    EXPECT_EQ(counters.countsOf(1).writes, 255u);
}

TEST(FullCounters, ResetClears)
{
    FullCounterTable counters;
    counters.onAccess(1, false);
    counters.reset();
    EXPECT_EQ(counters.countsOf(1).hotness(), 0u);
    EXPECT_TRUE(counters.touched().empty());
}

TEST(FullCounters, Means)
{
    FullCounterTable counters;
    counters.onAccess(1, false); // hot 1, wr 0
    counters.onAccess(2, true);
    counters.onAccess(2, true);
    counters.onAccess(2, false); // hot 3, wr 2
    EXPECT_DOUBLE_EQ(counters.meanHotness(), 2.0);
    EXPECT_DOUBLE_EQ(counters.meanWrRatio(), 1.0);
}

TEST(FullCounters, StorageBytesMatchPaperSection63)
{
    // 4.25M pages x 16 bits = 8.5 MB; x 8 bits = 4.25 MB.
    const std::uint64_t pages = (17ULL << 30) / 4096;
    EXPECT_EQ(FullCounterTable::storageBytes(pages, 8, true),
              pages * 2);
    EXPECT_EQ(FullCounterTable::storageBytes(pages, 8, false),
              pages);
    // 262K HBM pages with split 8-bit counters = 512 KB.
    const std::uint64_t hbm_pages = (1ULL << 30) / 4096;
    EXPECT_EQ(FullCounterTable::storageBytes(hbm_pages, 8, true),
              512ULL * 1024);
}

TEST(Mea, FindsTheMajorityElement)
{
    MeaTracker mea(4);
    for (int i = 0; i < 100; ++i) {
        mea.onAccess(7);
        if (i % 2 == 0)
            mea.onAccess(static_cast<PageId>(100 + i));
    }
    const auto hot = mea.hotPages();
    ASSERT_FALSE(hot.empty());
    EXPECT_EQ(hot[0], 7u);
}

TEST(Mea, CapacityBoundsTrackedSet)
{
    MeaTracker mea(4);
    for (PageId page = 0; page < 100; ++page)
        mea.onAccess(page);
    EXPECT_LE(mea.hotPages().size(), 4u);
}

TEST(Mea, DecrementEvictsWeakEntries)
{
    MeaTracker mea(2);
    mea.onAccess(1);
    mea.onAccess(2);
    // A conflicting access decrements both to 0 and drops them; the
    // new page is then inserted on its next arrival.
    mea.onAccess(3);
    mea.onAccess(3);
    const auto hot = mea.hotPages();
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot[0], 3u);
}

TEST(Mea, HotPagesSortedByCount)
{
    MeaTracker mea(4);
    for (int i = 0; i < 5; ++i)
        mea.onAccess(1);
    for (int i = 0; i < 3; ++i)
        mea.onAccess(2);
    mea.onAccess(3);
    const auto hot = mea.hotPages();
    ASSERT_EQ(hot.size(), 3u);
    EXPECT_EQ(hot[0], 1u);
    EXPECT_EQ(hot[1], 2u);
    EXPECT_EQ(hot[2], 3u);
}

TEST(Mea, ResetClears)
{
    MeaTracker mea(4);
    mea.onAccess(1);
    mea.reset();
    EXPECT_TRUE(mea.hotPages().empty());
}

TEST(Mea, StorageIsTiny)
{
    EXPECT_EQ(MeaTracker::storageBytes(32), 256u);
}

TEST(RemapCache, MissThenHit)
{
    RemapCache cache(4, 10);
    EXPECT_EQ(cache.lookup(1), 10u);
    EXPECT_EQ(cache.lookup(1), 0u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_DOUBLE_EQ(cache.hitRatio(), 0.5);
}

TEST(RemapCache, LruEviction)
{
    RemapCache cache(2, 10);
    cache.lookup(1);
    cache.lookup(2);
    cache.lookup(1); // 1 becomes MRU
    cache.lookup(3); // evicts 2
    EXPECT_EQ(cache.lookup(1), 0u);
    EXPECT_EQ(cache.lookup(2), 10u); // miss again
}

TEST(RemapCache, StorageMatchesMemPod)
{
    // 64 KB remap cache = 8192 entries x 8 B.
    EXPECT_EQ(RemapCache::storageBytes(8192), 64ULL * 1024);
}

// ---------------------------------------------------------------
// Reference models: each structure against a plain map/list model
// on seeded random page streams.

/** A page stream over a small hot set and a wider cold range. */
PageId
drawPage(Rng &rng, std::uint64_t hot_pages, std::uint64_t universe)
{
    return rng.nextBool(0.5) ? rng.nextRange(hot_pages)
                             : rng.nextRange(universe);
}

/**
 * A run's page index over [0, universe), interned in shuffled order,
 * so slots follow neither page order nor first-touch order.
 */
void
internShuffled(PageIndex &index, std::uint64_t universe,
               std::uint64_t seed)
{
    std::vector<PageId> pages(universe);
    std::iota(pages.begin(), pages.end(), PageId{0});
    Rng rng(seed);
    for (std::size_t i = pages.size(); i > 1; --i)
        std::swap(pages[i - 1], pages[rng.nextRange(i)]);
    for (const PageId page : pages)
        index.intern(page);
}

/** Full Counters as a std::map plus a first-touch list. */
struct RefCounters
{
    std::uint32_t maxCount;
    std::map<PageId, FullCounterTable::Counts> counts;
    std::vector<PageId> order;

    void onAccess(PageId page, bool is_write)
    {
        auto [it, inserted] = counts.try_emplace(page);
        if (inserted)
            order.push_back(page);
        auto &field = is_write ? it->second.writes : it->second.reads;
        field = std::min(field + 1, maxCount);
    }

    double meanHotness() const
    {
        double sum = 0;
        for (const PageId page : order)
            sum += counts.at(page).hotness();
        return order.empty() ? 0.0 : sum / order.size();
    }

    double meanWrRatio() const
    {
        double sum = 0;
        for (const PageId page : order)
            sum += counts.at(page).wrRatio();
        return order.empty() ? 0.0 : sum / order.size();
    }

    void reset()
    {
        counts.clear();
        order.clear();
    }
};

void
expectSameCounters(const FullCounterTable &table, const RefCounters &ref,
                   std::uint64_t universe)
{
    const auto &touched = table.touched();
    ASSERT_EQ(touched.size(), ref.order.size());
    for (std::size_t i = 0; i < touched.size(); ++i) {
        // First-touch order, and the same counts per page.
        ASSERT_EQ(touched[i].first, ref.order[i]);
        const auto &want = ref.counts.at(ref.order[i]);
        EXPECT_EQ(touched[i].second.reads, want.reads);
        EXPECT_EQ(touched[i].second.writes, want.writes);
    }
    for (PageId page = 0; page < universe; ++page) {
        const auto it = ref.counts.find(page);
        const auto want =
            it == ref.counts.end() ? FullCounterTable::Counts{}
                                   : it->second;
        const auto got = table.countsOf(page);
        ASSERT_EQ(got.reads, want.reads) << "page " << page;
        ASSERT_EQ(got.writes, want.writes) << "page " << page;
    }
    EXPECT_EQ(table.meanHotness(), ref.meanHotness());
    EXPECT_EQ(table.meanWrRatio(), ref.meanWrRatio());
}

TEST(FullCounters, MatchesMapReferenceOnRandomStreams)
{
    for (const std::uint32_t bits : {3u, 8u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "bits " << bits << " seed " << seed);
            constexpr std::uint64_t universe = 600;
            // The PageId adapter and the slot entry point, fed the
            // same stream, must both match the reference.
            FullCounterTable table(bits);
            PageIndex run_pages;
            internShuffled(run_pages, universe, seed + 100);
            FullCounterTable slots(bits);
            slots.bind(run_pages);
            RefCounters ref{table.maxCount(), {}, {}};
            Rng rng(seed);
            for (int interval = 0; interval < 6; ++interval) {
                // Intervals of varying length; pages recur across
                // reset() boundaries.
                const std::uint64_t accesses =
                    1 + rng.nextRange(3000);
                for (std::uint64_t i = 0; i < accesses; ++i) {
                    const PageId page = drawPage(rng, 8, universe);
                    const bool is_write = rng.nextBool(0.3);
                    table.onAccess(page, is_write);
                    slots.onSlotAccess(run_pages.find(page), is_write);
                    ref.onAccess(page, is_write);
                }
                expectSameCounters(table, ref, universe);
                expectSameCounters(slots, ref, universe);
                table.reset();
                slots.reset();
                ref.reset();
                expectSameCounters(table, ref, universe);
                expectSameCounters(slots, ref, universe);
            }
        }
    }
}

/** Misra-Gries over a std::map, the textbook form. */
struct RefMea
{
    std::size_t capacity;
    std::map<PageId, std::uint64_t> map;

    void onAccess(PageId page)
    {
        if (const auto it = map.find(page); it != map.end()) {
            ++it->second;
        } else if (map.size() < capacity) {
            map.emplace(page, 1);
        } else {
            for (auto entry = map.begin(); entry != map.end();)
                entry = --entry->second == 0 ? map.erase(entry)
                                             : std::next(entry);
        }
    }

    std::vector<PageId> hotPages() const
    {
        std::vector<std::pair<PageId, std::uint64_t>> entries(
            map.begin(), map.end());
        std::stable_sort(entries.begin(), entries.end(),
                         [](const auto &a, const auto &b) {
                             return a.second > b.second;
                         });
        std::vector<PageId> pages;
        for (const auto &[page, count] : entries)
            pages.push_back(page);
        return pages;
    }
};

TEST(Mea, MatchesMapReferenceOnRandomStreams)
{
    for (const std::size_t capacity : {1u, 2u, 5u, 32u}) {
        for (const std::uint64_t universe : {3u, 40u, 5000u}) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << "capacity " << capacity << " universe "
                             << universe << " seed " << seed);
                MeaTracker mea(capacity);
                RefMea ref{capacity, {}};
                Rng rng(seed);
                for (int i = 0; i < 4000; ++i) {
                    if (rng.nextRange(700) == 0) {
                        mea.reset();
                        ref.map.clear();
                    }
                    const PageId page = drawPage(rng, 4, universe);
                    mea.onAccess(page);
                    ref.onAccess(page);
                    if (i % 7 == 0) {
                        ASSERT_EQ(mea.hotPages(), ref.hotPages())
                            << "access " << i;
                    }
                }
                EXPECT_EQ(mea.hotPages(), ref.hotPages());
            }
        }
    }
}

/** LRU over a std::list, front = MRU. */
struct RefLru
{
    std::size_t capacity;
    std::list<PageId> lru;
    std::map<PageId, std::list<PageId>::iterator> index;

    bool lookup(PageId page)
    {
        if (const auto it = index.find(page); it != index.end()) {
            lru.splice(lru.begin(), lru, it->second);
            return true;
        }
        if (lru.size() >= capacity) {
            index.erase(lru.back());
            lru.pop_back();
        }
        lru.push_front(page);
        index[page] = lru.begin();
        return false;
    }
};

TEST(RemapCache, MatchesListReferenceOnRandomStreams)
{
    constexpr Cycle penalty = 24;
    for (const std::size_t capacity : {1u, 2u, 8u, 64u}) {
        // Universes below, at and far above the capacity, so pages
        // are evicted and seen again.
        for (const std::uint64_t universe :
             {std::uint64_t{capacity}, capacity + 1, 4 * capacity,
              std::uint64_t{4096}}) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << "capacity " << capacity << " universe "
                             << universe << " seed " << seed);
                // The PageId adapter and the slot entry point.
                RemapCache cache(capacity, penalty);
                PageIndex run_pages;
                internShuffled(run_pages, universe, seed + 100);
                RemapCache slots(capacity, penalty);
                slots.bind(run_pages);
                RefLru ref{capacity, {}, {}};
                Rng rng(seed);
                std::uint64_t hits = 0;
                for (int i = 0; i < 5000; ++i) {
                    const PageId page =
                        drawPage(rng, capacity / 2 + 1, universe);
                    const bool hit = ref.lookup(page);
                    ASSERT_EQ(cache.lookup(page), hit ? 0 : penalty)
                        << "lookup " << i << " page " << page;
                    ASSERT_EQ(slots.lookupSlot(run_pages.find(page)),
                              hit ? 0 : penalty)
                        << "slot lookup " << i << " page " << page;
                    hits += hit;
                }
                for (const RemapCache *lru : {&cache, &slots}) {
                    EXPECT_EQ(lru->hits(), hits);
                    EXPECT_EQ(lru->misses(), 5000 - hits);
                }
            }
        }
    }
}

TEST(CountersDeathTest, InvalidConfigs)
{
    EXPECT_EXIT(FullCounterTable{0}, ::testing::ExitedWithCode(1),
                "");
    EXPECT_EXIT(MeaTracker{0}, ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT((RemapCache{0, 1}), ::testing::ExitedWithCode(1),
                "");
}

} // namespace
} // namespace ramp
