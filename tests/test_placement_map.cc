/**
 * @file
 * Tests for the placement map (src/placement/map).
 */

#include <gtest/gtest.h>

#include <set>

#include "placement/map.hh"

namespace ramp
{
namespace
{

TEST(PlacementMap, DefaultsToDdr)
{
    PlacementMap map(4);
    EXPECT_EQ(map.memoryOf(0), MemoryId::DDR);
    EXPECT_EQ(map.memoryOf(12345), MemoryId::DDR);
    EXPECT_EQ(map.hbmUsedPages(), 0u);
    EXPECT_EQ(map.hbmFreePages(), 4u);
}

TEST(PlacementMap, PlaceTracksCapacity)
{
    PlacementMap map(2);
    map.place(10, MemoryId::HBM);
    map.place(11, MemoryId::HBM);
    EXPECT_EQ(map.memoryOf(10), MemoryId::HBM);
    EXPECT_EQ(map.hbmUsedPages(), 2u);
    EXPECT_EQ(map.hbmFreePages(), 0u);
}

TEST(PlacementMapDeathTest, OverfillIsFatal)
{
    PlacementMap map(1);
    map.place(1, MemoryId::HBM);
    EXPECT_EXIT(map.place(2, MemoryId::HBM),
                ::testing::ExitedWithCode(1), "capacity");
}

TEST(PlacementMap, DeviceAddrStablePerPage)
{
    PlacementMap map(4);
    map.place(7, MemoryId::HBM);
    const Addr a = map.deviceAddr(7 * pageSize + 128);
    const Addr b = map.deviceAddr(7 * pageSize + 128);
    EXPECT_EQ(a, b);
    // Offset within the page is preserved.
    EXPECT_EQ(a % pageSize, 128u);
}

TEST(PlacementMap, DistinctPagesGetDistinctFrames)
{
    PlacementMap map(8);
    std::set<Addr> frames;
    for (PageId page = 0; page < 8; ++page) {
        map.place(page, MemoryId::HBM);
        frames.insert(map.deviceAddr(page * pageSize) / pageSize);
    }
    EXPECT_EQ(frames.size(), 8u);
}

TEST(PlacementMap, SwapExchangesMemoriesAndFrames)
{
    PlacementMap map(1);
    map.place(1, MemoryId::HBM);
    const Addr hbm_frame = map.deviceAddr(1 * pageSize);
    const Addr ddr_frame = map.deviceAddr(2 * pageSize);

    EXPECT_TRUE(map.swap(1, 2));
    EXPECT_EQ(map.memoryOf(1), MemoryId::DDR);
    EXPECT_EQ(map.memoryOf(2), MemoryId::HBM);
    // Frames exchanged: page 2 now uses page 1's old HBM frame.
    EXPECT_EQ(map.deviceAddr(2 * pageSize), hbm_frame);
    EXPECT_EQ(map.deviceAddr(1 * pageSize), ddr_frame);
    EXPECT_EQ(map.hbmUsedPages(), 1u);
    EXPECT_EQ(map.migrations(), 2u);
}

TEST(PlacementMap, SwapRejectsWrongResidency)
{
    PlacementMap map(2);
    map.place(1, MemoryId::HBM);
    EXPECT_FALSE(map.swap(2, 1)); // 2 is not in HBM
    EXPECT_FALSE(map.swap(1, 1)); // partner not in DDR
    EXPECT_EQ(map.migrations(), 0u);
}

TEST(PlacementMap, PinnedPagesRefuseToMove)
{
    PlacementMap map(2);
    map.placePinned(1, MemoryId::HBM);
    EXPECT_TRUE(map.isPinned(1));
    EXPECT_FALSE(map.swap(1, 2));
    EXPECT_FALSE(map.evictToDdr(1));
    EXPECT_EQ(map.memoryOf(1), MemoryId::HBM);
}

TEST(PlacementMap, EvictAndPromoteRoundTrip)
{
    PlacementMap map(1);
    map.place(1, MemoryId::HBM);
    EXPECT_TRUE(map.evictToDdr(1));
    EXPECT_EQ(map.memoryOf(1), MemoryId::DDR);
    EXPECT_EQ(map.hbmFreePages(), 1u);
    EXPECT_TRUE(map.promoteToHbm(2));
    EXPECT_EQ(map.memoryOf(2), MemoryId::HBM);
    EXPECT_EQ(map.hbmFreePages(), 0u);
    // Full HBM rejects further promotions.
    EXPECT_FALSE(map.promoteToHbm(3));
    EXPECT_EQ(map.migrations(), 2u);
}

TEST(PlacementMap, FrameReuseAfterEviction)
{
    PlacementMap map(1);
    map.place(1, MemoryId::HBM);
    const Addr frame = map.deviceAddr(1 * pageSize);
    map.evictToDdr(1);
    map.promoteToHbm(2);
    EXPECT_EQ(map.deviceAddr(2 * pageSize), frame);
}

TEST(PlacementMap, MoveRangeCapacityStopReportsMovedPrefix)
{
    // A batch promotion into an HBM with room for only part of the
    // span must report exactly the prefix it moved, with the
    // occupancy counters agreeing with the per-page residency.
    PlacementMap map(3);
    map.place(0, MemoryId::HBM); // 2 frames left for the batch
    for (PageId page = 10; page < 16; ++page)
        map.place(page, MemoryId::DDR);

    EXPECT_EQ(map.moveRange(10, 6, MemoryId::HBM), 2u);

    // The moved prefix is in HBM, the rest untouched.
    EXPECT_EQ(map.memoryOf(10), MemoryId::HBM);
    EXPECT_EQ(map.memoryOf(11), MemoryId::HBM);
    for (PageId page = 12; page < 16; ++page)
        EXPECT_EQ(map.memoryOf(page), MemoryId::DDR);
    EXPECT_EQ(map.hbmUsedPages(), 3u);
    EXPECT_EQ(map.hbmFreePages(), 0u);
    EXPECT_EQ(map.migrations(), 2u);

    // A second batch is a clean no-op, not a partial double-count.
    EXPECT_EQ(map.moveRange(10, 6, MemoryId::HBM), 0u);
    EXPECT_EQ(map.hbmUsedPages(), 3u);
}

TEST(PlacementMap, RetireHbmPageCrossesToDdr)
{
    PlacementMap map(2);
    map.place(5, MemoryId::HBM);
    const Addr dead = map.deviceAddr(5 * pageSize);

    const RetireOutcome out = map.retirePage(5);
    EXPECT_TRUE(out.retired);
    EXPECT_TRUE(out.crossedTier);
    EXPECT_EQ(out.from, MemoryId::HBM);
    EXPECT_EQ(out.to, MemoryId::DDR);
    EXPECT_TRUE(map.isRetired(5));
    EXPECT_TRUE(map.isPinned(5));
    EXPECT_EQ(map.memoryOf(5), MemoryId::DDR);
    // The dead frame shrank the tier: capacity and occupancy both
    // dropped by one.
    EXPECT_EQ(map.hbmCapacityPages(), 1u);
    EXPECT_EQ(map.hbmUsedPages(), 0u);
    EXPECT_TRUE(map.isFrameRetired(MemoryId::HBM, dead / pageSize));
    EXPECT_EQ(map.retiredFrames(MemoryId::HBM), 1u);

    // A second strike on the same page is a no-op.
    EXPECT_FALSE(map.retirePage(5).retired);
    EXPECT_EQ(map.hbmCapacityPages(), 1u);
}

TEST(PlacementMap, RetiredFrameIsNeverReissued)
{
    PlacementMap map(4);
    std::set<std::uint64_t> dead;
    for (PageId page = 0; page < 3; ++page) {
        map.place(page, MemoryId::HBM);
        dead.insert(map.deviceAddr(page * pageSize) / pageSize);
        map.retirePage(page);
    }
    // Fill the surviving capacity with fresh pages: none of their
    // frames may be a quarantined one.
    for (PageId page = 100; page < 101; ++page) {
        ASSERT_TRUE(map.promoteToHbm(page));
        const std::uint64_t frame =
            map.deviceAddr(page * pageSize) / pageSize;
        EXPECT_EQ(dead.count(frame), 0u);
        EXPECT_FALSE(map.isFrameRetired(MemoryId::HBM, frame));
    }
    EXPECT_EQ(map.retiredPages(),
              (std::vector<PageId>{0, 1, 2}));
}

TEST(PlacementMap, RetireIntoFullHbmStaysInDdrUnpinned)
{
    PlacementMap map(1);
    map.place(1, MemoryId::HBM);
    map.place(2, MemoryId::DDR);
    const Addr dead = map.deviceAddr(2 * pageSize);

    const RetireOutcome out = map.retirePage(2);
    EXPECT_TRUE(out.retired);
    EXPECT_FALSE(out.crossedTier); // HBM full: caller retries
    EXPECT_EQ(out.to, MemoryId::DDR);
    EXPECT_FALSE(map.isPinned(2)); // a retry may still promote it
    // Fresh DDR frame, old one quarantined.
    EXPECT_NE(map.deviceAddr(2 * pageSize), dead);
    EXPECT_TRUE(map.isFrameRetired(MemoryId::DDR, dead / pageSize));
}

TEST(PlacementMap, LoseCapacityGoesOverfullAndFreeSaturates)
{
    PlacementMap map(4);
    for (PageId page = 0; page < 4; ++page)
        map.place(page, MemoryId::HBM);

    EXPECT_EQ(map.loseCapacity(MemoryId::HBM, 3), 3u);
    EXPECT_EQ(map.hbmCapacityPages(), 1u);
    EXPECT_EQ(map.hbmUsedPages(), 4u);
    EXPECT_EQ(map.overfullHbmPages(), 3u);
    EXPECT_EQ(map.hbmFreePages(), 0u); // saturates, no underflow
    EXPECT_FALSE(map.promoteToHbm(9));

    // Draining the backlog restores a consistent budget.
    EXPECT_TRUE(map.evictToDdr(0));
    EXPECT_TRUE(map.evictToDdr(1));
    EXPECT_TRUE(map.evictToDdr(2));
    EXPECT_EQ(map.overfullHbmPages(), 0u);
    EXPECT_EQ(map.hbmFreePages(), 0u);

    // DDR capacity is not modelled; losing it is a no-op.
    EXPECT_EQ(map.loseCapacity(MemoryId::DDR, 10), 0u);
    // Losses clamp to the surviving budget.
    EXPECT_EQ(map.loseCapacity(MemoryId::HBM, 10), 1u);
    EXPECT_EQ(map.hbmCapacityPages(), 0u);
}

TEST(PlacementMap, RetireWithNoHbmBudgetLeftKeepsCapacityAtZero)
{
    PlacementMap map(2);
    map.place(0, MemoryId::HBM);
    map.place(1, MemoryId::HBM);
    EXPECT_EQ(map.loseCapacity(MemoryId::HBM, 2), 2u);

    // The dead frame cannot shrink a budget that is already zero.
    EXPECT_TRUE(map.retirePage(0).retired);
    EXPECT_EQ(map.hbmCapacityPages(), 0u);
    EXPECT_EQ(map.hbmUsedPages(), 1u);
    EXPECT_EQ(map.hbmFreePages(), 0u);
    EXPECT_FALSE(map.promoteToHbm(5));
}

TEST(PlacementMap, HbmPagesEnumerates)
{
    PlacementMap map(3);
    map.place(5, MemoryId::HBM);
    map.place(9, MemoryId::HBM);
    map.place(2, MemoryId::DDR);
    const auto pages = map.hbmPages();
    const std::set<PageId> set(pages.begin(), pages.end());
    EXPECT_EQ(set, (std::set<PageId>{5, 9}));
}

} // namespace
} // namespace ramp
