/**
 * @file
 * Fuzz/property tests for the placement map: random operation
 * sequences must preserve every structural invariant.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "placement/map.hh"

namespace ramp
{
namespace
{

class PlacementFuzzTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PlacementFuzzTest, InvariantsHoldUnderRandomOps)
{
    Rng rng(GetParam());
    const std::uint64_t capacity = 32;
    const PageId universe = 256;
    PlacementMap map(capacity);

    // Shadow model of residency and pinning.
    std::map<PageId, MemoryId> shadow;
    std::set<PageId> pinned;

    // Seed some initial placements (a few pinned).
    for (PageId page = 0; page < capacity / 2; ++page) {
        if (rng.nextBool(0.2)) {
            map.placePinned(page, MemoryId::HBM);
            pinned.insert(page);
        } else {
            map.place(page, MemoryId::HBM);
        }
        shadow[page] = MemoryId::HBM;
    }

    for (int op = 0; op < 5000; ++op) {
        const PageId a = rng.nextRange(universe);
        const PageId b = rng.nextRange(universe);
        auto mem_of = [&](PageId page) {
            const auto it = shadow.find(page);
            return it == shadow.end() ? MemoryId::DDR : it->second;
        };

        switch (rng.nextRange(4)) {
          case 0: { // swap
            const bool ok = map.swap(a, b);
            const bool expect = mem_of(a) == MemoryId::HBM &&
                                mem_of(b) == MemoryId::DDR &&
                                !pinned.count(a) && !pinned.count(b);
            ASSERT_EQ(ok, expect) << "swap " << a << "," << b;
            if (ok) {
                shadow[a] = MemoryId::DDR;
                shadow[b] = MemoryId::HBM;
            }
            break;
          }
          case 1: { // evict
            const bool ok = map.evictToDdr(a);
            const bool expect =
                mem_of(a) == MemoryId::HBM && !pinned.count(a);
            ASSERT_EQ(ok, expect) << "evict " << a;
            if (ok)
                shadow[a] = MemoryId::DDR;
            break;
          }
          case 2: { // promote
            const bool ok = map.promoteToHbm(a);
            std::uint64_t used = 0;
            for (const auto &[page, mem] : shadow)
                used += mem == MemoryId::HBM ? 1 : 0;
            const bool expect = mem_of(a) == MemoryId::DDR &&
                                !pinned.count(a) && used < capacity;
            ASSERT_EQ(ok, expect) << "promote " << a;
            if (ok)
                shadow[a] = MemoryId::HBM;
            break;
          }
          default: { // access (frame allocation)
            const Addr addr =
                a * pageSize + rng.nextRange(pageSize);
            const Addr dev = map.deviceAddr(addr);
            EXPECT_EQ(dev % pageSize, addr % pageSize);
            break;
          }
        }

        // Invariants after every operation.
        std::uint64_t used = 0;
        for (const auto &[page, mem] : shadow)
            used += mem == MemoryId::HBM ? 1 : 0;
        ASSERT_EQ(map.hbmUsedPages(), used);
        ASSERT_LE(map.hbmUsedPages(), capacity);
    }

    // Final residency agrees everywhere; frames unique per memory.
    const auto hbm_pages = map.hbmPages();
    std::set<PageId> hbm_set(hbm_pages.begin(), hbm_pages.end());
    for (const auto &[page, mem] : shadow)
        ASSERT_EQ(mem == MemoryId::HBM, hbm_set.count(page) == 1)
            << "page " << page;

    std::set<std::uint64_t> hbm_frames, ddr_frames;
    for (PageId page = 0; page < universe; ++page) {
        const auto mem_it = shadow.find(page);
        const bool touched =
            mem_it != shadow.end() || true; // deviceAddr allocates
        if (!touched)
            continue;
        const std::uint64_t frame =
            map.deviceAddr(page * pageSize) / pageSize;
        auto &frames = map.memoryOf(page) == MemoryId::HBM
                           ? hbm_frames
                           : ddr_frames;
        ASSERT_TRUE(frames.insert(frame).second)
            << "duplicate frame for page " << page;
    }
    EXPECT_LE(hbm_frames.size(), capacity);
}

/**
 * Entry handles under every placement operation: a handle taken when
 * a page is first seen must keep answering exactly like the PageId
 * path after any later mix of initial placement, migration, range
 * ops, retirement and capacity loss. Alongside, the frames stay sane:
 * no frame is shared within a tier, no quarantined frame is handed
 * out again, and HBM frames stay within the ones that survive.
 */
TEST_P(PlacementFuzzTest, HandlesTrackEveryOperation)
{
    Rng rng(GetParam());
    const std::uint64_t capacity = 24;
    const PageId universe = 400;
    PlacementMap map(capacity);
    std::map<PageId, PlacementMap::Handle> handles;

    auto see = [&](PageId page) {
        if (handles.find(page) == handles.end())
            handles.emplace(page, map.handleOf(page));
    };
    auto see_span = [&](PageId first, std::uint64_t pages) {
        for (std::uint64_t i = 0; i < pages; ++i)
            see(first + i);
    };
    auto random_tier = [&] {
        return rng.nextBool(0.5) ? MemoryId::HBM : MemoryId::DDR;
    };

    for (int op = 0; op < 1500; ++op) {
        const PageId a = rng.nextRange(universe);
        const PageId b = rng.nextRange(universe);
        const std::uint64_t span = 1 + rng.nextRange(8);
        const std::uint64_t kind = rng.nextRange(9);
        SCOPED_TRACE(::testing::Message()
                     << "op " << op << " kind " << kind << " page "
                     << a);
        switch (kind) {
          case 0:
          case 1: { // place / placePinned a page the map never saw
            if (handles.count(a) != 0)
                break;
            const MemoryId mem =
                map.hbmFreePages() > 0 ? random_tier() : MemoryId::DDR;
            if (kind == 0)
                map.place(a, mem);
            else
                map.placePinned(a, mem);
            ASSERT_EQ(map.memoryOf(a), mem);
            see(a);
            break;
          }
          case 2:
            map.swap(a, b);
            see(a);
            see(b);
            break;
          case 3:
            map.evictToDdr(a);
            see(a);
            break;
          case 4:
            map.promoteToHbm(a);
            see(a);
            break;
          case 5:
            map.retirePage(a);
            ASSERT_TRUE(map.isRetired(a));
            see(a);
            break;
          case 6:
            // Rare, small losses, so HBM keeps some capacity a while.
            if (rng.nextBool(0.2))
                map.loseCapacity(random_tier(), 1 + rng.nextRange(2));
            break;
          case 7:
            map.moveRange(a, span, random_tier());
            see_span(a, span);
            break;
          default:
            map.pin(a);
            see(a);
            break;
        }

        // Handles answer like the PageId path; frames stay sane.
        std::set<std::uint64_t> hbm_frames, ddr_frames;
        for (const auto &[page, handle] : handles) {
            const MemoryId mem = map.memoryOf(page);
            ASSERT_EQ(map.memoryOf(handle), mem) << "page " << page;
            const Addr addr = page * pageSize + rng.nextRange(pageSize);
            const Addr dev = map.deviceAddr(handle, addr);
            ASSERT_EQ(dev, map.deviceAddr(addr)) << "page " << page;
            const std::uint64_t frame = dev / pageSize;
            ASSERT_FALSE(map.isFrameRetired(mem, frame))
                << "page " << page << " frame " << frame;
            auto &frames =
                mem == MemoryId::HBM ? hbm_frames : ddr_frames;
            ASSERT_TRUE(frames.insert(frame).second)
                << "page " << page << " frame " << frame;
            if (mem == MemoryId::HBM) {
                ASSERT_LT(frame, capacity) << "page " << page;
            }
        }
        ASSERT_EQ(hbm_frames.size(), map.hbmUsedPages());
        ASSERT_LE(map.hbmUsedPages() +
                      map.retiredFrames(MemoryId::HBM),
                  capacity);
        ASSERT_LE(map.hbmCapacityPages(),
                  capacity - map.retiredFrames(MemoryId::HBM));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505,
                                           606));

} // namespace
} // namespace ramp
