/**
 * @file
 * Cross-validation of the AVF tracker against a naive reference
 * implementation on randomly generated access sequences.
 *
 * The reference recomputes AVF from the full event list per line
 * (quadratic, obviously correct); the tracker must match bit-for-bit
 * on every random schedule.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "reliability/avf.hh"

namespace ramp
{
namespace
{

struct Event
{
    Addr addr;
    bool isWrite;
    Cycle time;
};

/** Obviously-correct ACE line-cycles of a page: walk each line's
 * event list. */
Cycle
referencePageAce(const std::vector<Event> &events, PageId page)
{
    std::map<LineId, std::vector<Event>> per_line;
    for (const auto &event : events)
        if (pageOf(event.addr) == page)
            per_line[lineOf(event.addr)].push_back(event);

    Cycle total_ace = 0;
    for (auto &[line, list] : per_line) {
        Cycle last = 0; // line initialised at t = 0
        for (const auto &event : list) {
            if (!event.isWrite && event.time > last)
                total_ace += event.time - last;
            last = event.time;
        }
        // Tail is dead.
    }
    return total_ace;
}

/** Obviously-correct AVF (Equation 1). */
double
referencePageAvf(const std::vector<Event> &events, PageId page,
                 Cycle end_time)
{
    return static_cast<double>(referencePageAce(events, page)) /
           (static_cast<double>(linesPerPage) *
            static_cast<double>(end_time));
}

class AvfFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AvfFuzzTest, MatchesReferenceOnRandomSchedules)
{
    Rng rng(GetParam());
    const int pages = 4;
    const Cycle end_time = 100000;

    std::vector<Event> events;
    AvfTracker tracker;
    Cycle now = 0;
    for (int i = 0; i < 3000; ++i) {
        now += 1 + rng.nextRange(30);
        Event event;
        event.addr =
            rng.nextRange(pages) * pageSize +
            rng.nextRange(linesPerPage) * lineSize;
        event.isWrite = rng.nextBool(0.4);
        event.time = now;
        events.push_back(event);
        tracker.onAccess(event.addr, event.isWrite, event.time);
    }
    ASSERT_LT(now, end_time);
    tracker.finalize(end_time);

    for (PageId page = 0; page < pages; ++page) {
        EXPECT_NEAR(tracker.pageAvf(page),
                    referencePageAvf(events, page, end_time), 1e-12)
            << "page " << page << " seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvfFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21,
                                           34, 55, 89));

/**
 * Line times are 32-bit: over the whole range they can hold, with
 * accesses in random time order, both entry points must match the
 * 64-bit reference exactly.
 */
TEST_P(AvfFuzzTest, MatchesReferenceBitForBitUpTo32BitTimes)
{
    Rng rng(GetParam());
    const PageId pages = 4;
    const Cycle end_time = AvfTracker::maxTime + 1;

    std::vector<Event> events;
    AvfTracker by_page; // PageId entry point, its own index
    AvfTracker by_slot; // sized to caller slots; slot == page here
    by_slot.reset(pages);
    for (int i = 0; i < 3000; ++i) {
        Event event;
        event.addr = rng.nextRange(pages) * pageSize +
                     rng.nextRange(linesPerPage) * lineSize;
        event.isWrite = rng.nextBool(0.4);
        event.time = i % 500 == 0 ? AvfTracker::maxTime
                                  : rng.nextRange(end_time);
        events.push_back(event);
        by_page.onAccess(event.addr, event.isWrite, event.time);
        by_slot.onAccess(static_cast<std::uint32_t>(pageOf(event.addr)),
                         lineInPage(event.addr), event.isWrite,
                         event.time);
    }
    by_page.finalize(end_time);
    by_slot.finalize(end_time);

    ASSERT_EQ(by_page.touchedPages(), pages);
    for (PageId page = 0; page < pages; ++page) {
        const Cycle ace = referencePageAce(events, page);
        EXPECT_GT(ace, Cycle{1} << 32) << "page " << page;
        EXPECT_EQ(by_slot.aceOf(static_cast<std::uint32_t>(page)), ace)
            << "page " << page << " seed " << GetParam();
        EXPECT_EQ(by_page.pageAvf(page),
                  referencePageAvf(events, page, end_time))
            << "page " << page << " seed " << GetParam();
        EXPECT_EQ(by_slot.slotAvf(static_cast<std::uint32_t>(page)),
                  by_page.pageAvf(page));
    }
    EXPECT_EQ(by_slot.memoryAvf(), by_page.memoryAvf());
}

} // namespace
} // namespace ramp
