/**
 * @file
 * Tests for the AVF tracker (src/reliability/avf) against the
 * hand-computable scenarios of the paper's Figure 3.
 */

#include <gtest/gtest.h>

#include "reliability/avf.hh"
#include "reliability/ser.hh"

namespace ramp
{
namespace
{

constexpr Addr line0 = 0;

TEST(Avf, WriteThenReadIsAceBetween)
{
    // Fig 3a, first half: WR at 100, RD at 400 -> ACE 300 of 1000.
    AvfTracker tracker;
    tracker.onAccess(line0, true, 100);
    tracker.onAccess(line0, false, 400);
    tracker.finalize(1000);
    EXPECT_NEAR(tracker.pageAvf(0), 300.0 / (64.0 * 1000.0), 1e-12);
}

TEST(Avf, TwoReadsAccumulate)
{
    // Fig 3a: WR1@100, RD1@400, RD2@700: ACE 300 + 300.
    AvfTracker tracker;
    tracker.onAccess(line0, true, 100);
    tracker.onAccess(line0, false, 400);
    tracker.onAccess(line0, false, 700);
    tracker.finalize(1000);
    EXPECT_NEAR(tracker.pageAvf(0), 600.0 / (64.0 * 1000.0), 1e-12);
}

TEST(Avf, WriteMasksPrecedingInterval)
{
    // Fig 3b: WR1@100, WR2@600, RD@800: only 600->800 is ACE.
    AvfTracker tracker;
    tracker.onAccess(line0, true, 100);
    tracker.onAccess(line0, true, 600);
    tracker.onAccess(line0, false, 800);
    tracker.finalize(1000);
    EXPECT_NEAR(tracker.pageAvf(0), 200.0 / (64.0 * 1000.0), 1e-12);
}

TEST(Avf, WriteOnlyLineIsNeverAce)
{
    AvfTracker tracker;
    tracker.onAccess(line0, true, 100);
    tracker.onAccess(line0, true, 500);
    tracker.onAccess(line0, true, 900);
    tracker.finalize(1000);
    EXPECT_EQ(tracker.pageAvf(0), 0.0);
}

TEST(Avf, FirstReadCountsFromTimeZero)
{
    // Data initialised at load time: a read at 500 with no prior
    // write is ACE over [0, 500].
    AvfTracker tracker;
    tracker.onAccess(line0, false, 500);
    tracker.finalize(1000);
    EXPECT_NEAR(tracker.pageAvf(0), 500.0 / (64.0 * 1000.0), 1e-12);
}

TEST(Avf, TailAfterLastAccessIsDead)
{
    AvfTracker tracker;
    tracker.onAccess(line0, false, 100);
    tracker.finalize(100000);
    EXPECT_NEAR(tracker.pageAvf(0), 100.0 / (64.0 * 100000.0),
                1e-12);
}

TEST(Avf, SameHotnessDifferentAvf)
{
    // Fig 3c/d: equal access counts, different orders, different AVF.
    AvfTracker tracker;
    const Addr line_c = 0;
    const Addr line_d = lineSize;
    // c: W@0, R@250, R@500, W@750 -> ACE 500
    tracker.onAccess(line_c, true, 0);
    tracker.onAccess(line_c, false, 250);
    tracker.onAccess(line_c, false, 500);
    tracker.onAccess(line_c, true, 750);
    // d: W@0, W@250, W@500, R@750 -> ACE 250
    tracker.onAccess(line_d, true, 0);
    tracker.onAccess(line_d, true, 250);
    tracker.onAccess(line_d, true, 500);
    tracker.onAccess(line_d, false, 750);
    tracker.finalize(1000);
    const double avf = tracker.pageAvf(0);
    EXPECT_NEAR(avf, (500.0 + 250.0) / (64.0 * 1000.0), 1e-12);
}

TEST(Avf, PageComposesSixtyFourLines)
{
    // Every line of the page fully ACE -> page AVF ~= 1.
    AvfTracker tracker;
    for (std::uint64_t l = 0; l < linesPerPage; ++l) {
        tracker.onAccess(l * lineSize, false, 999);
        tracker.onAccess(l * lineSize, false, 1000);
    }
    tracker.finalize(1000);
    EXPECT_NEAR(tracker.pageAvf(0), 1.0, 1e-9);
}

TEST(Avf, UntouchedPageIsZero)
{
    AvfTracker tracker;
    tracker.onAccess(line0, false, 10);
    tracker.finalize(100);
    EXPECT_EQ(tracker.pageAvf(99), 0.0);
    EXPECT_EQ(tracker.touchedPages(), 1u);
}

TEST(Avf, MemoryAvfIsMeanOverTouchedPages)
{
    AvfTracker tracker;
    tracker.onAccess(0, false, 1000);          // page 0
    tracker.onAccess(pageSize, true, 500);     // page 1 (dead)
    tracker.finalize(1000);
    const double expected =
        (tracker.pageAvf(0) + tracker.pageAvf(1)) / 2.0;
    EXPECT_NEAR(tracker.memoryAvf(), expected, 1e-12);
}

TEST(Avf, PageAvfsListsEveryTouchedPage)
{
    AvfTracker tracker;
    tracker.onAccess(0, false, 10);
    tracker.onAccess(5 * pageSize, false, 20);
    tracker.finalize(100);
    const auto avfs = tracker.pageAvfs();
    EXPECT_EQ(avfs.size(), 2u);
}

TEST(Avf, ResetClearsState)
{
    AvfTracker tracker;
    tracker.onAccess(0, false, 10);
    tracker.finalize(100);
    tracker.reset();
    EXPECT_FALSE(tracker.finalized());
    EXPECT_EQ(tracker.touchedPages(), 0u);
}

TEST(AvfDeathTest, MisuseIsDetected)
{
    AvfTracker tracker;
    tracker.finalize(100);
    EXPECT_DEATH(tracker.onAccess(0, false, 10), "finalize");
    EXPECT_DEATH(tracker.finalize(200), "twice");

    AvfTracker unfinalized;
    EXPECT_DEATH((void)unfinalized.memoryAvf(), "finalize");
}

TEST(AvfDeathTest, AccessAt2To32CyclesPanics)
{
    // Line times are 32-bit: 2^32 - 1 is the last cycle they hold.
    AvfTracker tracker;
    tracker.onAccess(0, false, AvfTracker::maxTime);
    EXPECT_DEATH(tracker.onAccess(0, false, Cycle{1} << 32),
                 "cycle 4294967296 reaches 2\\^32");
    tracker.reset(1);
    tracker.onAccess(0, 0, false, AvfTracker::maxTime);
    EXPECT_DEATH(tracker.onAccess(0, 0, true, Cycle{1} << 32),
                 "reaches 2\\^32");
}

TEST(AvfDeathTest, PageIdEntryOnSlotSizedTrackerPanics)
{
    AvfTracker tracker;
    tracker.reset(2);
    EXPECT_DEATH(tracker.onAccess(pageSize, false, 10), "reset\\(pages\\)");
    tracker.finalize(100);
    EXPECT_DEATH((void)tracker.pageAvfs(), "reset\\(pages\\)");
    // Reset to empty, the PageId entry points work again.
    tracker.reset();
    tracker.onAccess(pageSize, false, 10);
    EXPECT_EQ(tracker.touchedPages(), 1u);
}

TEST(Ser, FitPerPageScalesWithCapacity)
{
    SerParams params;
    params.fitUncHbmPerGB = 100.0;
    params.fitUncDdrPerGB = 1.0;
    const double per_gb_pages =
        static_cast<double>(1ULL << 30) / pageSize;
    EXPECT_NEAR(params.fitPerPage(MemoryId::HBM) * per_gb_pages,
                100.0, 1e-9);
    EXPECT_NEAR(params.fitRatio(), 100.0, 1e-12);
}

TEST(Ser, ComputeSerWeightsByPlacement)
{
    SerParams params;
    params.fitUncHbmPerGB = 100.0;
    params.fitUncDdrPerGB = 1.0;
    const std::vector<std::pair<PageId, double>> avfs = {{0, 0.5},
                                                         {1, 0.5}};
    const double ddr_only = computeDdrOnlySer(avfs, params);
    const double split = computeSer(
        avfs,
        [](PageId page) {
            return page == 0 ? MemoryId::HBM : MemoryId::DDR;
        },
        params);
    EXPECT_GT(split, ddr_only);
    EXPECT_NEAR(split / ddr_only, (100.0 + 1.0) / 2.0, 1e-9);
}

} // namespace
} // namespace ramp
