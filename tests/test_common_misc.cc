/**
 * @file
 * Tests for address arithmetic, logging formatting, the table
 * printer, the JSON writer helpers, the dense page index, and the
 * per-thread state registry (src/common).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/page_index.hh"
#include "common/table.hh"
#include "common/thread_registry.hh"
#include "common/types.hh"

namespace ramp
{
namespace
{

TEST(Types, PageAndLineArithmetic)
{
    EXPECT_EQ(pageOf(0), 0u);
    EXPECT_EQ(pageOf(4095), 0u);
    EXPECT_EQ(pageOf(4096), 1u);
    EXPECT_EQ(lineOf(0), 0u);
    EXPECT_EQ(lineOf(63), 0u);
    EXPECT_EQ(lineOf(64), 1u);
    EXPECT_EQ(lineInPage(0), 0u);
    EXPECT_EQ(lineInPage(64), 1u);
    EXPECT_EQ(lineInPage(4095), 63u);
    EXPECT_EQ(lineInPage(4096), 0u);
    EXPECT_EQ(pageBase(3), 3 * 4096u);
    EXPECT_EQ(lineBase(3), 3 * 64u);
    EXPECT_EQ(linesPerPage, 64u);
    EXPECT_EQ(pageBits, 4096u * 8);
}

TEST(Types, RoundTripAddressDecomposition)
{
    for (const Addr addr : {0ULL, 100ULL, 4096ULL, 123456789ULL}) {
        const Addr rebuilt = pageBase(pageOf(addr)) +
                             lineInPage(addr) * lineSize +
                             addr % lineSize;
        EXPECT_EQ(rebuilt, addr);
    }
}

TEST(Types, MemoryNames)
{
    EXPECT_STREQ(memoryName(MemoryId::HBM), "HBM");
    EXPECT_STREQ(memoryName(MemoryId::DDR), "DDR");
}

TEST(Logging, FormatMessageConcatenates)
{
    EXPECT_EQ(formatMessage("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(formatMessage(), "");
}

TEST(TextTable, FormatsAlignedColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "22"});
    std::ostringstream os;
    table.print(os, "title");
    const std::string out = os.str();
    EXPECT_NE(out.find("== title =="), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_EQ(table.numRows(), 2u);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::num(std::uint64_t{42}), "42");
    EXPECT_EQ(TextTable::ratio(1.5), "1.50x");
    EXPECT_EQ(TextTable::percent(0.123), "12.3%");
    EXPECT_EQ(TextTable::percent(0.5, 0), "50%");
}

TEST(TextTableDeathTest, RowArityMismatchPanics)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "arity");
}

TEST(Json, EscapesStringsAndRendersNonFiniteAsNull)
{
    EXPECT_EQ(jsonEscape("plain/text \xc3\xa9"), "plain/text \xc3\xa9");
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("l1\nl2\tx\ry"), "l1\\nl2\\tx\\ry");
    EXPECT_EQ(jsonEscape(std::string_view("\0\x01\x1f\x7f", 4)),
              "\\u0000\\u0001\\u001f\x7f");

    constexpr double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonNumber(0.1), "0.10000000000000001");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(inf), "null");
    EXPECT_EQ(jsonNumber(-inf), "null");
}

TEST(PageIndex, InternsDenseSlotsInFirstSightOrder)
{
    PageIndex index;
    EXPECT_EQ(index.find(7), PageIndex::none);
    EXPECT_EQ(index.intern(700), 0u);
    EXPECT_EQ(index.intern(7), 1u);
    EXPECT_EQ(index.intern(700), 0u);
    EXPECT_EQ(index.size(), 2u);
    EXPECT_EQ(index.find(7), 1u);
    EXPECT_EQ(index.page(0), 700u);
    EXPECT_EQ(index.find(8), PageIndex::none);

    // Growing the table keeps every slot; clear() forgets them all
    // and numbering restarts at 0.
    for (PageId page = 0; page < 10000; ++page)
        index.intern(page * 4096 + 3);
    EXPECT_EQ(index.size(), 10002u);
    for (PageId page = 0; page < 10000; ++page)
        ASSERT_EQ(index.find(page * 4096 + 3), page + 2);
    EXPECT_EQ(index.find(700), 0u);
    index.clear();
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.find(700), PageIndex::none);
    EXPECT_EQ(index.find(3), PageIndex::none);
    EXPECT_EQ(index.intern(3), 0u);
    EXPECT_EQ(index.page(0), 3u);
}

/** A state type of this test's own, so its registry starts empty. */
struct Tally
{
    int calls = 0;
};

TEST(ThreadRegistry, RegistersEachThreadOnceAndOutlivesIt)
{
    using Registry = ThreadRegistry<Tally>;
    constexpr int threads = 4;
    std::vector<std::uint32_t> ids(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([t, &ids] {
            // Thread t asks for its slot t + 1 times: one slot.
            for (int call = 0; call <= t; ++call) {
                Registry::Slot &slot = Registry::local();
                EXPECT_EQ(&slot, &Registry::local());
                std::lock_guard<std::mutex> lock(slot.mutex);
                ++slot.state.calls;
                ids[static_cast<std::size_t>(t)] = slot.id;
            }
        });
    for (std::thread &worker : workers)
        worker.join();

    // Every thread has exited; each state is still registered and
    // still holds what its thread recorded.
    EXPECT_EQ(Registry::size(), static_cast<std::size_t>(threads));
    std::vector<int> calls;
    Registry::forEach(
        [&](const Tally &tally) { calls.push_back(tally.calls); });
    std::sort(calls.begin(), calls.end());
    EXPECT_EQ(calls, (std::vector<int>{1, 2, 3, 4}));

    // Ids are the registration order, 1-based and distinct.
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 2, 3, 4}));

    // forEach hands out mutable states, each under its mutex.
    Registry::forEach([](Tally &tally) { tally.calls = 0; });
    Registry::forEach(
        [](const Tally &tally) { EXPECT_EQ(tally.calls, 0); });
}

} // namespace
} // namespace ramp
