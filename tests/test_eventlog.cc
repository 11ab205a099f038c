/**
 * @file
 * Tests for the decision ledger (src/eventlog) and the accounting
 * agreement between the ledger, MigrationDecision::pagesMoved(),
 * and the telemetry migration counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "eventlog/eventlog.hh"
#include "faults/injector.hh"
#include "faults/plan.hh"
#include "hma/system.hh"
#include "migration/engine.hh"
#include "telemetry/registry.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{
namespace
{

/** Fresh, enabled ledger per test; everything off afterwards. */
class EventlogTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        eventlog::reset();
        obs::set(obs::Events, true);
    }

    void TearDown() override
    {
        obs::set(obs::Events | obs::Telemetry, false);
        eventlog::reset();
        telemetry::resetAll();
    }
};

eventlog::EventRecord
placeRecord(PageId page)
{
    eventlog::EventRecord record;
    record.kind = eventlog::EventKind::Place;
    record.policy = eventlog::PolicyId::Balanced;
    record.page = page;
    record.dst = eventlog::Tier::Hbm;
    record.hotness = 10.0F;
    return record;
}

TEST_F(EventlogTest, EmitCollectAndStats)
{
    eventlog::RunScope scope("test/run");
    for (PageId page = 0; page < 10; ++page)
        eventlog::emit(placeRecord(page));
    const auto records = eventlog::collect();
    ASSERT_EQ(records.size(), 10u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].page, static_cast<PageId>(i));
        EXPECT_EQ(records[i].seq, static_cast<std::uint32_t>(i));
        EXPECT_EQ(eventlog::runLabel(records[i].run), "test/run");
    }
    EXPECT_EQ(eventlog::stats().recorded, 10u);
    EXPECT_EQ(eventlog::stats().dropped, 0u);
}

TEST_F(EventlogTest, RingDrainsPastCapacityInOrder)
{
    eventlog::RunScope scope("test/big");
    const std::size_t total = 2 * eventlog::ringCapacity + 17;
    for (std::size_t i = 0; i < total; ++i)
        eventlog::emit(placeRecord(static_cast<PageId>(i)));
    const auto records = eventlog::collect();
    ASSERT_EQ(records.size(), total);
    // One thread, one scope: drain order is emission order.
    for (std::size_t i = 0; i < total; ++i)
        EXPECT_EQ(records[i].seq, static_cast<std::uint32_t>(i));
}

TEST_F(EventlogTest, ScopesNestAndUnscopedIsRunZero)
{
    eventlog::emit(placeRecord(1));
    {
        eventlog::RunScope outer("test/outer");
        eventlog::emit(placeRecord(2));
        {
            eventlog::RunScope inner("test/inner");
            eventlog::emit(placeRecord(3));
        }
        eventlog::emit(placeRecord(4));
    }
    const auto records = eventlog::collect();
    ASSERT_EQ(records.size(), 4u);
    std::map<PageId, std::string> labels;
    for (const auto &record : records)
        labels[record.page] = eventlog::runLabel(record.run);
    EXPECT_EQ(labels[1], "unattributed");
    EXPECT_EQ(labels[2], "test/outer");
    EXPECT_EQ(labels[3], "test/inner");
    EXPECT_EQ(labels[4], "test/outer");
}

TEST_F(EventlogTest, ReopenedLabelContinuesItsSeq)
{
    // Two sequential scopes under one label (a service storm opens
    // one per epoch), the second on another thread: seq runs 0..n-1
    // across both, so (label, seq) is a key and the JSONL keeps the
    // epochs in order.
    const auto epoch = [](PageId base) {
        eventlog::RunScope scope("svc/shard0/storm");
        for (PageId page = base; page < base + 3; ++page)
            eventlog::emit(placeRecord(page));
    };
    epoch(0);
    {
        eventlog::RunScope other("svc/shard1/storm");
        eventlog::emit(placeRecord(99));
    }
    std::thread later(epoch, 10);
    later.join();

    std::vector<std::pair<PageId, std::uint32_t>> stream;
    for (const auto &record : eventlog::collect())
        if (eventlog::runLabel(record.run) == "svc/shard0/storm")
            stream.emplace_back(record.page, record.seq);
    std::ranges::sort(stream, {}, [](const auto &p) { return p.second; });
    const std::vector<std::pair<PageId, std::uint32_t>> expected = {
        {0, 0}, {1, 1}, {2, 2}, {10, 3}, {11, 4}, {12, 5}};
    EXPECT_EQ(stream, expected);

    std::istringstream in(eventlog::toJsonl("test_eventlog"));
    std::string line;
    std::getline(in, line); // header
    std::vector<double> pages;
    while (std::getline(in, line)) {
        JsonValue doc;
        std::string error;
        ASSERT_TRUE(parseJson(line, doc, error)) << error;
        if (doc.stringOr("run", "") == "svc/shard0/storm")
            pages.push_back(doc.numberOr("page", -1));
    }
    EXPECT_EQ(pages, (std::vector<double>{0, 1, 2, 10, 11, 12}));
}

TEST_F(EventlogTest, CapacityCapsAndCountsDrops)
{
    eventlog::setCapacity(5);
    eventlog::RunScope scope("test/capped");
    for (PageId page = 0; page < 12; ++page)
        eventlog::emit(placeRecord(page));
    EXPECT_EQ(eventlog::collect().size(), 5u);
    EXPECT_EQ(eventlog::stats().recorded, 5u);
    EXPECT_EQ(eventlog::stats().dropped, 7u);
}

TEST_F(EventlogTest, DisabledScopeIsInert)
{
    obs::set(obs::Events, false);
    eventlog::RunScope scope("test/never");
    // Instrumentation sites are macro-gated, so nothing emits while
    // disabled; the scope itself must also not register its label.
    obs::set(obs::Events, true);
    eventlog::emit(placeRecord(1));
    const auto records = eventlog::collect();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(eventlog::runLabel(records[0].run), "unattributed");
}

TEST_F(EventlogTest, JsonlIsParseableAndSelfDescribing)
{
    {
        eventlog::RunScope scope("test/jsonl");
        eventlog::emit(placeRecord(7));

        // The second record carries a tenant stamp (v2): rendered
        // on this record only, so single-tenant output is
        // unchanged from v1.
        eventlog::TenantScope tenant(42);
        eventlog::EventRecord swap;
        swap.kind = eventlog::EventKind::SwapOut;
        swap.policy = eventlog::PolicyId::PerfMigration;
        swap.page = 7;
        swap.partner = 9;
        swap.src = eventlog::Tier::Hbm;
        swap.dst = eventlog::Tier::Ddr;
        swap.epoch = 1000;
        eventlog::emit(swap);
    }
    {
        eventlog::RunScope scope("test/jsonl");
        eventlog::EventRecord epoch;
        epoch.kind = eventlog::EventKind::Epoch;
        epoch.policy = eventlog::PolicyId::PerfMigration;
        epoch.epoch = 1000;
        epoch.hotness = 2.0F; // promotions
        epoch.wrRatio = 1.0F; // evictions
        epoch.avf = 3.0F;     // swaps
        eventlog::emit(epoch);

        eventlog::EventRecord fault;
        fault.kind = eventlog::EventKind::Fault;
        fault.policy = eventlog::PolicyId::FaultSim;
        fault.page = 11;
        fault.dst = eventlog::Tier::Hbm;
        fault.detail = 3; // row
        eventlog::emit(fault);
    }

    const std::string jsonl = eventlog::toJsonl("test_eventlog");
    std::istringstream in(jsonl);
    std::string line;
    std::vector<JsonValue> docs;
    std::string error;
    while (std::getline(in, line)) {
        JsonValue doc;
        ASSERT_TRUE(parseJson(line, doc, error))
            << error << " in: " << line;
        docs.push_back(std::move(doc));
    }
    ASSERT_EQ(docs.size(), 5u); // header + 4 records

    EXPECT_EQ(docs[0].stringOr("schema", ""), "ramp-events-v2");
    EXPECT_EQ(docs[0].stringOr("tool", ""), "test_eventlog");
    EXPECT_DOUBLE_EQ(docs[0].numberOr("records", 0), 4.0);
    EXPECT_DOUBLE_EQ(docs[0].numberOr("dropped", -1), 0.0);

    EXPECT_EQ(docs[1].stringOr("kind", ""), "place");
    EXPECT_EQ(docs[1].stringOr("run", ""), "test/jsonl");
    EXPECT_DOUBLE_EQ(docs[1].numberOr("page", -1), 7.0);
    EXPECT_EQ(docs[1].stringOr("dst", ""), "hbm");
    // No TenantScope active: the v2 key is omitted entirely.
    EXPECT_EQ(docs[1].find("tenant"), nullptr);

    EXPECT_EQ(docs[2].stringOr("kind", ""), "swap-out");
    EXPECT_DOUBLE_EQ(docs[2].numberOr("partner", -1), 9.0);
    EXPECT_EQ(docs[2].stringOr("src", ""), "hbm");
    EXPECT_EQ(docs[2].stringOr("dst", ""), "ddr");
    EXPECT_DOUBLE_EQ(docs[2].numberOr("tenant", -1), 42.0);

    EXPECT_EQ(docs[3].stringOr("kind", ""), "epoch");
    EXPECT_DOUBLE_EQ(docs[3].numberOr("promoted", -1), 2.0);
    EXPECT_DOUBLE_EQ(docs[3].numberOr("evicted", -1), 1.0);
    EXPECT_DOUBLE_EQ(docs[3].numberOr("swapped", -1), 3.0);
    // moved = promoted + evicted + 2 * swapped
    EXPECT_DOUBLE_EQ(docs[3].numberOr("moved", -1), 9.0);

    EXPECT_EQ(docs[4].stringOr("kind", ""), "fault");
    EXPECT_EQ(docs[4].stringOr("tier", ""), "hbm");
    EXPECT_EQ(docs[4].stringOr("mode", ""), "row");
}

TEST_F(EventlogTest, JsonlIsTheSameForEveryInterleaving)
{
    // Two runs on two threads, each emitting past one ring so both
    // drain mid-run; the thread that starts first drains first.
    const auto emit_run = [](const char *label, PageId base) {
        eventlog::RunScope scope(label);
        for (std::size_t i = 0; i < eventlog::ringCapacity + 5; ++i)
            eventlog::emit(placeRecord(base + i));
    };
    const auto render = [&](bool a_first) {
        eventlog::reset();
        std::thread first(emit_run, a_first ? "pass/a" : "pass/b",
                          a_first ? 0 : 100000);
        first.join();
        std::thread second(emit_run, a_first ? "pass/b" : "pass/a",
                           a_first ? 100000 : 0);
        second.join();
        return eventlog::toJsonl("test_eventlog");
    };
    const std::string a_first = render(true);
    const std::string b_first = render(false);
    EXPECT_EQ(a_first, b_first);

    // Grouped by label, each run in seq order.
    std::istringstream in(a_first);
    std::string line;
    std::getline(in, line); // header
    std::vector<std::pair<std::string, double>> keys;
    while (std::getline(in, line)) {
        JsonValue doc;
        std::string error;
        ASSERT_TRUE(parseJson(line, doc, error)) << error;
        keys.emplace_back(doc.stringOr("run", ""),
                          doc.numberOr("seq", -1));
    }
    ASSERT_EQ(keys.size(), 2 * (eventlog::ringCapacity + 5));
    EXPECT_TRUE(std::ranges::is_sorted(keys));
    EXPECT_EQ(keys.front().first, "pass/a");
}

TEST_F(EventlogTest, PostMortemKeepsOnlyTheTail)
{
    eventlog::RunScope scope("test/tail");
    for (PageId page = 0; page < 10; ++page)
        eventlog::emit(placeRecord(page));
    const std::string jsonl =
        eventlog::postMortemJsonl("test_eventlog", 3);
    std::istringstream in(jsonl);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u); // header + trailing 3
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(lines.back(), doc, error)) << error;
    EXPECT_DOUBLE_EQ(doc.numberOr("page", -1), 9.0);
}

// ---------------------------------------------------------------
// Ledger vs pagesMoved() vs telemetry counters: all three views of
// a migration epoch derive from the same MigrationDecision, so they
// must agree exactly for every engine.
// ---------------------------------------------------------------

SystemConfig
smallConfig()
{
    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 2;
    config.fcIntervalCycles = 10000;
    config.meaIntervalCycles = 1000;
    return config;
}

/** Two cores hammering a small set of pages (test_system idiom). */
std::vector<CoreTrace>
smallTraces(int pages, int requests)
{
    std::vector<CoreTrace> traces(2);
    for (int core = 0; core < 2; ++core) {
        for (int i = 0; i < requests; ++i) {
            MemRequest req;
            const int page = (i * 7 + core) % pages;
            req.addr = static_cast<Addr>(page) * pageSize +
                       static_cast<Addr>(i % 64) * lineSize;
            req.gap = 20;
            req.core = static_cast<CoreId>(core);
            req.isWrite = (i % 4) == 0;
            traces[static_cast<std::size_t>(core)].push_back(req);
        }
    }
    return traces;
}

struct LedgerCounts
{
    std::uint64_t promote = 0;
    std::uint64_t evict = 0;
    std::uint64_t swapIn = 0;
    std::uint64_t swapOut = 0;
    std::uint64_t epochs = 0;
    double epochMoved = 0; ///< sum of per-epoch pagesMoved()
};

LedgerCounts
countLedger()
{
    LedgerCounts counts;
    for (const auto &record : eventlog::collect()) {
        switch (record.kind) {
          case eventlog::EventKind::Promote: ++counts.promote; break;
          case eventlog::EventKind::Evict: ++counts.evict; break;
          case eventlog::EventKind::SwapIn: ++counts.swapIn; break;
          case eventlog::EventKind::SwapOut:
            ++counts.swapOut;
            break;
          case eventlog::EventKind::Epoch:
            ++counts.epochs;
            // promotions + evictions + 2 * swaps, as recorded.
            counts.epochMoved +=
                static_cast<double>(record.hotness) +
                static_cast<double>(record.wrRatio) +
                2.0 * static_cast<double>(record.avf);
            break;
          default: break;
        }
    }
    return counts;
}

void
checkEngineAccounting(MigrationEngine &engine)
{
    telemetry::resetAll();
    eventlog::reset();
    obs::set(obs::Telemetry | obs::Events, true);

    const auto config = smallConfig();
    HmaSystem system(config);
    std::uint64_t migrated = 0;
    {
        eventlog::RunScope scope(std::string("test/") +
                                 engine.name());
        const auto result =
            system.run(smallTraces(64, 20000),
                       PlacementMap(config.hbmPages()), &engine);
        migrated = result.migratedPages;
    }

    const LedgerCounts counts = countLedger();
    const std::uint64_t promoted =
        telemetry::metrics()
            .counter("migration.pages_promoted")
            .total();
    const std::uint64_t demoted =
        telemetry::metrics()
            .counter("migration.pages_demoted")
            .total();
    const std::uint64_t swaps =
        telemetry::metrics().counter("migration.swaps").total();

    SCOPED_TRACE(engine.name());
    EXPECT_GT(counts.epochs, 0u) << "no migration epochs recorded";
    // Each swap is one swap-in plus one swap-out record.
    EXPECT_EQ(counts.swapIn, counts.swapOut);
    EXPECT_EQ(counts.swapIn, swaps);
    // Telemetry: pages_promoted = promotions + swaps,
    //            pages_demoted  = evictions + swaps.
    EXPECT_EQ(counts.promote + counts.swapIn, promoted);
    EXPECT_EQ(counts.evict + counts.swapOut, demoted);
    // Per-page ledger records sum to the epochs' pagesMoved() sums.
    const std::uint64_t ledger_moves = counts.promote +
                                       counts.evict +
                                       counts.swapIn +
                                       counts.swapOut;
    EXPECT_EQ(static_cast<double>(ledger_moves),
              counts.epochMoved);
    // The ledger records decisions; applyDecision may skip a move
    // (pinned page, full HBM), so applied migrations can only be
    // fewer.
    EXPECT_GT(migrated, 0u);
    EXPECT_LE(migrated, ledger_moves);
}

TEST_F(EventlogTest, PerfMigrationLedgerMatchesCounters)
{
    PerfFocusedMigration engine(smallConfig().fcIntervalCycles, 64);
    checkEngineAccounting(engine);
}

TEST_F(EventlogTest, FcMigrationLedgerMatchesCounters)
{
    FcReliabilityMigration engine(smallConfig().fcIntervalCycles,
                                  64);
    checkEngineAccounting(engine);
}

TEST_F(EventlogTest, CcMigrationLedgerMatchesCounters)
{
    const auto config = smallConfig();
    CrossCounterMigration engine(
        config.meaIntervalCycles,
        static_cast<std::uint32_t>(config.fcIntervalCycles /
                                   config.meaIntervalCycles),
        32, 8, 64);
    checkEngineAccounting(engine);
}

TEST_F(EventlogTest, RetireRecordCarriesRunningAvfAndHotness)
{
    // Page 3 is read from the first few hundred cycles on and
    // retired at the second injector epoch (cycle 4000): its Retire
    // record must report what the page accumulated before the fault.
    InjectorConfig faults;
    std::string error;
    faults.script = parseFaultPlan("uncorrected:page=3,epoch=2", error);
    ASSERT_TRUE(error.empty()) << error;
    faults.epochCycles = 2000;
    FaultInjector injector(faults);

    const auto config = smallConfig();
    HmaSystem system(config);
    {
        eventlog::RunScope scope("test/retire");
        const auto result =
            system.run(smallTraces(16, 3000),
                       PlacementMap(config.hbmPages()), nullptr,
                       &injector);
        ASSERT_EQ(result.pagesRetired, 1u);
    }

    std::vector<eventlog::EventRecord> retires;
    for (const auto &record : eventlog::collect())
        if (record.kind == eventlog::EventKind::Retire)
            retires.push_back(record);
    ASSERT_EQ(retires.size(), 1u);
    EXPECT_EQ(retires[0].page, 3u);
    EXPECT_EQ(retires[0].epoch, 4000u);
    EXPECT_GT(retires[0].hotness, 0.0F);
    EXPECT_GT(retires[0].avf, 0.0F);
    EXPECT_LE(retires[0].avf, 1.0F);
}

} // namespace
} // namespace ramp
