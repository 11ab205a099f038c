/**
 * @file
 * ramp_explain: the decision-ledger analyzer.
 *
 *   ramp_explain [queries] EVENTS.jsonl
 *
 * Reads an events file written by --events-out (DESIGN.md §10) and
 * answers the questions aggregate counters cannot: why is page P in
 * HBM, which pages spent the longest in the wrong tier, which pages
 * ping-pong between tiers, and where did the faults land.
 *
 *   --page P            full decision timeline of one page
 *   --top-regret K      pages whose realized tier disagrees longest
 *                       with their recorded hotness/risk quadrant
 *   --migration-churn   ping-pong detection per run
 *   --faults            fault-to-placement attribution
 *   --tenants           per-tenant placement-service summary
 *   --tenant ID         narrow every query to one tenant's records
 *                       (the ramp-events-v2 `tenant` stamp)
 *
 * With no query, prints a per-run ledger summary. Queries combine;
 * each prints its own table. Records are ordered by (run label,
 * sequence number) before any analysis, so the output is identical
 * for the same simulation regardless of the --jobs width that
 * produced the file. Exit code: 0 when every requested query found
 * events, 1 when one came up empty, 2 on usage or a malformed file.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/table.hh"
#include "perf/artifact.hh"

using namespace ramp;

namespace
{

/** Accepted schemas: v2 added the optional per-record `tenant`
 * field (and the tenant record kind); every v1 analysis reads a v2
 * file unchanged because the new key defaults to 0 when absent. */
constexpr const char *eventsSchemaV1 = "ramp-events-v1";
constexpr const char *eventsSchemaV2 = "ramp-events-v2";
constexpr std::uint64_t noPage = UINT64_MAX;

/** One ledger record, denormalized from its JSONL line. */
struct Event
{
    std::string run;
    std::uint64_t seq = 0;
    std::uint64_t tenant = 0; ///< 0 = outside any tenant (v1 files)
    std::string kind;
    std::string policy;
    std::uint64_t epoch = 0;
    std::uint64_t page = noPage;
    std::uint64_t partner = noPage;
    std::string src;
    std::string dst;
    std::string quadrant;
    std::string mode; ///< fault records
    std::string tier; ///< fault records
    std::string fault; ///< inject records: correctable/uncorrected/..
    std::string source; ///< inject records: script/poisson/hammer
    std::string reason; ///< remap/degrade records
    double backlog = NAN; ///< degrade records
    std::uint64_t span = 0; ///< inject records: capacity pages lost
    double hotness = NAN;
    double wrRatio = NAN;
    double avf = NAN;
    double threshHot = NAN;
    double threshRisk = NAN;
    double moved = NAN; ///< epoch records
    std::uint64_t shard = noPage; ///< tenant records
    std::uint64_t grant = 0; ///< tenant records
    std::uint64_t resident = 0; ///< tenant records
    double hbmShare = NAN; ///< tenant records
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ramp_explain [queries] EVENTS.jsonl\n"
        "\n"
        "  --page P           decision timeline of page P\n"
        "  --top-regret K     K pages longest in the wrong tier\n"
        "  --migration-churn  tier ping-pong per run\n"
        "  --faults           fault-to-placement attribution\n"
        "  --tenants          per-tenant service summary\n"
        "  --tenant ID        restrict every query to one tenant's\n"
        "                     records (ramp-events-v2 files)\n"
        "\n"
        "No query prints a per-run summary. Exit: 0 ok, 1 empty\n"
        "result, 2 usage/malformed input.\n");
}

bool
loadEvents(const std::string &path, std::vector<Event> &events,
           std::string &error)
{
    JsonValue header;
    const auto add = [&](const JsonValue &value, std::string &) {
        Event event;
        event.run = value.stringOr("run", "unattributed");
        event.seq = value.uintOr("seq", 0);
        event.tenant = value.uintOr("tenant", 0);
        event.kind = value.stringOr("kind", "?");
        event.policy = value.stringOr("policy", "?");
        event.epoch = value.uintOr("epoch", 0);
        event.page = value.uintOr("page", noPage);
        event.partner = value.uintOr("partner", noPage);
        event.src = value.stringOr("src", "");
        event.dst = value.stringOr("dst", "");
        event.quadrant = value.stringOr("quadrant", "");
        event.mode = value.stringOr("mode", "");
        event.tier = value.stringOr("tier", "");
        event.fault = value.stringOr("fault", "");
        event.source = value.stringOr("source", "");
        event.reason = value.stringOr("reason", "");
        event.backlog = value.numberOr("backlog", NAN);
        event.span = value.uintOr("span", 0);
        event.hotness = value.numberOr("hotness", NAN);
        event.wrRatio = value.numberOr("wr_ratio", NAN);
        event.avf = value.numberOr("avf", NAN);
        event.threshHot = value.numberOr("thresh_hot", NAN);
        event.threshRisk = value.numberOr("thresh_risk", NAN);
        event.moved = value.numberOr("moved", NAN);
        event.shard = value.uintOr("shard", noPage);
        event.grant = value.uintOr("grant", 0);
        event.resident = value.uintOr("resident", 0);
        event.hbmShare = value.numberOr("hbm_share", NAN);
        events.push_back(std::move(event));
        return true;
    };
    if (!readJsonl(path, {eventsSchemaV1, eventsSchemaV2}, "events",
                   false, header, add, error))
        return false;
    // Canonical order: run label, then the per-run sequence number.
    // Run ids are assigned in pool-scheduling order, but labels are
    // schedule-independent, so this sort makes every analysis
    // invariant under --jobs.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         if (a.run != b.run)
                             return a.run < b.run;
                         return a.seq < b.seq;
                     });
    return true;
}

std::string
num(double value, int precision = 6)
{
    return perf::numberCell(value, precision);
}

std::string
pageCell(std::uint64_t page)
{
    return page == noPage ? "-" : std::to_string(page);
}

/** True for the four kinds that move a page between tiers. */
bool
isMove(const std::string &kind)
{
    return kind == "promote" || kind == "evict" ||
           kind == "swap-in" || kind == "swap-out";
}

/** Tier the page occupies after this event ("" when not a move). */
std::string
tierAfter(const Event &event)
{
    if (event.kind == "place" || event.kind == "promote" ||
        event.kind == "swap-in")
        return "hbm";
    if (event.kind == "evict" || event.kind == "swap-out")
        return "ddr";
    return "";
}

int
queryPage(const std::vector<Event> &events, std::uint64_t page)
{
    TextTable table({"run", "seq", "kind", "policy", "epoch",
                     "move", "quadrant", "hotness", "wr_ratio",
                     "avf", "thresh_hot", "thresh_risk"});
    std::size_t rows = 0;
    for (const Event &event : events) {
        const bool subject = event.page == page;
        const bool partner = event.partner == page;
        if (!subject && !partner)
            continue;
        std::string move;
        if (!event.src.empty() || !event.dst.empty())
            move = (event.src.empty() ? "-" : event.src) + "->" +
                   (event.dst.empty() ? "-" : event.dst);
        if (event.kind == "fault")
            move = event.tier + " " + event.mode;
        if (partner)
            move += " (partner of " + pageCell(event.page) + ")";
        else if (event.partner != noPage)
            move += " (with " + pageCell(event.partner) + ")";
        table.addRow({event.run, std::to_string(event.seq),
                      event.kind, event.policy,
                      std::to_string(event.epoch), move,
                      event.quadrant.empty() ? "-" : event.quadrant,
                      num(event.hotness), num(event.wrRatio),
                      num(event.avf), num(event.threshHot),
                      num(event.threshRisk)});
        ++rows;
    }
    if (rows == 0) {
        std::cout << "ramp_explain: no events for page " << page
                  << "\n";
        return 1;
    }
    table.print(std::cout, "timeline of page " +
                               std::to_string(page) + " (" +
                               std::to_string(rows) + " events)");
    return 0;
}

int
queryTopRegret(const std::vector<Event> &events, std::uint64_t k)
{
    // Per (run, page): replay the page's ledger stream, integrating
    // the cycles its realized tier disagrees with the tier its most
    // recently recorded quadrant calls for (hot & low-risk -> HBM,
    // anything else -> DDR). Pages whose quadrant was never
    // measured carry no verdict and accrue no regret.
    struct PageState
    {
        std::string tier = "ddr";
        std::string desired;
        std::uint64_t since = 0;
        double regret = 0;
        std::size_t moves = 0;
    };
    struct RunState
    {
        std::map<std::uint64_t, PageState> pages;
        std::uint64_t horizon = 0;
    };
    std::map<std::string, RunState> runs;

    auto settle = [](PageState &state, std::uint64_t now) {
        if (!state.desired.empty() && state.tier != state.desired &&
            now > state.since)
            state.regret += static_cast<double>(now - state.since);
        state.since = now;
    };

    for (const Event &event : events) {
        RunState &run = runs[event.run];
        run.horizon = std::max(run.horizon, event.epoch);
        if (event.page == noPage || event.kind == "fault" ||
            event.kind == "epoch")
            continue;
        PageState &state = run.pages[event.page];
        settle(state, event.epoch);
        if (!tierAfter(event).empty())
            state.tier = tierAfter(event);
        if (isMove(event.kind) || event.kind == "place")
            ++state.moves;
        if (!event.quadrant.empty() && event.quadrant != "unknown")
            state.desired =
                event.quadrant == "hot-low" ? "hbm" : "ddr";
        // A swap partner's record carries the partner's own scores.
        if (event.partner != noPage) {
            PageState &other = run.pages[event.partner];
            settle(other, event.epoch);
        }
    }

    struct Row
    {
        std::string run;
        std::uint64_t page;
        double regret;
        std::string tier;
        std::string desired;
        std::size_t moves;
    };
    std::vector<Row> rows;
    for (auto &[label, run] : runs) {
        for (auto &[page, state] : run.pages) {
            settle(state, run.horizon);
            if (state.regret > 0)
                rows.push_back({label, page, state.regret,
                                state.tier, state.desired,
                                state.moves});
        }
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  if (a.regret != b.regret)
                      return a.regret > b.regret;
                  if (a.run != b.run)
                      return a.run < b.run;
                  return a.page < b.page;
              });
    if (rows.size() > k)
        rows.resize(k);

    if (rows.empty()) {
        std::cout << "ramp_explain: no page disagreed with its "
                     "recorded quadrant\n";
        return 1;
    }
    TextTable table({"run", "page", "regret_cycles", "tier",
                     "wanted", "moves"});
    for (const Row &row : rows)
        table.addRow({row.run, std::to_string(row.page),
                      num(row.regret, 10), row.tier, row.desired,
                      std::to_string(row.moves)});
    table.print(std::cout,
                "top " + std::to_string(rows.size()) +
                    " regret pages (cycles in the tier their "
                    "quadrant argues against)");
    return 0;
}

int
queryChurn(const std::vector<Event> &events)
{
    // A page "bounces" each time it re-enters a tier it already
    // left within the same run; sustained bouncing is the ping-pong
    // pathology a migration policy must not exhibit.
    struct PageState
    {
        std::string tier;
        std::size_t moves = 0;
        std::size_t bounces = 0;
        bool leftHbm = false;
        std::string policy;
    };
    std::map<std::string, std::map<std::uint64_t, PageState>> runs;
    for (const Event &event : events) {
        if (event.page == noPage || !isMove(event.kind))
            continue;
        PageState &state = runs[event.run][event.page];
        const std::string after = tierAfter(event);
        ++state.moves;
        state.policy = event.policy;
        if (after == "hbm" && state.leftHbm)
            ++state.bounces;
        if (after == "ddr" && !state.tier.empty())
            state.leftHbm = true;
        state.tier = after;
    }

    TextTable table(
        {"run", "policy", "page", "moves", "bounces", "tier"});
    std::size_t rows = 0;
    for (const auto &[label, pages] : runs) {
        // Worst offenders first within each run.
        std::vector<std::pair<std::uint64_t, const PageState *>>
            order;
        for (const auto &[page, state] : pages)
            if (state.moves >= 3)
                order.emplace_back(page, &state);
        std::sort(order.begin(), order.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second->bounces != b.second->bounces)
                          return a.second->bounces >
                                 b.second->bounces;
                      if (a.second->moves != b.second->moves)
                          return a.second->moves > b.second->moves;
                      return a.first < b.first;
                  });
        if (order.size() > 10)
            order.resize(10);
        for (const auto &[page, state] : order) {
            table.addRow({label, state->policy,
                          std::to_string(page),
                          std::to_string(state->moves),
                          std::to_string(state->bounces),
                          state->tier});
            ++rows;
        }
    }
    if (rows == 0) {
        std::cout << "ramp_explain: no page moved 3+ times in any "
                     "run (no churn)\n";
        return 1;
    }
    table.print(std::cout,
                "migration churn (pages moved 3+ times; worst 10 "
                "per run)");
    return 0;
}

int
queryFaults(const std::vector<Event> &events)
{
    // Offline FaultSim trials (kind == "fault").
    std::map<std::string, std::uint64_t> byTierMode;
    std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
        byPage;
    std::size_t total = 0;
    for (const Event &event : events) {
        if (event.kind != "fault")
            continue;
        ++total;
        ++byTierMode[event.tier + " " + event.mode];
        ++byPage[{event.run, event.page}];
    }
    if (total > 0) {
        TextTable modes({"tier mode", "faults"});
        for (const auto &[key, count] : byTierMode)
            modes.addRow({key, std::to_string(count)});
        modes.print(std::cout,
                    "uncorrected-trial faults by tier and mode (" +
                        std::to_string(total) + " total)");

        std::vector<
            std::pair<std::pair<std::string, std::uint64_t>,
                      std::uint64_t>>
            order(byPage.begin(), byPage.end());
        std::sort(order.begin(), order.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second != b.second)
                          return a.second > b.second;
                      return a.first < b.first;
                  });
        if (order.size() > 10)
            order.resize(10);
        TextTable pages({"run", "page", "faults"});
        for (const auto &[key, count] : order)
            pages.addRow({key.first, std::to_string(key.second),
                          std::to_string(count)});
        pages.print(std::cout,
                    "most-struck pages (top " +
                        std::to_string(order.size()) + ")");
    }

    // Online injected faults and their responses. Events are in
    // (run, seq) order, so the "latest inject seen for this page"
    // map attributes each retirement to the strike that caused it,
    // identically at any --jobs width.
    struct RunStats
    {
        std::uint64_t injected = 0;
        std::uint64_t capacityPages = 0;
        std::uint64_t retired = 0;
        std::map<std::string, std::uint64_t> remaps;
        std::uint64_t degrades = 0;
        double backlog = NAN; ///< last reported
    };
    struct Attribution
    {
        const Event *inject;
        const Event *retire;
    };
    std::map<std::string, RunStats> runs;
    std::map<std::pair<std::string, std::uint64_t>, const Event *>
        lastInject;
    std::vector<Attribution> attributions;
    std::size_t online = 0;
    for (const Event &event : events) {
        if (event.kind == "inject") {
            ++online;
            RunStats &run = runs[event.run];
            ++run.injected;
            if (event.fault == "capacity")
                run.capacityPages += event.span;
            else
                lastInject[{event.run, event.page}] = &event;
        } else if (event.kind == "retire") {
            ++online;
            ++runs[event.run].retired;
            const auto it =
                lastInject.find({event.run, event.page});
            attributions.push_back(
                {it == lastInject.end() ? nullptr : it->second,
                 &event});
        } else if (event.kind == "remap") {
            ++online;
            ++runs[event.run].remaps[event.reason];
        } else if (event.kind == "degrade") {
            ++online;
            RunStats &run = runs[event.run];
            ++run.degrades;
            run.backlog = event.backlog;
        }
    }

    if (total == 0 && online == 0) {
        std::cout << "ramp_explain: no fault records (run FaultSim "
                     "or an --inject campaign with --events-out to "
                     "collect them)\n";
        return 1;
    }
    if (online == 0)
        return 0;

    TextTable summary({"run", "injected", "capacity_pages",
                       "retired", "remap:retire", "remap:sweep",
                       "remap:retry", "degrades", "backlog"});
    for (const auto &[label, run] : runs) {
        auto remap = [&](const char *reason) -> std::uint64_t {
            const auto it = run.remaps.find(reason);
            return it == run.remaps.end() ? 0 : it->second;
        };
        summary.addRow({label, std::to_string(run.injected),
                        std::to_string(run.capacityPages),
                        std::to_string(run.retired),
                        std::to_string(remap("retire")),
                        std::to_string(remap("sweep")),
                        std::to_string(remap("retry")),
                        std::to_string(run.degrades),
                        num(run.backlog)});
    }
    summary.print(std::cout, "online fault injection (" +
                                 std::to_string(online) +
                                 " ledger records)");

    if (!attributions.empty()) {
        TextTable table({"run", "page", "inject_seq", "source",
                         "fault", "retire_seq", "move", "hotness",
                         "avf"});
        for (const Attribution &attr : attributions) {
            const Event &retire = *attr.retire;
            table.addRow(
                {retire.run, pageCell(retire.page),
                 attr.inject == nullptr
                     ? "-"
                     : std::to_string(attr.inject->seq),
                 attr.inject == nullptr ? "-"
                                        : attr.inject->source,
                 attr.inject == nullptr ? "-" : attr.inject->fault,
                 std::to_string(retire.seq),
                 retire.src + "->" + retire.dst,
                 num(retire.hotness), num(retire.avf)});
        }
        table.print(std::cout,
                    "retirement attribution (each retired page "
                    "traced to the strike that killed it)");
    }
    return 0;
}

int
queryTenants(const std::vector<Event> &events)
{
    // Per-tenant service summary, driven by the tenant-kind records
    // the placement service emits once per (tenant, epoch) plus the
    // tenant stamp every other record carries. Tenant id order, so
    // the same file prints the same table at any --jobs width.
    struct TenantSummary
    {
        std::uint64_t shard = noPage;
        std::uint64_t epochs = 0;
        std::uint64_t lastGrant = 0;
        double residentSum = 0;
        double shareSum = 0;
        double avfSum = 0;
        std::uint64_t promotes = 0;
        std::uint64_t evicts = 0;
        std::uint64_t places = 0;
        std::uint64_t retires = 0;
    };
    std::map<std::uint64_t, TenantSummary> tenants;
    for (const Event &event : events) {
        if (event.kind == "tenant") {
            TenantSummary &tenant = tenants[event.tenant];
            tenant.shard = event.shard;
            ++tenant.epochs;
            tenant.lastGrant = event.grant;
            tenant.residentSum +=
                static_cast<double>(event.resident);
            if (std::isfinite(event.hbmShare))
                tenant.shareSum += event.hbmShare;
            if (std::isfinite(event.avf))
                tenant.avfSum += event.avf;
            continue;
        }
        if (event.tenant == 0)
            continue;
        TenantSummary &tenant = tenants[event.tenant];
        if (event.kind == "promote")
            ++tenant.promotes;
        else if (event.kind == "evict")
            ++tenant.evicts;
        else if (event.kind == "place")
            ++tenant.places;
        else if (event.kind == "retire")
            ++tenant.retires;
    }
    if (tenants.empty()) {
        std::cout << "ramp_explain: no tenant records (run the "
                     "placement service with --events-out to "
                     "collect them)\n";
        return 1;
    }
    TextTable table({"tenant", "shard", "epochs", "grant",
                     "mean_resident", "mean_hbm_share", "mean_avf",
                     "places", "promotes", "evicts", "retires"});
    for (const auto &[id, tenant] : tenants) {
        const double epochs =
            tenant.epochs > 0
                ? static_cast<double>(tenant.epochs)
                : 1.0;
        table.addRow({std::to_string(id), pageCell(tenant.shard),
                      std::to_string(tenant.epochs),
                      std::to_string(tenant.lastGrant),
                      num(tenant.residentSum / epochs),
                      tenant.epochs > 0
                          ? num(tenant.shareSum / epochs, 4)
                          : "-",
                      tenant.epochs > 0
                          ? num(tenant.avfSum / epochs, 4)
                          : "-",
                      std::to_string(tenant.places),
                      std::to_string(tenant.promotes),
                      std::to_string(tenant.evicts),
                      std::to_string(tenant.retires)});
    }
    table.print(std::cout,
                "tenant summary (" +
                    std::to_string(tenants.size()) + " tenants)");
    return 0;
}

int
summarize(const std::vector<Event> &events)
{
    if (events.empty()) {
        std::cout << "ramp_explain: the ledger is empty\n";
        return 1;
    }
    struct RunSummary
    {
        std::map<std::string, std::uint64_t> kinds;
        std::string policy;
    };
    std::map<std::string, RunSummary> runs;
    for (const Event &event : events) {
        RunSummary &run = runs[event.run];
        ++run.kinds[event.kind];
        if (run.policy.empty() && event.policy != "unknown")
            run.policy = event.policy;
    }
    TextTable table({"run", "policy", "places", "promotes",
                     "evicts", "swaps", "epochs", "faults"});
    for (const auto &[label, run] : runs) {
        auto count = [&](const char *kind) -> std::uint64_t {
            const auto it = run.kinds.find(kind);
            return it == run.kinds.end() ? 0 : it->second;
        };
        table.addRow({label, run.policy,
                      std::to_string(count("place")),
                      std::to_string(count("promote")),
                      std::to_string(count("evict")),
                      std::to_string(count("swap-in") +
                                     count("swap-out")),
                      std::to_string(count("epoch")),
                      std::to_string(count("fault"))});
    }
    table.print(std::cout, "decision ledger: " +
                               std::to_string(events.size()) +
                               " records across " +
                               std::to_string(runs.size()) +
                               " runs");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool want_page = false;
    bool want_regret = false;
    bool want_churn = false;
    bool want_faults = false;
    bool want_tenants = false;
    bool have_tenant_filter = false;
    std::uint64_t page = noPage;
    std::uint64_t regret_k = 10;
    std::uint64_t tenant_filter = 0;
    std::vector<std::string> paths;

    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](const char *flag) {
            return perf::flagValue("ramp_explain", args, i, flag);
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--page") {
            want_page = true;
            page = perf::parseCountArg("ramp_explain", "--page",
                                       value("--page"));
        } else if (arg == "--top-regret") {
            want_regret = true;
            regret_k = perf::parseCountArg(
                "ramp_explain", "--top-regret", value("--top-regret"));
        } else if (arg == "--migration-churn") {
            want_churn = true;
        } else if (arg == "--faults") {
            want_faults = true;
        } else if (arg == "--tenants") {
            want_tenants = true;
        } else if (arg == "--tenant") {
            have_tenant_filter = true;
            tenant_filter = perf::parseCountArg(
                "ramp_explain", "--tenant", value("--tenant"));
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "ramp_explain: unknown flag '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 1) {
        usage();
        return 2;
    }

    std::vector<Event> events;
    std::string error;
    if (!loadEvents(paths[0], events, error)) {
        std::fprintf(stderr, "ramp_explain: %s\n", error.c_str());
        return 2;
    }

    // The tenant filter narrows every query (and the default
    // summary) to one tenant's records before any analysis runs.
    if (have_tenant_filter)
        std::erase_if(events, [&](const Event &event) {
            return event.tenant != tenant_filter;
        });

    int code = 0;
    bool ran = false;
    if (want_page) {
        code = std::max(code, queryPage(events, page));
        ran = true;
    }
    if (want_regret) {
        code = std::max(code, queryTopRegret(events, regret_k));
        ran = true;
    }
    if (want_churn) {
        code = std::max(code, queryChurn(events));
        ran = true;
    }
    if (want_faults) {
        code = std::max(code, queryFaults(events));
        ran = true;
    }
    if (want_tenants) {
        code = std::max(code, queryTenants(events));
        ran = true;
    }
    if (!ran)
        code = summarize(events);
    return code;
}
