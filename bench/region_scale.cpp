/**
 * @file
 * Region-vs-page tracking at datacenter footprints.
 *
 * The scaling argument for src/region: per-page profiling metadata
 * grows with the footprint (millions of hash-table entries at
 * millions of 4 KB pages) while the RegionMonitor's span table is
 * bounded by maxRegions regardless of footprint. This bench drives
 * one precomputed Zipf access stream through both trackers and
 * reports accesses/sec plus the tracked-metadata footprint, so the
 * "bounded metadata, faster tracking" claim is a measured number
 * gated by bench_diff (committed baseline BENCH_region_scale.json).
 *
 * Flags (in addition to the shared harness flags):
 *   --pages N      footprint in pages        (default 1,000,000)
 *   --accesses N   stream length             (default 4,000,000)
 *   --regions N    RegionMonitor maxRegions  (default 1,024)
 *   --scheme S     scheme list for the scheme_eval case
 * Remaining positional arguments select microbench cases.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "placement/map.hh"
#include "placement/profile.hh"
#include "region/engine.hh"
#include "region/region.hh"
#include "region/scheme.hh"

using namespace ramp;
using namespace ramp::bench;

namespace
{

struct ScaleOptions
{
    std::uint64_t pages = 1'000'000;
    std::uint64_t accesses = 4'000'000;
    std::uint64_t maxRegions = 1'024;
    std::vector<RegionScheme> schemes;

    /** Positional arguments left over: the case filter. */
    std::vector<std::string> cases;
};

/** Pull the bench-specific flags out of the harness positionals. */
ScaleOptions
parseScaleOptions(const std::vector<std::string> &positional)
{
    ScaleOptions options;
    options.schemes = defaultRegionSchemes();
    for (std::size_t i = 0; i < positional.size(); ++i) {
        const std::string &arg = positional[i];
        const auto count = [&](const char *flag) {
            return perf::parseCountArg(
                "region_scale", flag,
                perf::flagValue("region_scale", positional, i, flag), 1);
        };
        if (arg == "--pages") {
            options.pages = count("--pages");
        } else if (arg == "--accesses") {
            options.accesses = count("--accesses");
        } else if (arg == "--regions") {
            options.maxRegions = count("--regions");
        } else if (arg == "--scheme") {
            std::string error;
            options.schemes = parseRegionSchemes(
                perf::flagValue("region_scale", positional, i, "--scheme"),
                error);
            if (!error.empty()) {
                std::cerr << "region_scale: --scheme: " << error
                          << "\n";
                std::exit(2);
            }
        } else {
            options.cases.push_back(arg);
        }
    }
    return options;
}

/** The shared access stream: page ids with the write bit packed in. */
std::vector<std::uint64_t>
buildStream(const ScaleOptions &options)
{
    ZipfSampler zipf(options.pages, 0.8);
    Rng rng(2018);
    std::vector<std::uint64_t> stream;
    stream.reserve(options.accesses);
    for (std::uint64_t i = 0; i < options.accesses; ++i) {
        const std::uint64_t page = zipf.sample(rng);
        const std::uint64_t write = rng.nextBool(0.3) ? 1 : 0;
        stream.push_back(page << 1 | write);
    }
    return stream;
}

RegionConfig
monitorConfig(const ScaleOptions &options)
{
    RegionConfig config;
    config.maxRegions = options.maxRegions;
    config.minRegions = std::min<std::uint64_t>(
        config.minRegions, options.maxRegions);
    config.ledger = false; // tracking cost only, no record I/O
    return config;
}

/** Replay the stream with an epoch boundary every 1/16th. */
void
replayIntoMonitor(RegionMonitor &monitor,
                  const std::vector<std::uint64_t> &stream)
{
    const std::uint64_t epoch =
        std::max<std::uint64_t>(1, stream.size() / 16);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::uint64_t packed = stream[i];
        monitor.recordAccess(static_cast<PageId>(packed >> 1),
                             (packed & 1) != 0);
        if ((i + 1) % epoch == 0)
            monitor.endEpoch();
    }
}

perf::Microbench
buildSuite(const ScaleOptions &options,
           const std::vector<std::uint64_t> &stream,
           const RegionMonitor &adapted)
{
    perf::Microbench suite;

    suite.add("page_tracking", "accesses", [&options, &stream] {
        PageProfile profile;
        profile.reserve(options.pages);
        for (const std::uint64_t packed : stream)
            profile.recordAccess(static_cast<PageId>(packed >> 1),
                                 (packed & 1) != 0);
        return static_cast<std::uint64_t>(stream.size());
    });

    suite.add("region_tracking", "accesses", [&options, &stream] {
        RegionMonitor monitor(monitorConfig(options));
        monitor.initFootprint(0, options.pages);
        replayIntoMonitor(monitor, stream);
        return static_cast<std::uint64_t>(stream.size());
    });

    suite.add("scheme_eval", "evaluations",
              [&options, &adapted] {
                  const SchemeEngine engine(options.schemes);
                  PlacementMap map(std::max<std::uint64_t>(
                      1, options.pages / 16));
                  constexpr std::uint64_t rounds = 64;
                  std::size_t sink = 0;
                  for (std::uint64_t r = 0; r < rounds; ++r)
                      sink += engine.evaluate(adapted, map).size();
                  if (sink == SIZE_MAX)
                      std::abort(); // defeat dead-code elimination
                  return rounds;
              });

    return suite;
}

/** The acceptance-criterion table: entries and bytes per tracker. */
void
printMetadataTable(const ScaleOptions &options,
                   const RegionMonitor &adapted)
{
    PageProfile profile;
    profile.reserve(options.pages);
    ZipfSampler zipf(options.pages, 0.8);
    Rng rng(2018);
    for (std::uint64_t i = 0; i < options.accesses; ++i) {
        profile.recordAccess(static_cast<PageId>(zipf.sample(rng)),
                             rng.nextBool(0.3));
    }
    // An unordered_map node costs the payload plus a next pointer
    // plus its share of the bucket array (~1 pointer at the default
    // load factor).
    const std::uint64_t page_entries = profile.footprintPages();
    const std::uint64_t per_entry =
        sizeof(std::pair<const PageId, PageStats>) +
        2 * sizeof(void *);
    const std::uint64_t page_bytes = page_entries * per_entry;

    const std::uint64_t region_entries = adapted.regions().size();
    const std::uint64_t region_bytes = adapted.trackedBytes();

    TextTable table({"tracker", "entries", "bytes", "bytes/page"});
    table.addRow({"per-page profile", TextTable::num(page_entries),
                  TextTable::num(page_bytes),
                  TextTable::num(static_cast<double>(page_bytes) /
                                     static_cast<double>(
                                         options.pages),
                                 2)});
    table.addRow({"region monitor", TextTable::num(region_entries),
                  TextTable::num(region_bytes),
                  TextTable::num(static_cast<double>(region_bytes) /
                                     static_cast<double>(
                                         options.pages),
                                 2)});
    const double entry_ratio =
        region_entries == 0
            ? 0.0
            : static_cast<double>(page_entries) /
                  static_cast<double>(region_entries);
    table.print(std::cout,
                "region_scale: tracked metadata at " +
                    TextTable::num(options.pages) + " pages (" +
                    TextTable::num(entry_ratio, 1) +
                    "x fewer entries)");
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain("region_scale", [&] {
        Harness harness("region_scale", argc, argv);
        const ScaleOptions options =
            parseScaleOptions(harness.options().positional);

        std::cout << "region_scale: " << options.pages
                  << " pages, " << options.accesses
                  << " accesses, maxRegions " << options.maxRegions
                  << "\n";

        const auto stream = buildStream(options);

        // One adapted monitor shared by scheme_eval and the
        // metadata table: the steady state after the full stream.
        RegionMonitor adapted(monitorConfig(options));
        adapted.initFootprint(0, options.pages);
        replayIntoMonitor(adapted, stream);

        const perf::Microbench suite =
            buildSuite(options, stream, adapted);
        const auto results =
            suite.run(perf::BenchOptions{}, options.cases);
        harness.addMicrobenchResults(results);
        printMicrobenchTable(
            results, "region_scale: tracking throughput");

        printMetadataTable(options, adapted);
        std::cout << "region_scale: " << adapted.merges()
                  << " merges, " << adapted.splits()
                  << " splits across " << adapted.epochs()
                  << " epochs\n";
        return harness.finish();
    });
}
