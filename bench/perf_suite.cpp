/**
 * @file
 * The self-profiling microbenchmark suite of the simulator's hot
 * kernels (src/perf framework — warmup detection, repeated timed
 * iterations, min-of-N reporting).
 *
 * Covers every inner loop the figure binaries spend their time in:
 * trace generation and its Zipf sampler (two table sizes), one
 * cache and the full cache hierarchy, the AVF tracker, the DDR and
 * HBM timing models, the migration counters (Full Counters, MEA),
 * the full HmaSystem access path, migration-epoch processing,
 * FaultSim trial batches, and thread-pool dispatch overhead (4
 * workers and 1). Run with --bench-out to emit the
 * BENCH_perf_suite.json document that bench_diff gates regressions
 * against (the committed baseline lives at the repo root); name one
 * or more cases as positional arguments to run a subset.
 */

#include <atomic>
#include <iostream>

#include "bench_common.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "dram/memory.hh"
#include "migration/counters.hh"
#include "reliability/avf.hh"
#include "reliability/faultsim.hh"
#include "runner/pool.hh"
#include "trace/generator.hh"

using namespace ramp;
using namespace ramp::bench;

namespace
{

/**
 * A kernel's item count, made to depend on `sink` (a fold of every
 * result the kernel computed) so the compiler cannot drop the work.
 * The count is off by one only for one sink value out of 2^64.
 */
std::uint64_t
keepLive(std::uint64_t items, std::uint64_t sink)
{
    return items + (sink == ~std::uint64_t{0} ? 1 : 0);
}

/** Register the suite over workload data prepared once. */
perf::Microbench
buildSuite(const SystemConfig &config, const WorkloadData &data)
{
    perf::Microbench suite;

    suite.add("trace_generation", "requests", [] {
        GeneratorOptions options;
        options.traceScale = 0.05;
        const auto traces =
            generateTraces(homogeneousWorkload("mcf"), options);
        return computeStats(traces).requests;
    });

    suite.add("cache_hierarchy", "accesses", [] {
        CacheHierarchy hierarchy(HierarchyConfig{});
        Rng rng(7);
        constexpr std::uint64_t accesses = 400'000;
        for (std::uint64_t i = 0; i < accesses; ++i) {
            const CoreId core = static_cast<CoreId>(i % 16);
            if (i % 4 == 0)
                hierarchy.accessInst(core, rng.nextRange(8 << 20));
            else
                hierarchy.accessData(core, rng.nextRange(8 << 20),
                                     rng.nextBool(0.3));
        }
        return accesses;
    });

    suite.add("cache_access", "accesses", [] {
        SetAssocCache cache({512 * 1024, 16, lineSize});
        Rng rng(6);
        constexpr std::uint64_t accesses = 400'000;
        std::uint64_t hits = 0;
        for (std::uint64_t i = 0; i < accesses; ++i)
            hits += cache.access(rng.nextRange(8 << 20),
                                 rng.nextBool(0.3))
                        .hit;
        return keepLive(accesses, hits);
    });

    for (const auto &[name, pages] :
         {std::pair{"zipf_sample", std::uint64_t{65'536}},
          std::pair{"zipf_sample_1k", std::uint64_t{1'024}}}) {
        const ZipfSampler zipf(pages, 0.8);
        suite.add(name, "samples", [zipf] {
            Rng rng(1);
            constexpr std::uint64_t samples = 200'000;
            std::uint64_t sink = 0;
            for (std::uint64_t i = 0; i < samples; ++i)
                sink += zipf.sample(rng);
            return keepLive(samples, sink);
        });
    }

    suite.add("avf_tracker", "accesses", [] {
        AvfTracker tracker;
        Rng rng(2);
        constexpr std::uint64_t accesses = 400'000;
        Cycle now = 0;
        for (std::uint64_t i = 0; i < accesses; ++i)
            tracker.onAccess(rng.nextRange(1 << 26),
                             rng.nextBool(0.3), now += 10);
        return keepLive(accesses, tracker.touchedPages());
    });

    for (const auto &[name, dram_config] :
         {std::pair{"dram_access_ddr", ddr3Config()},
          std::pair{"dram_access_hbm", hbmConfig()}}) {
        suite.add(name, "accesses", [dram_config] {
            DramMemory dram(dram_config);
            Rng rng(3);
            constexpr std::uint64_t accesses = 400'000;
            Cycle now = 0;
            std::uint64_t sink = 0;
            for (std::uint64_t i = 0; i < accesses; ++i)
                sink += dram.access(now += 4, rng.nextRange(16 << 20),
                                    rng.nextBool(0.3));
            return keepLive(accesses, sink);
        });
    }

    suite.add("full_counters", "accesses", [] {
        FullCounterTable counters;
        Rng rng(4);
        constexpr std::uint64_t accesses = 400'000;
        for (std::uint64_t i = 0; i < accesses; ++i)
            counters.onAccess(rng.nextRange(10'000),
                              rng.nextBool(0.3));
        return keepLive(accesses, counters.touched().size());
    });

    suite.add("mea_tracker", "accesses", [] {
        MeaTracker mea(32);
        Rng rng(5);
        constexpr std::uint64_t accesses = 400'000;
        for (std::uint64_t i = 0; i < accesses; ++i)
            mea.onAccess(rng.nextRange(10'000));
        return keepLive(accesses, mea.hotPages().size());
    });

    suite.add("remap_cache", "accesses", [] {
        // MemPod's 64 KB remap cache over twice its reach, so about
        // half the lookups miss and evict.
        RemapCache cache(8192);
        Rng rng(6);
        constexpr std::uint64_t accesses = 400'000;
        Cycle sink = 0;
        for (std::uint64_t i = 0; i < accesses; ++i)
            sink += cache.lookup(rng.nextRange(16'384));
        return keepLive(accesses, sink);
    });

    suite.add("hma_access", "accesses", [&config, &data] {
        // The full demand path: placement lookup, DRAM timing,
        // AVF tracking (the DDR-only profiling pass).
        const SimResult result = runDdrOnly(config, data);
        return result.requests;
    });

    suite.add("migration_epochs", "accesses", [&config] {
        const auto engine =
            makeEngine(DynamicScheme::CrossCounter, config);
        PlacementMap map(config.hbmPages());
        ZipfSampler zipf(32'768, 0.8);
        Rng rng(11);
        constexpr std::uint64_t per_epoch = 20'000;
        constexpr std::uint64_t epochs = 16;
        Cycle now = 0;
        for (std::uint64_t e = 0; e < epochs; ++e) {
            for (std::uint64_t i = 0; i < per_epoch; ++i) {
                const PageId page =
                    static_cast<PageId>(zipf.sample(rng));
                engine->onAccess(page, rng.nextBool(0.3),
                                 map.memoryOf(page));
            }
            now += engine->interval();
            const MigrationDecision decision =
                engine->onInterval(now, map);
            (void)decision;
        }
        return per_epoch * epochs;
    });

    suite.add("faultsim_trials", "trials", [] {
        const FaultSim sim(FaultSimConfig::ddrChipKill());
        static std::uint64_t seed = 1;
        // A fresh seed per iteration: warmup must not train the
        // branch predictor on one fault pattern.
        const FaultSimResult result =
            sim.run(2 * FaultSim::shardTrials, seed++);
        return result.trials;
    });

    for (const auto &[name, width] :
         {std::pair{"pool_dispatch", 4u},
          std::pair{"pool_dispatch_1", 1u}}) {
        suite.add(name, "tasks", [width] {
            runner::ThreadPool pool(width);
            constexpr std::size_t rounds = 64;
            constexpr std::size_t tasks = 64;
            std::atomic<std::uint64_t> sink{0};
            for (std::size_t round = 0; round < rounds; ++round)
                pool.runIndexed(tasks, [&](std::size_t index) {
                    sink.fetch_add(runner::taskSeed(1, index),
                                   std::memory_order_relaxed);
                });
            return static_cast<std::uint64_t>(rounds * tasks);
        });
    }

    return suite;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain("perf_suite", [&] {
        Harness harness("perf_suite", argc, argv);
        const SystemConfig &config = harness.config();

        GeneratorOptions small;
        small.traceScale = 0.05;
        const WorkloadData data =
            prepareWorkload(homogeneousWorkload("mcf"), small);

        const perf::Microbench suite = buildSuite(config, data);
        const auto results = runMicrobenchSuite(harness, suite);
        printMicrobenchTable(results,
                             "perf_suite: hot-kernel throughput");
        return harness.finish();
    });
}
