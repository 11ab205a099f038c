/**
 * @file
 * The self-profiling microbenchmark suite of the kernels perfbench
 * does not time (src/perf framework — warmup detection, repeated
 * timed iterations, min-of-N reporting).
 *
 * perfbench (perfbench/, defined by BENCHMARK.json) times every
 * stage of the simulated access path: trace generation, AVF
 * tracking, DRAM timing, the HmaSystem access loop and the
 * migration epochs. This suite covers the rest: the Zipf sampler
 * (two table sizes), the migration counters (Full Counters, MEA),
 * MemPod's remap cache, FaultSim trial batches, and thread-pool
 * dispatch overhead (4 workers and 1). Run with --bench-out to emit
 * the BENCH_perf_suite.json document that bench_diff gates
 * regressions against (the committed baseline lives at the repo
 * root); name one or more cases as positional arguments to run a
 * subset.
 */

#include <atomic>
#include <iostream>

#include "bench_common.hh"
#include "common/rng.hh"
#include "migration/counters.hh"
#include "reliability/faultsim.hh"
#include "runner/pool.hh"

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

/** Register the suite. */
perf::Microbench
buildSuite()
{
    perf::Microbench suite;

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

    suite.add("full_counters", "accesses", [] {
        FullCounterTable counters;
        Rng rng(4);
        constexpr std::uint64_t accesses = 1'600'000;
        for (std::uint64_t i = 0; i < accesses; ++i)
            counters.onAccess(rng.nextRange(10'000),
                              rng.nextBool(0.3));
        return keepLive(accesses, counters.touched().size());
    });

    suite.add("mea_tracker", "accesses", [] {
        MeaTracker mea(32);
        Rng rng(5);
        constexpr std::uint64_t accesses = 1'600'000;
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

    suite.add("faultsim_trials", "trials", [] {
        const FaultSim sim(FaultSimConfig::ddrChipKill());
        static std::uint64_t seed = 1;
        // A fresh seed per iteration: warmup must not train the
        // branch predictor on one fault pattern.
        const FaultSimResult result =
            sim.run(16 * FaultSim::shardTrials, seed++);
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
        const perf::Microbench suite = buildSuite();
        const auto results = runMicrobenchSuite(harness, suite);
        printMicrobenchTable(results,
                             "perf_suite: hot-kernel throughput");
        return harness.finish();
    });
}
