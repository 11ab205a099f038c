/**
 * @file
 * Per-layer stage replays: one representative pass's accesses, in
 * round-robin core order, fed through each layer's public entry point
 * alone on one thread. Each stage's host time per access is the
 * layer's cost on that workload; their sum against the same pass
 * through HmaSystem::run gives the share no stage accounts for.
 */

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "dram/memory.hh"
#include "faults/injector.hh"
#include "hma/core_model.hh"
#include "hma/experiment.hh"
#include "perfbench.hh"
#include "placement/policies.hh"
#include "reliability/avf.hh"

namespace ramp::perfbench
{

namespace
{

/** Keep a value alive so the replay loops are not optimised away. */
volatile std::uint64_t sink = 0;

/** Cycles between successive replayed accesses (a nominal clock). */
constexpr Cycle replayCyclesPerAccess = 4;

/** Completion latency the core stage assumes for every read. */
constexpr Cycle replayReadLatency = 150;

double
perAccessNs(double seconds, std::size_t accesses)
{
    return accesses == 0 ? 0.0
                         : seconds * 1e9 / static_cast<double>(accesses);
}

/** The pass's accesses in round-robin core order. */
std::vector<MemRequest>
interleave(const std::vector<CoreTrace> &traces)
{
    std::vector<MemRequest> flat;
    std::size_t longest = 0;
    std::size_t total = 0;
    for (const CoreTrace &trace : traces) {
        longest = std::max(longest, trace.size());
        total += trace.size();
    }
    flat.reserve(total);
    for (std::size_t i = 0; i < longest; ++i)
        for (const CoreTrace &trace : traces)
            if (i < trace.size())
                flat.push_back(trace[i]);
    return flat;
}

} // namespace

StageTimes
replayStages(const StageInput &input, const SystemConfig &config,
             const InjectorConfig &storm)
{
    StageTimes out;
    const std::vector<MemRequest> flat = interleave(input.traces);
    const std::size_t n = flat.size();
    if (n == 0)
        throw std::runtime_error("stage replay: empty pass");

    // The whole pass, under the perf-focused static placement.
    auto t = Clock::now();
    PlacementMap placement = buildStaticPlacement(
        StaticPolicy::PerfFocused, input.profile, input.hbmPages);
    out.placementBuildS = secondsSince(t);
    {
        HmaSystem system(config);
        t = Clock::now();
        const SimResult result =
            system.run(input.traces, placement, nullptr, nullptr);
        out.hmaRunS = secondsSince(t);
        out.accesses = result.requests;
        out.hbmAccessFrac = result.hbmAccessFraction;
        const double hits = static_cast<double>(
            result.hbmStats.rowHits + result.ddrStats.rowHits);
        const double all =
            hits + static_cast<double>(result.hbmStats.rowMisses +
                                       result.ddrStats.rowMisses);
        out.rowHitFrac = all > 0 ? hits / all : 0.0;
    }

    // Placement lookup: memoryOf + deviceAddr (first touch allocates).
    std::vector<MemoryId> mems(n);
    std::vector<Addr> devs(n);
    t = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        mems[i] = placement.memoryOf(pageOf(flat[i].addr));
        devs[i] = placement.deviceAddr(flat[i].addr);
    }
    out.lookupNs = perAccessNs(secondsSince(t), n);

    // Profile: per-page read/write counts.
    {
        PageProfile profile;
        t = Clock::now();
        for (const MemRequest &req : flat)
            profile.recordAccess(pageOf(req.addr), req.isWrite);
        out.profileNs = perAccessNs(secondsSince(t), n);
        sink = sink + profile.footprintPages();
    }

    // Reliability: per-line ACE intervals, then the page fold.
    {
        AvfTracker avf;
        t = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            avf.onAccess(flat[i].addr, flat[i].isWrite,
                         i * replayCyclesPerAccess);
        out.avfNs = perAccessNs(secondsSince(t), n);
        t = Clock::now();
        avf.finalize(n * replayCyclesPerAccess + 1);
        sink = sink + avf.pageAvfs().size();
        out.finalizeMs = secondsSince(t) * 1e3;
    }

    // DRAM timing on both devices, at the looked-up addresses.
    {
        DramMemory hbm(config.hbm);
        DramMemory ddr(config.ddr);
        Cycle last = 0;
        t = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            DramMemory &dram = mems[i] == MemoryId::HBM ? hbm : ddr;
            last = dram.access(i * replayCyclesPerAccess, devs[i],
                               flat[i].isWrite);
        }
        out.dramNs = perAccessNs(secondsSince(t), n);
        sink = sink + last;
    }

    // Core timing: each core alone against a fixed read latency.
    {
        std::uint64_t instructions = 0;
        t = Clock::now();
        for (const CoreTrace &trace : input.traces) {
            CoreModel core(trace, config.issueWidth, config.robSize,
                           config.maxOutstandingReads);
            while (!core.done()) {
                const Cycle issue = core.nextIssueTime();
                core.retire(core.current().isWrite
                                ? issue
                                : issue + replayReadLatency);
            }
            instructions += core.instructions();
        }
        out.coreNs = perAccessNs(secondsSince(t), n);
        sink = sink + instructions;
    }

    // Migration: the cross-counter engine (the costliest scheme),
    // with a boundary every MEA interval's worth of accesses.
    {
        const auto engine =
            makeEngine(DynamicScheme::CrossCounter, config);
        const std::size_t boundary_every = std::max<std::size_t>(
            1, static_cast<std::size_t>(engine->interval() /
                                        replayCyclesPerAccess));
        double access_s = 0;
        double interval_s = 0;
        std::uint64_t intervals = 0;
        Cycle penalty = 0;
        for (std::size_t lo = 0; lo < n; lo += boundary_every) {
            const std::size_t hi = std::min(n, lo + boundary_every);
            t = Clock::now();
            for (std::size_t i = lo; i < hi; ++i) {
                const PageId page = pageOf(flat[i].addr);
                engine->onAccess(page, flat[i].isWrite, mems[i]);
                penalty += engine->remapPenalty(page);
            }
            access_s += secondsSince(t);
            t = Clock::now();
            const MigrationDecision decision = engine->onInterval(
                hi * replayCyclesPerAccess, placement);
            interval_s += secondsSince(t);
            ++intervals;
            sink = sink + decision.pagesMoved();
        }
        out.migrationOnAccessNs = perAccessNs(access_s, n);
        out.migrationIntervalMs =
            interval_s * 1e3 / static_cast<double>(intervals);
        sink = sink + penalty;
    }

    // Faults: the storm injector's per-access bookkeeping.
    {
        FaultInjector injector(storm);
        t = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            injector.onAccess(pageOf(flat[i].addr), flat[i].isWrite,
                              mems[i]);
        out.faultsOnAccessNs = perAccessNs(secondsSince(t), n);
        sink = sink + injector.produced();
    }

    // Service arbitration over the representative demand set.
    {
        constexpr int batch = 16;
        std::vector<double> per_call;
        const auto started = Clock::now();
        while (per_call.size() < 64 || secondsSince(started) < 0.02) {
            std::uint64_t clips = 0;
            t = Clock::now();
            for (int b = 0; b < batch; ++b)
                sink = sink + service::arbitrate(
                                  service::ArbiterPolicy::FairShare,
                                  input.arbiterCapacity,
                                  input.demands, &clips)
                                  .size();
            per_call.push_back(secondsSince(t) * 1e6 / batch);
            sink = sink + clips;
        }
        out.arbitrateUs = median(std::move(per_call));
    }

    // Tenant synthesis (the service's in-run trace generation).
    if (!input.tenantSpecs.empty()) {
        t = Clock::now();
        for (const service::TenantSpec &spec : input.tenantSpecs) {
            const auto traces = service::buildTenantTrace(spec);
            const PageProfile profile =
                service::profileTenantTrace(traces);
            for (const CoreTrace &trace : traces)
                out.tenantRequests += trace.size();
            sink = sink + profile.footprintPages();
        }
        out.tenantGenS = secondsSince(t);
    }
    return out;
}

} // namespace ramp::perfbench
