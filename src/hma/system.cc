#include "hma/system.hh"

#include <algorithm>
#include <type_traits>

#include "common/logging.hh"
#include "eventlog/eventlog.hh"
#include "health/health.hh"
#include "hma/core_model.hh"
#include "prof/prof.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{

namespace
{

/** Telemetry handles of the simulator hot path (one lookup ever). */
struct SystemTelemetry
{
    telemetry::Counter &hbmAccesses =
        telemetry::metrics().counter("hma.accesses.hbm");
    telemetry::Counter &ddrAccesses =
        telemetry::metrics().counter("hma.accesses.ddr");
    telemetry::Counter &runs =
        telemetry::metrics().counter("hma.runs");
    telemetry::Counter &instructions =
        telemetry::metrics().counter("hma.instructions");
    telemetry::Counter &boundaries =
        telemetry::metrics().counter(
            "migration.interval_boundaries");
    telemetry::Counter &epochs =
        telemetry::metrics().counter("migration.epochs");
    telemetry::Counter &promoted =
        telemetry::metrics().counter("migration.pages_promoted");
    telemetry::Counter &demoted =
        telemetry::metrics().counter("migration.pages_demoted");
    telemetry::Counter &swaps =
        telemetry::metrics().counter("migration.swaps");
    telemetry::HistogramMetric &epochPages =
        telemetry::metrics().histogram(
            "migration.epoch_pages",
            telemetry::FixedHistogram::linear(0, 512, 16));
    telemetry::HistogramMetric &epochGap =
        telemetry::metrics().histogram(
            "migration.epoch_gap_intervals",
            telemetry::FixedHistogram::linear(0, 32, 16));
    telemetry::Counter &faultsInjected =
        telemetry::metrics().counter("faults.injected");
    telemetry::Counter &faultsCorrectable =
        telemetry::metrics().counter("faults.correctable");
    telemetry::Counter &faultsUncorrected =
        telemetry::metrics().counter("faults.uncorrected");
    telemetry::Counter &faultsCapacityPages =
        telemetry::metrics().counter("faults.capacity_pages");
    telemetry::Counter &faultsRetired =
        telemetry::metrics().counter("faults.retired");
    telemetry::Counter &faultsRemaps =
        telemetry::metrics().counter("faults.remaps");
    telemetry::Counter &faultsSweepMoves =
        telemetry::metrics().counter("faults.sweep_moves");
    telemetry::Counter &faultsRetries =
        telemetry::metrics().counter("faults.retries");
    telemetry::Counter &faultsDegradedRuns =
        telemetry::metrics().counter("faults.degraded_runs");
};

SystemTelemetry &
systemTelemetry()
{
    static SystemTelemetry telemetry;
    return telemetry;
}

} // namespace

HmaSystem::HmaSystem(const SystemConfig &config)
    : config_(config), hbm_(config.hbm), ddr_(config.ddr)
{
    if (config.cores <= 0)
        ramp_fatal("system needs at least one core");
}

/**
 * The hash-free access path. The compiled trace gives every request
 * its page's slot, interned once per workload (trace/compiled.hh).
 * The access loop reads that slot and touches only flat per-slot
 * state: the cached placement entry handle, the read/write counts,
 * the AVF line times, and the slot state the engine and the injector
 * were bound to. Epoch-time code (migration decisions, fault
 * responses) still speaks PageId and pays one flat-table probe per
 * page it moves.
 *
 * One RunState per worker thread is reused run after run, so its
 * vectors keep their capacity instead of being reallocated.
 */
struct HmaSystem::RunState
{
    /** hbmSince of a page that is not in HBM. */
    static constexpr Cycle notInHbm = UINT64_MAX;
    /**
     * hbmSince of a page whose run-start tier is not read yet. It is
     * read at the page's first access, unless a tier crossing comes
     * first: every enter()/leave() caller is a real crossing, so a
     * page that leaves HBM first was there from cycle 0, and one that
     * enters first was not.
     */
    static constexpr Cycle unresolved = UINT64_MAX - 1;

    struct Slot
    {
        /** Placement entry; taken at the page's first access. */
        PlacementMap::Handle handle;
        /** Live counts; the AVF is filled in at the end. */
        PageStats stats;
    };

    /** The compiled trace's slot <-> PageId table. */
    const PageIndex *index = nullptr;
    /** AVF by slot. */
    AvfTracker avf;
    std::vector<Slot> slots;
    /** Slots in first-access order (the profile's insertion order). */
    std::vector<std::uint32_t> touchOrder;
    /** @{ @name HBM residency for the SER integral (Equation 2) */
    std::vector<Cycle> hbmSince;  ///< start of the open HBM stay
    std::vector<Cycle> hbmCycles; ///< closed HBM stays, summed
    /** @} */

    /** Size every per-slot vector to the compiled trace's pages. */
    void begin(const CompiledTrace &compiled)
    {
        index = &compiled.index();
        const std::size_t pages = compiled.pages();
        avf.reset(pages);
        slots.assign(pages, Slot{});
        touchOrder.clear();
        touchOrder.reserve(pages);
        hbmCycles.assign(pages, 0);
        hbmSince.assign(pages, unresolved);
    }

    /** First access of a slot whose page is now in `mem`. */
    void resolve(std::uint32_t slot, MemoryId mem)
    {
        if (hbmSince[slot] == unresolved)
            hbmSince[slot] = mem == MemoryId::HBM ? 0 : notInHbm;
    }

    /** Slot of a page; PageIndex::none when the run never touches it. */
    std::uint32_t slotOf(PageId page) const { return index->find(page); }

    /** Live access count of a page (zero when untouched so far). */
    std::uint64_t hotness(PageId page) const
    {
        const std::uint32_t slot = slotOf(page);
        return slot == PageIndex::none ? 0
                                       : slots[slot].stats.hotness();
    }

    /**
     * A page entered HBM. Only the run's own pages count toward its
     * SER, so other pages are ignored.
     */
    void enter(PageId page, Cycle now)
    {
        const std::uint32_t slot = slotOf(page);
        if (slot != PageIndex::none)
            hbmSince[slot] = now;
    }

    /** A page left HBM: close its open stay, if any. */
    void leave(PageId page, Cycle now)
    {
        const std::uint32_t slot = slotOf(page);
        if (slot == PageIndex::none || hbmSince[slot] == notInHbm)
            return;
        const Cycle since =
            hbmSince[slot] == unresolved ? 0 : hbmSince[slot];
        hbmCycles[slot] += now - since;
        hbmSince[slot] = notInHbm;
    }

    /** Fraction of [0, makespan) a touched slot's page spent in HBM. */
    double hbmFraction(std::uint32_t slot, Cycle makespan) const
    {
        if (makespan == 0)
            return 0.0;
        Cycle total = hbmCycles[slot];
        if (hbmSince[slot] != notInHbm)
            total += makespan - std::min(makespan, hbmSince[slot]);
        return std::min(1.0, static_cast<double>(total) /
                                 static_cast<double>(makespan));
    }
};

namespace
{

/** Device addresses of every line of a page (allocates the frame). */
std::vector<Addr>
pageLineAddrs(PlacementMap &map, PageId page)
{
    // One entry lookup: the page's lines are contiguous in its frame.
    const Addr base =
        map.deviceAddr(map.handleOf(page), pageBase(page));
    std::vector<Addr> addrs(linesPerPage);
    for (std::uint64_t l = 0; l < linesPerPage; ++l)
        addrs[l] = base + l * lineSize;
    return addrs;
}

} // namespace

void
HmaSystem::scheduleTransfer(Cycle &next_slot,
                            const std::vector<Addr> &src_addrs,
                            MemoryId src_mem,
                            const std::vector<Addr> &dst_addrs,
                            MemoryId dst_mem,
                            std::deque<MigOp> &transfers)
{
    for (std::size_t i = 0; i < src_addrs.size(); ++i) {
        transfers.push_back({next_slot, src_addrs[i], src_mem,
                             false});
        transfers.push_back({next_slot, dst_addrs[i], dst_mem, true});
        next_slot += config_.migLineSpacingCycles;
    }
}

void
HmaSystem::applyDecision(PlacementMap &map,
                         const MigrationDecision &decision, Cycle now,
                         RunState &run, std::deque<MigOp> &transfers)
{
    // Pace this decision's copies after any still-draining ones.
    Cycle next_slot = now;
    if (!transfers.empty())
        next_slot = std::max(next_slot, transfers.back().when);

    // Evictions first: they free the frames promotions fill.
    for (const PageId page : decision.evictions) {
        auto src_addrs = pageLineAddrs(map, page);
        if (!map.evictToDdr(page))
            continue;
        run.leave(page, now);
        scheduleTransfer(next_slot, src_addrs, MemoryId::HBM,
                         pageLineAddrs(map, page), MemoryId::DDR,
                         transfers);
    }

    for (const auto &[hbm_page, ddr_page] : decision.swaps) {
        auto hbm_addrs = pageLineAddrs(map, hbm_page);
        auto ddr_addrs = pageLineAddrs(map, ddr_page);
        if (!map.swap(hbm_page, ddr_page))
            continue;
        run.leave(hbm_page, now);
        run.enter(ddr_page, now);
        // Out-of-HBM copy and into-HBM copy; frames were exchanged,
        // so the new device addresses are the old partner's.
        scheduleTransfer(next_slot, hbm_addrs, MemoryId::HBM,
                         pageLineAddrs(map, hbm_page), MemoryId::DDR,
                         transfers);
        scheduleTransfer(next_slot, ddr_addrs, MemoryId::DDR,
                         pageLineAddrs(map, ddr_page), MemoryId::HBM,
                         transfers);
    }

    for (const PageId page : decision.promotions) {
        auto src_addrs = pageLineAddrs(map, page);
        if (!map.promoteToHbm(page))
            continue;
        run.enter(page, now);
        scheduleTransfer(next_slot, src_addrs, MemoryId::DDR,
                         pageLineAddrs(map, page), MemoryId::HBM,
                         transfers);
    }
}

void
HmaSystem::applyFaultEpoch(FaultInjector &injector,
                           std::uint64_t epoch, Cycle now,
                           PlacementMap &map, MigrationEngine *engine,
                           ResponseState &response, SimResult &result,
                           RunState &run, std::deque<MigOp> &transfers)
{
    const auto faults = injector.onEpoch(epoch);

    // Pace response copies after any still-draining ones, exactly
    // like a migration decision would.
    Cycle next_slot = now;
    if (!transfers.empty())
        next_slot = std::max(next_slot, transfers.back().when);

    // Phase 1: land this epoch's faults.
    for (const InjectedFault &fault : faults) {
        ++result.faultsInjected;

        std::uint64_t capacity_pages = 0;
        if (fault.kind == FaultEventKind::CapacityLoss) {
            capacity_pages = fault.pages;
            if (capacity_pages == 0 && fault.pct > 0)
                capacity_pages = static_cast<std::uint64_t>(
                    static_cast<double>(map.hbmCapacityPages()) *
                    fault.pct / 100.0);
        }
        const MemoryId struck_tier =
            fault.kind == FaultEventKind::CapacityLoss
                ? fault.tier
                : map.memoryOf(fault.page);
        RAMP_OBS(Telemetry, systemTelemetry().faultsInjected.add(1));
        RAMP_OBS(Events, {
            eventlog::EventRecord record;
            record.kind = eventlog::EventKind::Inject;
            record.policy = eventlog::PolicyId::FaultInject;
            record.epoch = now;
            record.page = fault.page;
            record.partner = invalidPage;
            record.detail = static_cast<std::uint8_t>(fault.kind);
            record.region = static_cast<std::uint32_t>(fault.source);
            record.span = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(capacity_pages, UINT32_MAX));
            record.moved = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(fault.count, UINT32_MAX));
            record.src = eventlog::tierOf(struck_tier);
            record.dst = eventlog::tierOf(struck_tier);
            eventlog::emit(record);
        });

        switch (fault.kind) {
          case FaultEventKind::Correctable: {
            // Correctable strikes survive ECC; they only raise the
            // page's effective risk for the classifiers.
            RAMP_OBS(Telemetry,
                     systemTelemetry().faultsCorrectable.add(1));
            response.noteCorrectable(fault.page, fault.count);
            if (engine != nullptr)
                engine->onFault(fault.page, false, now);
            break;
          }
          case FaultEventKind::Uncorrected: {
            RAMP_OBS(Telemetry,
                     systemTelemetry().faultsUncorrected.add(1));
            // Capture the dying frame's addresses before the retire
            // drops it — the salvage copy reads from there.
            const auto src_addrs = pageLineAddrs(map, fault.page);
            const RetireOutcome outcome =
                map.retirePage(fault.page);
            if (!outcome.retired) {
                if (engine != nullptr)
                    engine->onFault(fault.page, true, now);
                break; // second strike on an already-retired page
            }
            ++result.pagesRetired;
            RAMP_OBS(Telemetry, systemTelemetry().faultsRetired.add(1));
            if (outcome.from == MemoryId::HBM &&
                outcome.to == MemoryId::DDR)
                run.leave(fault.page, now);
            else if (outcome.from == MemoryId::DDR &&
                     outcome.to == MemoryId::HBM)
                run.enter(fault.page, now);
            // Salvage copy onto the fresh frame (same tier when the
            // survivor was full; the remap is then owed and retried).
            scheduleTransfer(next_slot, src_addrs, outcome.from,
                             pageLineAddrs(map, fault.page),
                             outcome.to, transfers);
            RAMP_OBS(Events, {
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Retire;
                record.policy = eventlog::PolicyId::FaultInject;
                record.epoch = now;
                record.page = fault.page;
                record.partner = invalidPage;
                record.src = eventlog::tierOf(outcome.from);
                record.dst = eventlog::tierOf(outcome.to);
                // The page's live hotness and running AVF: ACE so
                // far over the window so far (Equation 1 at `now`).
                const std::uint32_t slot = run.slotOf(fault.page);
                if (slot != PageIndex::none && now > 0) {
                    record.hotness = static_cast<float>(
                        run.slots[slot].stats.hotness());
                    record.avf = static_cast<float>(
                        static_cast<double>(run.avf.aceOf(slot)) /
                        (static_cast<double>(linesPerPage) *
                         static_cast<double>(now)));
                }
                eventlog::emit(record);
            });
            if (outcome.crossedTier) {
                ++result.responseMoves;
                RAMP_OBS(Telemetry, systemTelemetry().faultsRemaps.add(1));
                RAMP_OBS(Events, {
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Remap;
                    record.policy =
                        eventlog::PolicyId::FaultInject;
                    record.epoch = now;
                    record.page = fault.page;
                    record.partner = invalidPage;
                    record.src = eventlog::tierOf(outcome.from);
                    record.dst = eventlog::tierOf(outcome.to);
                    record.detail = 0; // retire
                    eventlog::emit(record);
                });
            } else {
                response.queueRemap(fault.page, epoch);
            }
            if (engine != nullptr)
                engine->onFault(fault.page, true, now);
            break;
          }
          case FaultEventKind::CapacityLoss: {
            const std::uint64_t lost =
                map.loseCapacity(fault.tier, capacity_pages);
            result.capacityLostPages += lost;
            RAMP_OBS(Telemetry,
                     systemTelemetry().faultsCapacityPages.add(lost));
            if (lost > 0) {
                // Losing tier capacity is permanent: the run keeps
                // going, but in degraded mode from here on.
                if (!response.degraded()) {
                    response.setDegraded();
                    RAMP_OBS(Telemetry, systemTelemetry()
                                            .faultsDegradedRuns.add(1));
                }
                RAMP_OBS(Events, {
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Degrade;
                    record.policy =
                        eventlog::PolicyId::FaultInject;
                    record.epoch = now;
                    record.page = invalidPage;
                    record.partner = invalidPage;
                    record.detail = 0; // capacity-backlog
                    record.span = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(lost, UINT32_MAX));
                    record.moved = 0;
                    record.hotness = static_cast<float>(
                        map.overfullHbmPages());
                    eventlog::emit(record);
                });
            }
            break;
          }
        }
    }

    // Phase 2: retry owed cross-tier remaps (backoff on failure).
    for (const PageId page : response.dueRemaps(epoch)) {
        // The move's test, made before pageLineAddrs so that a
        // failed retry allocates no frame.
        if (map.hbmFreePages() > 0 && !map.isPinned(page) &&
            map.memoryOf(page) == MemoryId::DDR) {
            const auto src_addrs = pageLineAddrs(map, page);
            map.moveRange(page, 1, MemoryId::HBM);
            map.pin(page);
            run.enter(page, now);
            scheduleTransfer(next_slot, src_addrs, MemoryId::DDR,
                             pageLineAddrs(map, page),
                             MemoryId::HBM, transfers);
            response.resolveRemap(page);
            ++result.responseMoves;
            RAMP_OBS(Telemetry, systemTelemetry().faultsRemaps.add(1));
            RAMP_OBS(Events, {
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Remap;
                record.policy = eventlog::PolicyId::FaultInject;
                record.epoch = now;
                record.page = page;
                record.partner = invalidPage;
                record.src = eventlog::tierOf(MemoryId::DDR);
                record.dst = eventlog::tierOf(MemoryId::HBM);
                record.detail = 2; // retry
                eventlog::emit(record);
            });
        } else {
            RAMP_OBS(Telemetry, systemTelemetry().faultsRetries.add(1));
            if (response.backoff(page, epoch)) {
                // Out of retries: the page stays where it landed,
                // pinned, and the run is degraded.
                map.pin(page);
                if (!response.degraded()) {
                    response.setDegraded();
                    RAMP_OBS(Telemetry, systemTelemetry()
                                            .faultsDegradedRuns.add(1));
                }
                RAMP_OBS(Events, {
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Degrade;
                    record.policy =
                        eventlog::PolicyId::FaultInject;
                    record.epoch = now;
                    record.page = page;
                    record.partner = invalidPage;
                    record.detail = 1; // remap-failed
                    record.hotness = static_cast<float>(
                        response.backlog());
                    eventlog::emit(record);
                });
            }
        }
    }

    // Phase 3: bounded emergency demotion while the HBM is overfull
    // (capacity loss can strand more residents than frames).
    const std::uint64_t backlog = map.overfullHbmPages();
    if (backlog > 0) {
        const std::uint64_t budget = std::min<std::uint64_t>(
            backlog, injector.config().sweepCapPages);
        const auto victims = sweepVictims(
            map, [&](PageId page) { return run.hotness(page); },
            budget);
        std::uint64_t swept = 0;
        for (const PageId page : victims) {
            const auto src_addrs = pageLineAddrs(map, page);
            if (map.moveRange(page, 1, MemoryId::DDR) == 0)
                continue;
            run.leave(page, now);
            scheduleTransfer(next_slot, src_addrs, MemoryId::HBM,
                             pageLineAddrs(map, page),
                             MemoryId::DDR, transfers);
            ++swept;
            ++result.responseMoves;
            RAMP_OBS(Telemetry, systemTelemetry().faultsSweepMoves.add(1));
            RAMP_OBS(Events, {
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Remap;
                record.policy = eventlog::PolicyId::FaultInject;
                record.epoch = now;
                record.page = page;
                record.partner = invalidPage;
                record.src = eventlog::tierOf(MemoryId::HBM);
                record.dst = eventlog::tierOf(MemoryId::DDR);
                record.detail = 1; // sweep
                eventlog::emit(record);
            });
        }
        const std::uint64_t remaining = map.overfullHbmPages();
        if (remaining > 0) {
            // Budget exhausted with backlog left: note it once per
            // epoch so ramp_explain can chart the drain.
            RAMP_OBS(Events, {
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Degrade;
                record.policy = eventlog::PolicyId::FaultInject;
                record.epoch = now;
                record.page = invalidPage;
                record.partner = invalidPage;
                record.detail = 0; // capacity-backlog
                record.span = 0;
                record.moved = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(swept, UINT32_MAX));
                record.hotness = static_cast<float>(remaining);
                eventlog::emit(record);
            });
        }
    }
}

SimResult
HmaSystem::run(const std::vector<CoreTrace> &traces,
               const CompiledTrace &compiled, PlacementMap placement,
               MigrationEngine *engine, FaultInjector *injector)
{
    return runInPlace(traces, compiled, placement, engine, injector);
}

SimResult
HmaSystem::run(const std::vector<CoreTrace> &traces,
               PlacementMap placement, MigrationEngine *engine,
               FaultInjector *injector)
{
    return runInPlace(traces, placement, engine, injector);
}

SimResult
HmaSystem::runInPlace(const std::vector<CoreTrace> &traces,
                      PlacementMap &placement,
                      MigrationEngine *engine,
                      FaultInjector *injector)
{
    // Runs never nest on a thread, so each worker owns one scratch
    // form; it is rebuilt from the traces on every call.
    static thread_local CompiledTrace compiled;
    compiled.compile(traces);
    return runInPlace(traces, compiled, placement, engine, injector);
}

LoopShape
HmaSystem::loopShape(const MigrationEngine *engine,
                     const FaultInjector *injector)
{
    LoopShape shape;
    shape.injector = injector != nullptr;
    if (engine == nullptr)
        shape.engine = LoopEngine::None;
    else if (dynamic_cast<const FullCounterMigration *>(engine))
        shape.engine = LoopEngine::FullCounter;
    else if (dynamic_cast<const CrossCounterMigration *>(engine))
        shape.engine = LoopEngine::CrossCounter;
    else
        shape.engine = LoopEngine::Generic;
    return shape;
}

void
HmaSystem::drainTransfers(std::deque<MigOp> &transfers, Cycle up_to)
{
    while (!transfers.empty() && transfers.front().when <= up_to) {
        const MigOp op = transfers.front();
        transfers.pop_front();
        DramMemory &dram = op.mem == MemoryId::HBM ? hbm_ : ddr_;
        dram.access(op.when, op.devAddr, op.isWrite);
    }
}

namespace
{

/** accessLoop's Engine when the run has no migration engine. */
struct NoEngine
{
};

} // namespace

template <class Engine, bool Inject>
std::uint64_t
HmaSystem::accessLoop(const CompiledTrace &compiled,
                      PlacementMap &placement, MigrationEngine *engine,
                      FaultInjector *injector,
                      std::vector<CoreModel> &cores, RunState &run,
                      ResponseState &response,
                      std::deque<MigOp> &transfers, SimResult &result)
{
    constexpr bool withEngine = !std::is_same_v<Engine, NoEngine>;

    // Global issue order: earliest-ready core first, the lowest index
    // on ties. A linear scan over this array picks it; a finished
    // core reads `idle`.
    constexpr Cycle idle = UINT64_MAX;
    const std::size_t core_count = cores.size();
    if (core_count == 0)
        return 0;
    std::vector<Cycle> ready_at(core_count, idle);
    for (std::size_t i = 0; i < core_count; ++i)
        if (!cores[i].done())
            ready_at[i] = cores[i].nextIssueTime();

    Cycle next_boundary = 0;
    if constexpr (withEngine)
        next_boundary = engine->interval();
    Cycle last_epoch = 0; ///< Previous non-empty decision boundary.
    Cycle next_inject = 0;
    if constexpr (Inject)
        next_inject = injector->epochCycles();
    std::uint64_t inject_epoch = 0; ///< 1-based, like FaultEvent.

    // Health timeline: every injector epoch and every non-empty
    // migration boundary hands the recorder one sample with this
    // epoch's deltas (health/health.hh). High-water marks live out
    // here so the deltas survive across boundaries; the capture
    // costs one relaxed load per boundary when the timeline is off.
    [[maybe_unused]] std::uint64_t health_prev_faults = 0;
    [[maybe_unused]] std::uint64_t health_prev_retired = 0;
    [[maybe_unused]] std::uint64_t health_prev_lost = 0;
    [[maybe_unused]] std::uint64_t health_prev_moves = 0;
    [[maybe_unused]] auto health_sample = [&](std::uint64_t epoch,
                                              std::uint64_t churn) {
        health::TimelineSample sample;
        sample.source = "system";
        sample.epoch = epoch;
        sample.moves = churn;
        sample.faultsInjected =
            result.faultsInjected - health_prev_faults;
        sample.pagesRetired =
            result.pagesRetired - health_prev_retired;
        sample.capacityLost =
            result.capacityLostPages - health_prev_lost;
        health_prev_faults = result.faultsInjected;
        health_prev_retired = result.pagesRetired;
        health_prev_lost = result.capacityLostPages;
        sample.backlog =
            static_cast<double>(placement.overfullHbmPages());
        sample.degraded = response.degraded();
        health::ShardSample shard;
        shard.capacityPages = placement.hbmCapacityPages();
        shard.usedPages = placement.hbmUsedPages();
        shard.occupancy =
            shard.capacityPages == 0
                ? health::unmeasured
                : static_cast<double>(shard.usedPages) /
                      static_cast<double>(shard.capacityPages);
        shard.degraded = response.degraded();
        shard.retired = result.pagesRetired;
        sample.shards.push_back(shard);
        health::record(std::move(sample));
    };

    // Counted without branches; reads are the requests left over.
    std::uint64_t requests = 0;
    std::uint64_t writes = 0;
    std::uint64_t hbm_accesses = 0;

    const Cycle *const ready = ready_at.data();
    while (true) {
        // A strict-less min-scan in conditional moves: the pick has
        // no data-dependent branch, and ties keep the lowest index.
        std::size_t core_idx = 0;
        Cycle issue_t = ready[0];
        for (std::size_t i = 1; i < core_count; ++i) {
            const bool earlier = ready[i] < issue_t;
            issue_t = earlier ? ready[i] : issue_t;
            core_idx = earlier ? i : core_idx;
        }
        if (issue_t == idle)
            break;
        CoreModel &core = cores[core_idx];

        // Interval boundaries strictly before this issue. Injector
        // epochs interleave with engine boundaries in cycle order;
        // the injector wins ties so fault responses land before a
        // same-cycle migration decision sees the placement.
        while ((withEngine && next_boundary <= issue_t) ||
               (Inject && next_inject <= issue_t)) {
            const bool engine_due =
                withEngine && next_boundary <= issue_t;
            const bool inject_due = Inject && next_inject <= issue_t;
            if (inject_due &&
                (!engine_due || next_inject <= next_boundary)) {
                drainTransfers(transfers, next_inject);
                ++inject_epoch;
                {
                    RAMP_PROF_SCOPE(fault_prof, "hma.fault_epoch");
                    applyFaultEpoch(*injector, inject_epoch,
                                    next_inject, placement, engine,
                                    response, result, run,
                                    transfers);
                }
                RAMP_OBS(Health, {
                    health_sample(inject_epoch,
                                  result.responseMoves -
                                      health_prev_moves);
                    health_prev_moves = result.responseMoves;
                });
                next_inject += injector->epochCycles();
                continue;
            }
            drainTransfers(transfers, next_boundary);
            RAMP_PROF_SCOPE(epoch_prof, "hma.migration_epoch");
            const auto decision =
                engine->onInterval(next_boundary, placement);
            RAMP_OBS(Telemetry, systemTelemetry().boundaries.add(1));
            if (!decision.empty()) {
                ++result.migrationEvents;
                RAMP_OBS(Telemetry, {
                    auto &tel = systemTelemetry();
                    tel.epochs.add(1);
                    tel.promoted.add(decision.promotions.size() +
                                     decision.swaps.size());
                    tel.demoted.add(decision.evictions.size() +
                                    decision.swaps.size());
                    tel.swaps.add(decision.swaps.size());
                    tel.epochPages.observe(static_cast<double>(
                        decision.pagesMoved()));
                    tel.epochGap.observe(
                        static_cast<double>(next_boundary -
                                            last_epoch) /
                        static_cast<double>(engine->interval()));
                });
                RAMP_OBS(Events, {
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Epoch;
                    record.policy = eventlog::policyIdFromName(
                        engine->name());
                    record.epoch = next_boundary;
                    // Epoch records reuse the score fields as the
                    // boundary's move counts (record.hh).
                    record.hotness = static_cast<float>(
                        decision.promotions.size());
                    record.wrRatio = static_cast<float>(
                        decision.evictions.size());
                    record.avf = static_cast<float>(
                        decision.swaps.size());
                    eventlog::emit(record);
                });
                last_epoch = next_boundary;
                applyDecision(placement, decision, next_boundary,
                              run, transfers);
                RAMP_OBS(Health,
                         health_sample(
                             next_boundary / engine->interval(),
                             decision.pagesMoved()));
            }
            next_boundary += engine->interval();
        }
        // Only engine decisions and fault responses queue copies.
        if constexpr (withEngine || Inject)
            drainTransfers(transfers, issue_t);

        const MemRequest &req = core.current();
        const PageId page = pageOf(req.addr);
        const std::uint32_t slot =
            compiled.slot(compiled.base(core_idx) + core.position());
        RunState::Slot &state = run.slots[slot];
        if (!state.handle) {
            // Insert the entry at the page's first access, not at
            // interning: hbmPages() order, which cc-migration's
            // capped eviction list follows, is insertion order.
            state.handle = placement.handleOf(page);
            run.touchOrder.push_back(slot);
            run.resolve(slot, placement.memoryOf(state.handle));
        }
        const MemoryId mem = placement.memoryOf(state.handle);

        // The perf, fc and cc hooks are final, so these calls inline;
        // the generic loop's Engine is MigrationEngine (one virtual
        // call).
        Cycle penalty = 0;
        if constexpr (withEngine)
            penalty = static_cast<Engine *>(engine)->onSlotAccess(
                slot, page, req.isWrite, mem);
        if constexpr (Inject)
            injector->onSlotAccess(slot, page);

        run.avf.onAccess(slot, lineInPage(req.addr), req.isWrite,
                         issue_t);
        ++(req.isWrite ? state.stats.writes : state.stats.reads);

        const Addr dev_addr =
            placement.deviceAddr(state.handle, req.addr);
        DramMemory &dram = mem == MemoryId::HBM ? hbm_ : ddr_;
        const Cycle completion =
            dram.access(issue_t + penalty, dev_addr, req.isWrite);

        ++requests;
        writes += req.isWrite;
        hbm_accesses += mem == MemoryId::HBM;

        if (!core.retire(req.isWrite ? issue_t : completion)) {
            ready_at[core_idx] = idle;
            continue;
        }
        ready_at[core_idx] = core.nextIssueTime();

        // Software pipeline: this core issues again about one turn
        // of the other cores from now, so start the loads its next
        // access will wait on. Hints only; no state changes.
        const std::size_t next =
            compiled.base(core_idx) + core.position();
        const std::uint32_t next_slot = compiled.slot(next);
        placement.prefetch(run.slots[next_slot].handle);
        run.avf.prefetch(next_slot, lineInPage(core.current().addr));
        // The request after that: its Slot, so that next turn's
        // entry prefetch finds the handle in cache.
        if (next + 1 < compiled.base(core_idx + 1))
            __builtin_prefetch(&run.slots[compiled.slot(next + 1)]);
    }

    result.requests = requests;
    result.writes = writes;
    result.reads = requests - writes;
    return hbm_accesses;
}

SimResult
HmaSystem::runInPlace(const std::vector<CoreTrace> &traces,
                      const CompiledTrace &compiled,
                      PlacementMap &placement,
                      MigrationEngine *engine,
                      FaultInjector *injector)
{
    if (static_cast<int>(traces.size()) > config_.cores)
        ramp_fatal("more traces than configured cores");
    if (compiled.cores() != traces.size())
        ramp_panic("compiled trace has ", compiled.cores(),
                   " cores, the run has ", traces.size());
    for (std::size_t c = 0; c < traces.size(); ++c)
        if (compiled.coreRequests(c) != traces[c].size())
            ramp_panic("compiled trace of core ", c,
                       " does not match its trace");

    RAMP_PROF_SCOPE_PMU(run_prof, "hma.run", "engine",
                        engine != nullptr ? engine->name() : "static");

    SimResult result;
    // Runs never nest on a thread, so each worker owns one state. It
    // lives here, not in accessLoop: a thread_local there would give
    // every specialisation its own copy of the per-slot vectors.
    static thread_local RunState run;
    run.begin(compiled);
    // The engine and the injector track pages by the trace's slots.
    if (engine != nullptr)
        engine->beginRun(compiled.index());
    if (injector != nullptr)
        injector->beginRun(compiled.index());

    std::vector<CoreModel> cores;
    cores.reserve(traces.size());
    for (const auto &trace : traces)
        cores.emplace_back(trace, config_.issueWidth, config_.robSize,
                           config_.maxOutstandingReads);

    ResponseState response(
        injector != nullptr ? injector->config().maxRetries : 8);
    std::deque<MigOp> transfers;

    // Pick the run's loop once: 4 engine kinds x injector on/off.
    const LoopShape shape = loopShape(engine, injector);
    const auto loop = [&]<class Engine>(std::type_identity<Engine>) {
        return shape.injector
                   ? accessLoop<Engine, true>(compiled, placement,
                                              engine, injector, cores,
                                              run, response, transfers,
                                              result)
                   : accessLoop<Engine, false>(compiled, placement,
                                               engine, injector, cores,
                                               run, response,
                                               transfers, result);
    };
    std::uint64_t hbm_accesses = 0;
    switch (shape.engine) {
      case LoopEngine::None:
        hbm_accesses = loop(std::type_identity<NoEngine>{});
        break;
      case LoopEngine::FullCounter:
        hbm_accesses = loop(std::type_identity<FullCounterMigration>{});
        break;
      case LoopEngine::CrossCounter:
        hbm_accesses =
            loop(std::type_identity<CrossCounterMigration>{});
        break;
      case LoopEngine::Generic:
        hbm_accesses = loop(std::type_identity<MigrationEngine>{});
        break;
    }

    // Finish any still-draining page copies.
    drainTransfers(transfers, UINT64_MAX);

    for (const auto &core : cores) {
        result.instructions += core.instructions();
        result.makespan = std::max(result.makespan,
                                   core.finishTime());
    }
    result.makespan = std::max<Cycle>(result.makespan, 1);
    result.ipc = static_cast<double>(result.instructions) /
                 static_cast<double>(result.makespan);
    result.mpki = result.instructions == 0
                      ? 0.0
                      : static_cast<double>(result.requests) *
                            1000.0 /
                            static_cast<double>(result.instructions);
    result.hbmAccessFraction =
        result.requests == 0
            ? 0.0
            : static_cast<double>(hbm_accesses) /
                  static_cast<double>(result.requests);

    run.avf.finalize(result.makespan);
    result.memoryAvf = run.avf.memoryAvf();
    // Insert in first-access order: the profile's iteration order,
    // and so the floating-point SER sum below, follow insertion order
    // (DESIGN.md §16).
    for (const std::uint32_t slot : run.touchOrder) {
        PageStats &stats = run.slots[slot].stats;
        stats.avf = run.avf.slotAvf(slot);
        result.profile.setStats(run.index->page(slot), stats);
    }

    // Residency-weighted Equation 2.
    const SerParams &ser = config_.ser;
    for (const auto &[page, stats] : result.profile.pages()) {
        const double in_hbm =
            run.hbmFraction(run.slotOf(page), result.makespan);
        result.ser += stats.avf *
                      (ser.fitPerPage(MemoryId::HBM) * in_hbm +
                       ser.fitPerPage(MemoryId::DDR) *
                           (1.0 - in_hbm));
    }

    result.hbmStats = hbm_.stats();
    result.ddrStats = ddr_.stats();
    const std::uint64_t total_reads =
        result.hbmStats.reads + result.ddrStats.reads;
    if (total_reads > 0) {
        result.avgReadLatency =
            static_cast<double>(result.hbmStats.totalReadLatency +
                                result.ddrStats.totalReadLatency) /
            static_cast<double>(total_reads);
    }
    result.migratedPages = placement.migrations();
    result.responseRetries = response.retries();
    result.degraded = response.degraded();
    RAMP_OBS(Telemetry, {
        auto &tel = systemTelemetry();
        tel.runs.add(1);
        tel.instructions.add(result.instructions);
        tel.hbmAccesses.add(hbm_accesses);
        tel.ddrAccesses.add(result.requests - hbm_accesses);
    });
    return result;
}

} // namespace ramp
