/**
 * @file
 * The HMA system simulator: 16 cores, two memories, one placement.
 *
 * Ties every substrate together: cores replay traces through the
 * placement map onto the two DRAM timing models, the AVF tracker
 * watches the global request stream, an optional migration engine is
 * driven at interval boundaries (its page moves are charged as real
 * line transfers into both memories), and the result carries IPC,
 * per-memory statistics, the measured page profile, and the
 * residency-weighted SER of Equation 2.
 */

#ifndef RAMP_HMA_SYSTEM_HH
#define RAMP_HMA_SYSTEM_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "dram/memory.hh"
#include "faults/injector.hh"
#include "faults/response.hh"
#include "hma/config.hh"
#include "migration/engine.hh"
#include "placement/map.hh"
#include "placement/profile.hh"
#include "reliability/avf.hh"
#include "trace/compiled.hh"
#include "trace/trace.hh"

namespace ramp
{

/** Everything one simulation run produced. */
struct SimResult
{
    /** Configuration label (policy name). */
    std::string label;

    /** @{ @name Performance */
    Cycle makespan = 0;
    std::uint64_t instructions = 0;
    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    /** System throughput: instructions per cycle over the run. */
    double ipc = 0;

    /** Memory accesses per kilo-instruction. */
    double mpki = 0;

    /** Mean read latency over both memories, in cycles. */
    double avgReadLatency = 0;

    /** Fraction of demand accesses served by the HBM. */
    double hbmAccessFraction = 0;
    /** @} */

    /** @{ @name Memory-device statistics */
    DramStats hbmStats;
    DramStats ddrStats;
    /** @} */

    /** @{ @name Migration activity */
    std::uint64_t migratedPages = 0;
    std::uint64_t migrationEvents = 0;
    /** @} */

    /** @{ @name Online faults (zero when no injector ran) */
    /** Faults the injector landed on this run. */
    std::uint64_t faultsInjected = 0;

    /** Pages retired by uncorrected errors. */
    std::uint64_t pagesRetired = 0;

    /** HBM frames lost to capacity events. */
    std::uint64_t capacityLostPages = 0;

    /** Pages the fault response moved (remaps + sweeps). */
    std::uint64_t responseMoves = 0;

    /** Remap retry attempts (backoff loop). */
    std::uint64_t responseRetries = 0;

    /** True when the run finished in degraded mode. */
    bool degraded = false;
    /** @} */

    /** @{ @name Reliability */
    /** Per-page counts and AVF measured during this run. */
    PageProfile profile;

    /** Footprint-mean memory AVF. */
    double memoryAvf = 0;

    /** Residency-weighted SER (Equation 2, arbitrary FIT units). */
    double ser = 0;
    /** @} */
};

/** The engine half of a run's shape (HmaSystem::loopShape). */
enum class LoopEngine : std::uint8_t
{
    None,         ///< no migration engine
    FullCounter,  ///< perf- or fc-migration: inline counter hook
    CrossCounter, ///< cc-migration: inline MEA/risk/remap hook
    Generic,      ///< any other engine: one virtual call per access
};

/**
 * Which of the access loop's specialisations a run takes: one per
 * engine kind, with and without a fault injector (8 in all).
 */
struct LoopShape
{
    LoopEngine engine = LoopEngine::None;
    bool injector = false;

    bool operator==(const LoopShape &) const = default;
};

class CoreModel;

/** One configured simulator instance; run() is single-shot. */
class HmaSystem
{
  public:
    explicit HmaSystem(const SystemConfig &config);

    /**
     * Simulate a workload under a placement.
     *
     * @param traces per-core memory-level traces
     * @param compiled the traces' page slots
     *                 (CompiledTrace::compile(traces)); only read, so
     *                 one compiled form may serve concurrent runs
     * @param placement initial page placement (moved in; mutated by
     *                  the engine during the run)
     * @param engine optional dynamic migration engine (one fresh
     *               instance per run: it is bound to the run's page
     *               slots)
     * @param injector optional online fault injector (one fresh
     *                 instance per run); faults it lands are
     *                 responded to inline — retirement, emergency
     *                 sweeps, degraded mode (DESIGN.md §12)
     */
    SimResult run(const std::vector<CoreTrace> &traces,
                  const CompiledTrace &compiled, PlacementMap placement,
                  MigrationEngine *engine = nullptr,
                  FaultInjector *injector = nullptr);

    /**
     * run() on traces that are not compiled: compiles them into a
     * per-thread scratch form first.
     */
    SimResult run(const std::vector<CoreTrace> &traces,
                  PlacementMap placement,
                  MigrationEngine *engine = nullptr,
                  FaultInjector *injector = nullptr);

    /**
     * run() on a caller-owned placement map that survives the run
     * (run() delegates here with its by-value copy). The placement
     * service replays many per-tenant epoch slices against one
     * shard map, so the map must accumulate mutations — frame
     * allocations, migrations, retirements — across runs.
     */
    SimResult runInPlace(const std::vector<CoreTrace> &traces,
                         const CompiledTrace &compiled,
                         PlacementMap &placement,
                         MigrationEngine *engine = nullptr,
                         FaultInjector *injector = nullptr);

    /** runInPlace() on traces that are not compiled (see run()). */
    SimResult runInPlace(const std::vector<CoreTrace> &traces,
                         PlacementMap &placement,
                         MigrationEngine *engine = nullptr,
                         FaultInjector *injector = nullptr);

    /** The configuration this system was built with. */
    const SystemConfig &config() const { return config_; }

    /**
     * The access loop a run with this engine and injector takes. The
     * perf, fc and cc engines get loops that call their slot hooks
     * inline; any other engine (a PageId-only wrapper such as
     * perfbench's CountingEngine) gets the generic loop and its
     * virtual onSlotAccess.
     */
    static LoopShape loopShape(const MigrationEngine *engine,
                               const FaultInjector *injector);

  private:
    /**
     * One line transfer of an in-flight page migration. Transfers
     * are paced (SystemConfig::migLineSpacingCycles) and injected
     * into the memories in time order alongside demand traffic, so
     * migration consumes bandwidth without creating an unrealistic
     * head-of-line burst at the interval boundary.
     */
    struct MigOp
    {
        Cycle when;
        Addr devAddr;
        MemoryId mem;
        bool isWrite;
    };

    /**
     * Per-page state of one run — AVF, read/write counts, HBM
     * residency and placement handles — in flat vectors indexed by
     * the compiled trace's slots (defined in system.cc).
     */
    struct RunState;

    /**
     * The access loop of one run, specialised per LoopShape: `Engine`
     * is the engine class whose slot hook it calls (a tag type when
     * there is none) and `Inject` says whether an injector runs.
     * Issues every request of `cores` in global time order, with the
     * engine's boundaries and the injector's epochs interleaved, and
     * fills the result's request counts; returns the HBM accesses.
     */
    template <class Engine, bool Inject>
    std::uint64_t accessLoop(const CompiledTrace &compiled,
                             PlacementMap &placement,
                             MigrationEngine *engine,
                             FaultInjector *injector,
                             std::vector<CoreModel> &cores,
                             RunState &run, ResponseState &response,
                             std::deque<MigOp> &transfers,
                             SimResult &result);

    /** Perform the queued page-copy transfers due by `up_to`. */
    void drainTransfers(std::deque<MigOp> &transfers, Cycle up_to);

    /**
     * Apply a migration decision: move the pages in the map, update
     * residency, and schedule each page's 64 line reads + 64 line
     * writes as paced transfers starting at the boundary.
     */
    void applyDecision(PlacementMap &map,
                       const MigrationDecision &decision, Cycle now,
                       RunState &run, std::deque<MigOp> &transfers);

    /** Schedule one page copy as paced line transfers. */
    void scheduleTransfer(Cycle &next_slot,
                          const std::vector<Addr> &src_addrs,
                          MemoryId src_mem,
                          const std::vector<Addr> &dst_addrs,
                          MemoryId dst_mem,
                          std::deque<MigOp> &transfers);

    /**
     * One injector epoch: land the epoch's faults (retirements,
     * risk notes, capacity loss), retry owed cross-tier remaps with
     * backoff, and run the bounded emergency-demotion sweep when the
     * HBM is overfull. Every fault and response lands in the ledger.
     */
    void applyFaultEpoch(FaultInjector &injector,
                         std::uint64_t epoch, Cycle now,
                         PlacementMap &map, MigrationEngine *engine,
                         ResponseState &response, SimResult &result,
                         RunState &run, std::deque<MigOp> &transfers);

    SystemConfig config_;
    DramMemory hbm_;
    DramMemory ddr_;
};

} // namespace ramp

#endif // RAMP_HMA_SYSTEM_HH
