/**
 * @file
 * Cycle-level hot-path profiler.
 *
 * RAMP_PROF_SCOPE(var, "phase") opens a scoped phase timer: on
 * entry it reads the TSC (prof/tsc.hh) and descends into the
 * calling thread's hierarchical phase tree, on exit it accumulates
 * the cycle delta and call count into that tree node. Nested scopes
 * build real call trees, so snapshots can report both total cycles
 * (including children) and self cycles (excluding them) per phase
 * path. RAMP_PROF_SCOPE_PMU additionally samples the hardware PMU
 * group (prof/pmu.hh) at entry and exit, attributing cycles,
 * instructions, LLC misses, and branch misses to the phase; when
 * the PMU is unavailable (CI containers) those scopes silently
 * degrade to TSC-only.
 *
 * Each thread owns its tree (mutations under its slot's mutex in the
 * shared per-thread registry, common/thread_registry.hh) and
 * snapshot() merges all trees exactly, keyed by phase-name content
 * — like the metrics registry, totals are schedule-independent for
 * deterministic workloads: the same phases run the same number of
 * times at any --jobs, only the raw cycle counts carry timing noise.
 *
 * The same scope writes the Chrome trace (telemetry/trace.hh): while
 * the obs::Trace bit is on, each scope emits a B event on entry and
 * the matching E on exit under its phase name. Trace bookkeeping
 * sits outside the cycle window (begin reads the TSC last, end reads
 * it first), so phase cycles never absorb it.
 *
 * Scopes gate on the obs::Prof and obs::Trace bits (common/obs.hh):
 * while both are off a site costs one relaxed atomic load and a
 * branch, with no call, and allocates nothing — profiler thread
 * state is only created by scopes recording under obs::Prof.
 *
 * Exports: profileJson() renders the self-describing
 * ramp-profile-v1 document and foldedStacks() the matching
 * `path;to;phase self_cycles` flamegraph lines. The harness wires
 * both behind --profile-out / RAMP_PROF_OUT.
 */

#ifndef RAMP_PROF_PROF_HH
#define RAMP_PROF_PROF_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/obs.hh"
#include "prof/pmu.hh"

namespace ramp
{

template <class State>
struct ThreadSlot;

} // namespace ramp

namespace ramp::prof
{

/** Schema identifier stamped into profile documents. */
inline constexpr const char *profileSchema = "ramp-profile-v1";

/**
 * Intern a dynamic phase name (e.g. "kernel." + microbench case)
 * into a process-lifetime string usable with RAMP_PROF_SCOPE.
 */
const char *internName(std::string_view name);

/** One phase path in a merged snapshot. */
struct PhaseStat
{
    /** Semicolon-joined path from the root, e.g. "hma.run;hma.migration_epoch". */
    std::string path;

    /** Leaf phase name (last path component). */
    std::string name;

    /** 0 for top-level phases. */
    unsigned depth = 0;

    std::uint64_t calls = 0;

    /** Cycles inside the phase, children included. */
    std::uint64_t totalCycles = 0;

    /** totalCycles minus the children's totals (saturating). */
    std::uint64_t selfCycles = 0;

    /** Calls that captured a valid PMU delta (0 = TSC-only). */
    std::uint64_t pmuCalls = 0;
    std::uint64_t pmuCycles = 0;
    std::uint64_t pmuInstructions = 0;
    std::uint64_t pmuLlcMisses = 0;
    std::uint64_t pmuBranchMisses = 0;
};

/** All threads' phase trees, merged exactly and path-sorted. */
struct ProfileSnapshot
{
    /** pmuAvailable() at snapshot time. */
    bool pmuAvailable = false;

    std::vector<PhaseStat> phases;
};

/**
 * Merge every thread's tree (children sorted by name, so the
 * result is independent of thread registration order) and compute
 * self cycles. Phases whose subtree never ran are omitted.
 */
ProfileSnapshot snapshot();

/**
 * The ramp-profile-v1 document: schema/tool/jobs header, host block
 * (cpu_model, tsc_hz), pmu availability, and one record per phase
 * path with cycle totals, seconds (via the calibrated TSC
 * frequency), and PMU-derived rates (IPC, misses per kilo-
 * instruction) where sampled.
 */
std::string profileJson(const std::string &tool, unsigned jobs);

/**
 * Flamegraph folded-stack lines: `root;child;leaf self_cycles`, one
 * per phase path with nonzero self cycles.
 */
std::string foldedStacks();

/** Zero every registered tree's counters (tests). */
void reset();

/** Registered per-thread states (tests: disabled path adds none). */
std::size_t threadStateCountForTest();

namespace detail
{

struct ThreadProf;
struct PhaseNode;

} // namespace detail

/**
 * RAII phase scope, the one scope type of both exporters; use
 * through RAMP_PROF_SCOPE / RAMP_PROF_SCOPE_PMU. While obs::Prof is
 * on it times the phase into the calling thread's tree; while
 * obs::Trace is on it writes the Chrome trace's B/E pair under the
 * phase's name, the B carrying a one-entry args object
 * {arg_key: arg_value} when arg_key is given (rendered only while
 * tracing). Samples both bits at entry and closes what it opened
 * even if a bit is toggled mid-scope, so trees stay balanced and
 * pairs matched.
 */
class ScopedPhase
{
  public:
    ScopedPhase(const char *name, bool with_pmu,
                const char *arg_key = nullptr,
                std::string_view arg_value = {})
    {
        if (obs::on(obs::Prof | obs::Trace))
            begin(name, with_pmu, arg_key, arg_value);
    }

    ~ScopedPhase()
    {
        if (modes_ != 0)
            end();
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    void begin(const char *name, bool with_pmu, const char *arg_key,
               std::string_view arg_value);
    void end();

    // Only modes_ carries a default: a disabled construction must
    // cost one byte store beyond the mask check, so the other
    // members (including the PMU start values, stored raw rather
    // than as a PmuSample whose default constructor would zero
    // them) stay uninitialized until begin() runs.
    std::uint8_t modes_ = 0; ///< obs::Prof / obs::Trace at entry
    bool pmuActive_;
    const char *name_;
    ThreadSlot<detail::ThreadProf> *state_;
    detail::PhaseNode *node_;
    std::uint64_t startCycles_;
    std::uint64_t pmuStartCycles_;
    std::uint64_t pmuStartInstructions_;
    std::uint64_t pmuStartLlcMisses_;
    std::uint64_t pmuStartBranchMisses_;
};

} // namespace ramp::prof

/**
 * Open a TSC-only phase scope for the rest of the block, optionally
 * with one trace arg (a key and a string value):
 *
 *   RAMP_PROF_SCOPE(prof_scope, "hma.migration_epoch");
 *   RAMP_PROF_SCOPE(pass_scope, "runner.pass", "workload", name);
 */
#define RAMP_PROF_SCOPE(var, name, ...) \
    ::ramp::prof::ScopedPhase var((name), false __VA_OPT__(, ) __VA_ARGS__)
#define RAMP_PROF_SCOPE_PMU(var, name, ...) \
    ::ramp::prof::ScopedPhase var((name), true __VA_OPT__(, ) __VA_ARGS__)

#endif // RAMP_PROF_PROF_HH
