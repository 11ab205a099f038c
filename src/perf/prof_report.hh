/**
 * @file
 * ramp-profile-v1 reader, views, and the profile diff.
 *
 * The profiler (src/prof) writes self-describing profile documents;
 * this is the matching analysis side, used by tools/ramp_prof and
 * the tests. Three views render a loaded document:
 *
 *  - the top table (self-cycle ranking — "where do cycles go"),
 *  - the tree view (indented phase hierarchy with totals),
 *  - the calls view (phase paths + call counts only).
 *
 * The calls view deliberately omits cycles: for a deterministic
 * workload call counts are schedule-independent, so two runs at any
 * --jobs render byte-identical calls views — the invariance CI
 * checks — while raw cycle counts always carry timing noise.
 *
 * diffProfiles() joins two documents by phase path and reports
 * per-phase self-cycle deltas, flagging those that moved beyond a
 * noise threshold. It is the measurement gate of the hot-path
 * optimization campaign: every step is judged by its profile diff
 * against the previous commit's.
 */

#ifndef RAMP_PERF_PROF_REPORT_HH
#define RAMP_PERF_PROF_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace ramp::perf
{

/** One phase record parsed back from a profile document. */
struct ProfilePhase
{
    std::string path;
    std::string name;
    unsigned depth = 0;
    std::uint64_t calls = 0;
    std::uint64_t totalCycles = 0;
    std::uint64_t selfCycles = 0;

    /** PMU aggregates; pmuCalls == 0 means TSC-only. */
    std::uint64_t pmuCalls = 0;
    std::uint64_t pmuInstructions = 0;
    std::uint64_t pmuLlcMisses = 0;
    std::uint64_t pmuBranchMisses = 0;
    double ipc = 0;
    double llcMissesPerKiloInstruction = 0;
};

/** One parsed ramp-profile-v1 document. */
struct ProfileDoc
{
    std::string tool;
    unsigned jobs = 0;
    std::string cpuModel;
    double tscHz = 0;
    bool pmuAvailable = false;

    /** Phase records in document (path-sorted) order. */
    std::vector<ProfilePhase> phases;
};

/**
 * Parse a profile document from a JSON tree. False (with `error`
 * set) on schema mismatch or missing fields.
 */
bool parseProfileDoc(const JsonValue &json, ProfileDoc &doc,
                     std::string &error);

/** Load and parse a profile file. */
bool loadProfileDoc(const std::string &path, ProfileDoc &doc,
                    std::string &error);

/**
 * The top-self-cycles table: up to `top_n` phases ranked by self
 * cycles (ties broken by path), with cycle shares, per-call costs,
 * and PMU-derived IPC / LLC MPKI where sampled.
 */
std::string renderTopTable(const ProfileDoc &doc,
                           std::size_t top_n);

/** The indented phase-tree view (document order). */
std::string renderTree(const ProfileDoc &doc);

/**
 * The structural view: one `path calls` line per phase, document
 * order. Byte-identical across runs/--jobs for deterministic
 * workloads.
 */
std::string renderCalls(const ProfileDoc &doc);

/** One phase's self-cycle delta between two profiles. */
struct PhaseDelta
{
    std::string path;

    /** Self cycles on each side (0 when the phase is absent). */
    std::uint64_t baseSelf = 0;
    std::uint64_t candSelf = 0;

    /** Present on that side? (A phase can appear or disappear.) */
    bool inBase = false;
    bool inCand = false;

    /** Relative change in percent; +inf when baseSelf == 0. */
    double deltaPct = 0;

    /** |delta| beyond the threshold and the cycle floor. */
    bool significant = false;

    /** significant and candidate is slower. */
    bool regressed = false;
};

/**
 * Join two profiles by phase path (union of both sides) and
 * compute per-phase self-cycle deltas. A delta is significant when
 * it exceeds `threshold_pct` percent of the baseline AND the
 * absolute cycle change exceeds `min_cycles` (the noise floor that
 * keeps sub-microsecond phases from flapping the gate).
 */
std::vector<PhaseDelta>
diffProfiles(const ProfileDoc &base, const ProfileDoc &cand,
             double threshold_pct, std::uint64_t min_cycles);

/** The diff rendered as a verdict table (all phases, sorted by
 * |cycle delta| descending). */
std::string renderDiffTable(const ProfileDoc &base,
                            const ProfileDoc &cand,
                            const std::vector<PhaseDelta> &deltas);

} // namespace ramp::perf

#endif // RAMP_PERF_PROF_REPORT_HH
