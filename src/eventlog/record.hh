/**
 * @file
 * The decision ledger's record vocabulary.
 *
 * One EventRecord captures one placement or migration decision (or
 * a decision-adjacent fact: an epoch boundary, a fault landing) with
 * the inputs that produced it — the page, the tiers involved, the
 * deciding policy, and the score inputs the policy compared against
 * its thresholds. Records are compact PODs so the per-thread ring
 * buffers stay cache-friendly; string rendering happens only when a
 * log is drained to JSONL (eventlog.hh).
 *
 * Field reuse: Epoch records describe a whole interval boundary, so
 * the score fields carry the boundary's move counts instead
 * (hotness = promotions, wrRatio = evictions, avf = swaps); Fault
 * records carry the fault mode in `detail` and the struck tier in
 * `dst`; Inject, Tenant, Alert and Degrade records carry their
 * counts in `region`, `span` and `moved`. The JSONL writer renders
 * each kind with its own keys, so the reuse never leaks into the
 * file format.
 */

#ifndef RAMP_EVENTLOG_RECORD_HH
#define RAMP_EVENTLOG_RECORD_HH

#include <cstdint>
#include <limits>
#include <string_view>

#include "common/types.hh"

namespace ramp::eventlog
{

/** What happened to the page (or at the boundary). */
enum class EventKind : std::uint8_t
{
    /** Static policy selected the page for HBM at load time. */
    Place,

    /** Unpaired DDR -> HBM move into a free frame. */
    Promote,

    /** Unpaired HBM -> DDR move (risk/cold mitigation). */
    Evict,

    /** DDR page entering HBM as the fill half of a swap. */
    SwapIn,

    /** HBM victim leaving as the out half of a swap. */
    SwapOut,

    /** Interval boundary with a non-empty decision (counts). */
    Epoch,

    /** FaultSim fault landing attributed to a page/tier. */
    Fault,

    /** Online injector landed a fault on a live run. */
    Inject,

    /** Uncorrected error retired the page (frame quarantined). */
    Retire,

    /** Fault response moved a page (retire/sweep/retry remap). */
    Remap,

    /** Run entered (or stayed in) degraded mode. */
    Degrade,

    /**
     * Per-tenant epoch summary from the placement service: region
     * carries the home shard, span the arbiter's grant, moved the
     * HBM-resident page count, hotness the resident share, and avf
     * the tenant's mean AVF.
     */
    Tenant,

    /**
     * Health monitor rule fired (health/health.hh): span carries
     * the rule index, region the signal index, detail the severity,
     * moved the shard index + 1 (0 = run-wide), hotness the
     * measured value, and threshHot the rule's threshold.
     */
    Alert,
};

/** Stable lower-case name ("place", "promote", ...). */
const char *eventKindName(EventKind kind);

/** The policy (static or dynamic) that made the decision. */
enum class PolicyId : std::uint8_t
{
    Unknown,
    DdrOnly,
    PerfFocused,
    RelFocused,
    Balanced,
    WrRatio,
    Wr2Ratio,
    HotFraction,
    Annotated,
    PerfMigration,
    FcMigration,
    CcMigration,
    FaultSim,
    FaultInject,
    Service,
};

/** Stable name, matching policyName()/engine name() spellings. */
const char *policyIdName(PolicyId policy);

/** PolicyId of a policy/engine name string (Unknown when novel). */
PolicyId policyIdFromName(std::string_view name);

/** A memory tier, or no tier (static placement has no source). */
enum class Tier : std::uint8_t
{
    None,
    Hbm,
    Ddr,
};

/** Stable lower-case name ("none", "hbm", "ddr"). */
const char *tierName(Tier tier);

/** The tier of a simulator memory id. */
constexpr Tier
tierOf(MemoryId mem)
{
    return mem == MemoryId::HBM ? Tier::Hbm : Tier::Ddr;
}

/** Figure 4 hotness-risk quadrant of the page at decision time. */
enum class Quadrant : std::uint8_t
{
    Unknown,
    HotLowRisk,
    HotHighRisk,
    ColdLowRisk,
    ColdHighRisk,
};

/** Stable name ("hot-low", "hot-high", "cold-low", "cold-high"). */
const char *quadrantName(Quadrant quadrant);

/** Classify a page from its hot/low-risk verdicts. */
constexpr Quadrant
quadrantOf(bool hot, bool low_risk)
{
    if (hot)
        return low_risk ? Quadrant::HotLowRisk
                        : Quadrant::HotHighRisk;
    return low_risk ? Quadrant::ColdLowRisk : Quadrant::ColdHighRisk;
}

/** "Not measured" marker for the float score fields. */
inline constexpr float unmeasured =
    std::numeric_limits<float>::quiet_NaN();

/**
 * One ledger entry. `run` and `seq` are filled by emit(): the run is
 * the enclosing RunScope's registered label, and seq increases by
 * one per record within the run, so a run's records form a total
 * order that is independent of thread scheduling.
 */
struct EventRecord
{
    /** Run-label table index (0 = unattributed). */
    std::uint32_t run = 0;

    /** Position within the run's record stream. */
    std::uint32_t seq = 0;

    /**
     * Owning tenant (0 = no tenant). Stamped by emit() from the
     * thread's enclosing TenantScope; rendered to JSONL only when
     * non-zero, so ramp-events-v1 readers are unaffected.
     */
    std::uint32_t tenant = 0;

    EventKind kind = EventKind::Place;
    PolicyId policy = PolicyId::Unknown;

    /** Tier the page left / entered (None when not applicable). */
    Tier src = Tier::None;
    Tier dst = Tier::None;

    Quadrant quadrant = Quadrant::Unknown;

    /** Kind-specific extra (Fault: FaultMode index). */
    std::uint8_t detail = 0;

    /** Decision time in cycles (Fault: trial index in its shard). */
    Cycle epoch = 0;

    /** Subject page (invalidPage for Epoch records). */
    PageId page = invalidPage;

    /** Swap partner page (invalidPage when unpaired). */
    PageId partner = invalidPage;

    /** @{ @name Kind-specific counts (rendered under per-kind keys) */
    /** Inject: FaultSource; Tenant: home shard; Alert: signal index. */
    std::uint32_t region = 0;
    /** Inject/Degrade: capacity pages lost; Tenant: arbiter grant;
     * Alert: rule index. */
    std::uint32_t span = 0;
    /** Inject: correctable burst count; Tenant: HBM-resident pages;
     * Alert: shard index + 1 (0 = run-wide); Degrade: pages moved. */
    std::uint32_t moved = 0;
    /** @} */

    /** @{ @name Score inputs (Epoch: promoted/evicted/swapped) */
    float hotness = unmeasured;
    float wrRatio = unmeasured;
    float avf = unmeasured;
    /** @} */

    /** @{ @name Thresholds the decision compared against */
    float threshHot = unmeasured;
    float threshRisk = unmeasured;
    /** @} */
};

} // namespace ramp::eventlog

#endif // RAMP_EVENTLOG_RECORD_HH
