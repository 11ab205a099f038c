/**
 * @file
 * Scripted fault-injection plans (the `--inject` grammar).
 *
 * A plan is an ordered list of fault events to land on a live run,
 * keyed by injector epoch. The textual grammar keeps campaigns
 * reproducible and diffable:
 *
 *   plan  := event (';' event)*
 *   event := kind ':' field (',' field)*
 *   kind  := 'correctable' | 'uncorrected' | 'capacity'
 *   field := 'page=' N | 'epoch=' N | 'count=' N   (page strikes)
 *          | 'tier=' hbm|ddr | 'pct=' X | 'pages=' N  (capacity)
 *
 * e.g. "uncorrected:page=1234,epoch=3;capacity:tier=hbm,pct=25,
 * epoch=5" retires page 1234 at the third injector epoch and kills a
 * quarter of the HBM at the fifth. parseFaultPlan/formatFaultPlan
 * round-trip: format emits the canonical field order, parse accepts
 * any order.
 */

#ifndef RAMP_FAULTS_PLAN_HH
#define RAMP_FAULTS_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ramp
{

/** What kind of fault a plan event injects. */
enum class FaultEventKind : std::uint8_t
{
    /** ECC-corrected strike: raises the page's effective risk. */
    Correctable,

    /** Uncorrected error: the page's frame dies and is retired. */
    Uncorrected,

    /** A tier loses frames (dead channel/stack); sweeps follow. */
    CapacityLoss,
};

/** Stable spelling ("correctable", "uncorrected", "capacity"). */
const char *faultEventKindName(FaultEventKind kind);

/** One scripted fault event. */
struct FaultEvent
{
    FaultEventKind kind = FaultEventKind::Uncorrected;

    /** Struck page (page strikes; unused for capacity loss). */
    PageId page = invalidPage;

    /** Injector epoch the event fires at (1 = first boundary). */
    std::uint64_t epoch = 1;

    /** Correctable burst size. */
    std::uint64_t count = 1;

    /** Tier losing capacity. */
    MemoryId tier = MemoryId::HBM;

    /** Capacity lost as a percentage of the tier (0 = use pages). */
    double pct = 0;

    /** Capacity lost as an absolute page count (0 = use pct). */
    std::uint64_t pages = 0;

    bool operator==(const FaultEvent &other) const = default;
};

/**
 * Parse a fault plan ("uncorrected:page=7,epoch=2;...").
 * @return the events in script order, or empty with `error` set
 */
std::vector<FaultEvent> parseFaultPlan(const std::string &text,
                                       std::string &error);

/** Canonical grammar spelling of one event (round-trips parse). */
std::string formatFaultEvent(const FaultEvent &event);

/** Canonical ';'-joined spelling of a plan. */
std::string formatFaultPlan(const std::vector<FaultEvent> &events);

} // namespace ramp

#endif // RAMP_FAULTS_PLAN_HH
