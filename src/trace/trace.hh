/**
 * @file
 * Trace containers and summary statistics.
 */

#ifndef RAMP_TRACE_TRACE_HH
#define RAMP_TRACE_TRACE_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "trace/request.hh"

namespace ramp
{

/** Sequence of requests issued by a single core, in program order. */
using CoreTrace = std::vector<MemRequest>;

/** Aggregate statistics of a core trace or workload trace. */
struct TraceStats
{
    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t instructions = 0;
    std::uint64_t footprintPages = 0;

    /** Memory accesses per kilo-instruction. */
    double mpki() const;

    /** Fraction of requests that are writes. */
    double writeFraction() const;
};

/** Compute summary statistics over one core trace. */
TraceStats computeStats(const CoreTrace &trace);

/** Compute merged statistics over a set of core traces. */
TraceStats computeStats(const std::vector<CoreTrace> &traces);

/** Set of distinct pages touched by a group of traces. */
std::unordered_set<PageId>
touchedPages(const std::vector<CoreTrace> &traces);

} // namespace ramp

#endif // RAMP_TRACE_TRACE_HH
