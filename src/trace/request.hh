/**
 * @file
 * Memory request record — the unit of every trace in RAMP.
 *
 * Mirrors the paper's trace format (Section 3.1): each record carries
 * the number of intervening non-memory instructions, the address, and
 * the request type. Traces are memory-level (post-L2), as the
 * generator (trace/generator.hh) produces them.
 */

#ifndef RAMP_TRACE_REQUEST_HH
#define RAMP_TRACE_REQUEST_HH

#include <cstdint>

#include "common/types.hh"

namespace ramp
{

/** One memory access of a core's instruction stream. */
struct MemRequest
{
    /** Byte address touched (one 64 B line is moved). */
    Addr addr = 0;

    /** Non-memory instructions executed since the previous request. */
    std::uint32_t gap = 0;

    /** Issuing core. */
    CoreId core = 0;

    /** True for stores/writebacks, false for loads/fetches. */
    bool isWrite = false;

    /** Total instructions this record accounts for (gap + itself). */
    std::uint64_t instructions() const { return gap + 1ULL; }
};

} // namespace ramp

#endif // RAMP_TRACE_REQUEST_HH
