/**
 * @file
 * A workload's traces in the form the simulator replays: every
 * request's page interned once into a dense slot.
 *
 * Slots are numbered in first-intern order over the cores' traces
 * back to back (core 0's requests first, then core 1's, ...), and the
 * slot of request i of core c is stored at base(c) + i. Every pass
 * over the same traces starts from the same slot column, so a
 * workload is interned once however many times it is replayed. A
 * compiled trace is read-only once built and may be shared by any
 * number of concurrent runs.
 */

#ifndef RAMP_TRACE_COMPILED_HH
#define RAMP_TRACE_COMPILED_HH

#include <cstdint>
#include <vector>

#include "common/page_index.hh"
#include "trace/trace.hh"

namespace ramp
{

/** Per-request page slots of a set of core traces. */
class CompiledTrace
{
  public:
    /** Intern `traces` (replacing any previous contents; capacity
     * is kept). */
    void compile(const std::vector<CoreTrace> &traces);

    /** Number of core traces compiled. */
    std::size_t cores() const { return base_.empty() ? 0 : base_.size() - 1; }

    /** First slot-column entry of a core. */
    std::size_t base(std::size_t core) const { return base_[core]; }

    /** Requests of one core. */
    std::size_t coreRequests(std::size_t core) const
    {
        return base_[core + 1] - base_[core];
    }

    /** Slot of the request at slot-column position `i`. */
    std::uint32_t slot(std::size_t i) const { return slots_[i]; }

    /** Distinct pages (slots 0 .. pages() - 1). */
    std::size_t pages() const { return index_.size(); }

    /** The slot <-> PageId table. */
    const PageIndex &index() const { return index_; }

  private:
    /** base_[c] is core c's first entry; base_.back() the total. */
    std::vector<std::size_t> base_;
    std::vector<std::uint32_t> slots_;
    PageIndex index_;
};

} // namespace ramp

#endif // RAMP_TRACE_COMPILED_HH
