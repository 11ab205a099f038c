/**
 * @file
 * Architectural Vulnerability Factor tracking (paper Section 4.1).
 *
 * AVF is tracked per 64 B cache line over the memory-level request
 * stream: the interval preceding a read is ACE (a fault in it would
 * have been consumed), the interval preceding a write is dead (a
 * fault would have been overwritten — Figure 3b), and the tail after
 * the last access is dead. A line's first access interval starts at
 * time 0, modelling its initialisation at program load. Page AVF is
 * the mean over the page's 64 lines (Equation 1); memory AVF is the
 * mean over the touched footprint.
 */

#ifndef RAMP_RELIABILITY_AVF_HH
#define RAMP_RELIABILITY_AVF_HH

#include <cstdint>
#include <vector>

#include "common/page_index.hh"
#include "common/types.hh"

namespace ramp
{

/**
 * Per-line ACE interval accumulator composed to page AVF.
 *
 * Storage is slot-indexed: each slot holds its 64 lines' last-access
 * times plus one ACE sum for the whole page (page AVF only ever needs
 * the sum over its lines). Line times are 32-bit cycles from the
 * start of the window, so one page's times fill 256 B; an access at
 * or after cycle 2^32 panics. ACE sums stay 64-bit.
 */
class AvfTracker
{
  public:
    /** Latest access time a 32-bit line time can hold. */
    static constexpr Cycle maxTime = UINT32_MAX;

    /** @{ @name Slot entry point (the simulator's access loop)
     *
     * Either reset(pages) sizes the tracker to slots 0 .. pages - 1
     * of a caller's page index, or a caller interns each page once
     * with addPage() and keeps the slot. Accesses are then recorded
     * by slot without hashing.
     */

    /** Slot of a page, registering it (as touched) on first sight. */
    std::uint32_t addPage(PageId page)
    {
        if (index_.size() != ace_.size())
            pageIdOnSlotTracker();
        const std::uint32_t slot = index_.intern(page);
        if (slot == ace_.size()) {
            ace_.push_back(0);
            lastAccess_.resize(lastAccess_.size() + linesPerPage, 0);
        }
        return slot;
    }

    /** Record one access to line `line` of a registered slot. */
    void onAccess(std::uint32_t slot, std::uint64_t line,
                  bool is_write, Cycle now)
    {
        if (finalized() || now > maxTime) [[unlikely]]
            rejectAccess(now);
        const auto t = static_cast<std::uint32_t>(now);
        std::uint32_t &last = lastAccess_[slot * linesPerPage + line];
        if (!is_write && t > last) {
            // The line had to survive since its previous access (or
            // its initialisation at t = 0) for this read to be
            // correct.
            ace_[slot] += t - last;
        }
        last = t;
    }

    /**
     * Cache hint: start loading the state onAccess(slot, line, ...)
     * will update. Changes no state.
     */
    void prefetch(std::uint32_t slot, std::uint64_t line) const
    {
        __builtin_prefetch(&lastAccess_[slot * linesPerPage + line]);
        __builtin_prefetch(&ace_[slot]);
    }

    /** ACE line-cycles a slot has accumulated so far. */
    Cycle aceOf(std::uint32_t slot) const { return ace_[slot]; }

    /** AVF of a slot in [0, 1] (after finalize). */
    double slotAvf(std::uint32_t slot) const;
    /** @} */

    /** Record one memory access at the given time. */
    void onAccess(Addr addr, bool is_write, Cycle now)
    {
        onAccess(addPage(pageOf(addr)), lineInPage(addr), is_write,
                 now);
    }

    /**
     * Close the measurement window. Tail intervals are dead; the
     * total time divides all ACE sums (Equation 1). Must be called
     * once, after the last access.
     */
    void finalize(Cycle end_time);

    /** AVF of one page in [0, 1] (0 for untouched pages). */
    double pageAvf(PageId page) const;

    /** Footprint-mean AVF over all touched pages. */
    double memoryAvf() const;

    /** All touched pages with their AVF, in slot order. */
    std::vector<std::pair<PageId, double>> pageAvfs() const;

    /** Number of touched pages. */
    std::size_t touchedPages() const { return ace_.size(); }

    /** True once finalize() has been called. */
    bool finalized() const { return totalTime_ > 0; }

    /**
     * Reset to an unfinalised tracker of `pages` touched slots with
     * no pages of its own (capacity is kept). With `pages` > 0 a
     * caller's index names the slots, and the PageId entry points
     * panic until the tracker is reset to empty.
     */
    void reset(std::size_t pages = 0);

  private:
    /** Panic for an access after finalize() or at a time >= 2^32. */
    [[noreturn]] void rejectAccess(Cycle now) const;

    /** Panic for a PageId entry point after reset(pages). */
    [[noreturn]] static void pageIdOnSlotTracker();

    /** The PageId entry points' slots (empty after reset(pages)). */
    PageIndex index_;
    /** Last access per line: slot * linesPerPage + line. */
    std::vector<std::uint32_t> lastAccess_;
    /** ACE sum over the page's lines, per slot. */
    std::vector<Cycle> ace_;
    Cycle totalTime_ = 0;
};

} // namespace ramp

#endif // RAMP_RELIABILITY_AVF_HH
