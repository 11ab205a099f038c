#include "reliability/avf.hh"

#include "common/logging.hh"

namespace ramp
{

void
AvfTracker::rejectAccess(Cycle now) const
{
    if (finalized())
        ramp_panic("AvfTracker accessed after finalize");
    ramp_panic("AvfTracker access at cycle ", now,
               " reaches 2^32 cycles, past its 32-bit line times");
}

void
AvfTracker::pageIdOnSlotTracker()
{
    ramp_panic("AvfTracker PageId entry point after reset(pages)");
}

void
AvfTracker::finalize(Cycle end_time)
{
    if (end_time == 0)
        ramp_fatal("AVF window must have positive length");
    if (finalized())
        ramp_panic("AvfTracker finalized twice");
    totalTime_ = end_time;
}

double
AvfTracker::slotAvf(std::uint32_t slot) const
{
    if (!finalized())
        ramp_panic("slotAvf before finalize");
    return static_cast<double>(ace_[slot]) /
           (static_cast<double>(linesPerPage) *
            static_cast<double>(totalTime_));
}

double
AvfTracker::pageAvf(PageId page) const
{
    if (!finalized())
        ramp_panic("pageAvf before finalize");
    if (index_.size() != ace_.size())
        pageIdOnSlotTracker();
    const std::uint32_t slot = index_.find(page);
    return slot == PageIndex::none ? 0.0 : slotAvf(slot);
}

double
AvfTracker::memoryAvf() const
{
    if (!finalized())
        ramp_panic("memoryAvf before finalize");
    if (ace_.empty())
        return 0.0;
    // Integer sum: exact, so independent of page order.
    Cycle sum = 0;
    for (const Cycle ace : ace_)
        sum += ace;
    return static_cast<double>(sum) /
           (static_cast<double>(linesPerPage) *
            static_cast<double>(totalTime_) *
            static_cast<double>(ace_.size()));
}

std::vector<std::pair<PageId, double>>
AvfTracker::pageAvfs() const
{
    if (index_.size() != ace_.size())
        pageIdOnSlotTracker();
    std::vector<std::pair<PageId, double>> result;
    result.reserve(ace_.size());
    for (std::uint32_t slot = 0; slot < ace_.size(); ++slot)
        result.emplace_back(index_.page(slot), slotAvf(slot));
    return result;
}

void
AvfTracker::reset(std::size_t pages)
{
    index_.clear();
    lastAccess_.assign(pages * linesPerPage, 0);
    ace_.assign(pages, 0);
    totalTime_ = 0;
}

} // namespace ramp
