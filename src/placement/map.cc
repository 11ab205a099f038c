#include "placement/map.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ramp
{

PlacementMap::PlacementMap(std::uint64_t hbm_capacity_pages)
    : hbmCapacity_(hbm_capacity_pages)
{
    if (hbm_capacity_pages == 0)
        ramp_fatal("HBM capacity must be at least one page");
}

PlacementMap::Entry &
PlacementMap::entryOf(PageId page)
{
    return entries_[page];
}

std::uint64_t
PlacementMap::allocFrame(MemoryId mem)
{
    auto &free_list = mem == MemoryId::HBM ? freeHbmFrames_
                                           : freeDdrFrames_;
    if (!free_list.empty()) {
        const std::uint64_t frame = free_list.back();
        free_list.pop_back();
        return frame;
    }
    auto &next = mem == MemoryId::HBM ? nextHbmFrame_ : nextDdrFrame_;
    return next++;
}

void
PlacementMap::freeFrame(MemoryId mem, std::uint64_t frame)
{
    auto &free_list = mem == MemoryId::HBM ? freeHbmFrames_
                                           : freeDdrFrames_;
    free_list.push_back(frame);
}

MemoryId
PlacementMap::memoryOf(PageId page) const
{
    const auto it = entries_.find(page);
    return it == entries_.end() ? MemoryId::DDR : it->second.mem;
}

void
PlacementMap::place(PageId page, MemoryId mem)
{
    auto &entry = entryOf(page);
    if (entry.frame != UINT64_MAX)
        ramp_fatal("page ", page, " placed after first access");
    if (mem == MemoryId::HBM) {
        if (hbmUsed_ >= hbmCapacity_)
            ramp_fatal("initial placement exceeds HBM capacity");
        ++hbmUsed_;
    }
    entry.mem = mem;
}

void
PlacementMap::placePinned(PageId page, MemoryId mem)
{
    place(page, mem);
    entryOf(page).pinned = true;
}

bool
PlacementMap::isPinned(PageId page) const
{
    const auto it = entries_.find(page);
    return it != entries_.end() && it->second.pinned;
}

bool
PlacementMap::swap(PageId hbm_page, PageId ddr_page)
{
    auto &hot = entryOf(ddr_page);
    auto &cold = entryOf(hbm_page);
    if (cold.mem != MemoryId::HBM || hot.mem != MemoryId::DDR)
        return false;
    if (cold.pinned || hot.pinned)
        return false;
    std::swap(cold.mem, hot.mem);
    std::swap(cold.frame, hot.frame);
    migrations_ += 2; // two pages move across the HMA
    return true;
}

bool
PlacementMap::evictToDdr(PageId hbm_page)
{
    auto &entry = entryOf(hbm_page);
    if (entry.mem != MemoryId::HBM || entry.pinned)
        return false;
    if (entry.frame != UINT64_MAX) {
        freeFrame(MemoryId::HBM, entry.frame);
        entry.frame = allocFrame(MemoryId::DDR);
    }
    entry.mem = MemoryId::DDR;
    --hbmUsed_;
    ++migrations_;
    return true;
}

bool
PlacementMap::promoteToHbm(PageId ddr_page)
{
    auto &entry = entryOf(ddr_page);
    if (entry.mem != MemoryId::DDR || entry.pinned)
        return false;
    if (hbmUsed_ >= hbmCapacity_)
        return false;
    if (entry.frame != UINT64_MAX) {
        freeFrame(MemoryId::DDR, entry.frame);
        entry.frame = allocFrame(MemoryId::HBM);
    }
    entry.mem = MemoryId::HBM;
    ++hbmUsed_;
    ++migrations_;
    return true;
}

std::uint64_t
PlacementMap::moveRange(PageId first, std::uint64_t pages,
                        MemoryId dst)
{
    const MemoryId src =
        dst == MemoryId::HBM ? MemoryId::DDR : MemoryId::HBM;
    std::uint64_t budget =
        dst == MemoryId::HBM ? hbmFreePages() : UINT64_MAX;
    std::uint64_t moved = 0;
    for (std::uint64_t i = 0; i < pages && budget > 0; ++i) {
        const PageId page = first + i;
        const auto it = entries_.find(page);
        const MemoryId mem =
            it == entries_.end() ? MemoryId::DDR : it->second.mem;
        if (mem == dst ||
            (it != entries_.end() && it->second.pinned))
            continue;
        Entry &entry = entryOf(page);
        if (entry.frame != UINT64_MAX) {
            freeFrame(src, entry.frame);
            entry.frame = allocFrame(dst);
        }
        entry.mem = dst;
        if (dst == MemoryId::HBM) {
            ++hbmUsed_;
            --budget;
        } else {
            --hbmUsed_;
        }
        ++migrations_;
        ++moved;
    }
    return moved;
}

void
PlacementMap::pin(PageId page)
{
    entryOf(page).pinned = true;
}

RetireOutcome
PlacementMap::retirePage(PageId page)
{
    RetireOutcome out;
    if (isRetired(page))
        return out; // a frame dies once
    Entry &entry = entryOf(page);
    // Materialize the frame the error struck so the quarantine has
    // a concrete victim even for never-touched pages.
    if (entry.frame == UINT64_MAX)
        entry.frame = allocFrame(entry.mem);
    out.retired = true;
    out.from = entry.mem;
    auto &quarantine = entry.mem == MemoryId::HBM
                           ? retiredHbmFrames_
                           : retiredDdrFrames_;
    quarantine.insert(entry.frame);
    retiredPages_.insert(page);
    entry.frame = UINT64_MAX; // reallocates on next access

    if (entry.mem == MemoryId::HBM) {
        // The dead frame shrinks the tier; the page leaves with it.
        // Capacity loss may already have spent the whole budget.
        if (hbmCapacity_ > 0)
            --hbmCapacity_;
        --hbmUsed_;
        entry.mem = MemoryId::DDR;
        entry.pinned = true;
        out.crossedTier = true;
        ++migrations_;
    } else if (hbmFreePages() > 0) {
        entry.mem = MemoryId::HBM;
        entry.pinned = true;
        ++hbmUsed_;
        out.crossedTier = true;
        ++migrations_;
    }
    // else: HBM full — the page stays in DDR on a fresh frame,
    // unpinned, and the caller retries the promotion with backoff.
    out.to = entry.mem;
    return out;
}

std::uint64_t
PlacementMap::loseCapacity(MemoryId mem, std::uint64_t pages)
{
    if (mem != MemoryId::HBM)
        return 0; // DDR capacity is unbounded in this model
    const std::uint64_t lost = std::min(pages, hbmCapacity_);
    hbmCapacity_ -= lost;
    return lost;
}

bool
PlacementMap::isFrameRetired(MemoryId mem, std::uint64_t frame) const
{
    const auto &quarantine = mem == MemoryId::HBM
                                 ? retiredHbmFrames_
                                 : retiredDdrFrames_;
    return quarantine.count(frame) != 0;
}

std::uint64_t
PlacementMap::retiredFrames(MemoryId mem) const
{
    return mem == MemoryId::HBM ? retiredHbmFrames_.size()
                                : retiredDdrFrames_.size();
}

std::vector<PageId>
PlacementMap::retiredPages() const
{
    std::vector<PageId> pages(retiredPages_.begin(),
                              retiredPages_.end());
    std::sort(pages.begin(), pages.end());
    return pages;
}

std::vector<PageId>
PlacementMap::hbmPages() const
{
    std::vector<PageId> pages;
    pages.reserve(hbmUsed_);
    for (const auto &[page, entry] : entries_)
        if (entry.mem == MemoryId::HBM)
            pages.push_back(page);
    return pages;
}

} // namespace ramp
