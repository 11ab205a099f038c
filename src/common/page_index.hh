/**
 * @file
 * Dense page index: interns PageIds into slots 0, 1, 2, ... in
 * first-intern order.
 *
 * Per-page state that is touched on every simulated access lives in
 * flat vectors indexed by slot; this table is the one place a PageId
 * is hashed. It is a single open-addressing array (linear probing,
 * Fibonacci hashing) of 16-byte cells, so a lookup is one multiply
 * and usually one cache line. clear() is O(1): cells carry the
 * generation they were written in, and bumping the generation
 * empties the table while keeping its capacity for the next user.
 */

#ifndef RAMP_COMMON_PAGE_INDEX_HH
#define RAMP_COMMON_PAGE_INDEX_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ramp
{

/** Flat PageId -> dense slot table. */
class PageIndex
{
  public:
    /** find() result for a page that has no slot. */
    static constexpr std::uint32_t none = UINT32_MAX;

    /** Slot of a page, assigning the next slot on first sight. */
    std::uint32_t intern(PageId page)
    {
        if (2 * (pages_.size() + 1) > cells_.size())
            grow();
        for (std::size_t i = home(page);; i = (i + 1) & mask_) {
            Cell &cell = cells_[i];
            if (cell.gen != gen_) {
                cell = {page, static_cast<std::uint32_t>(pages_.size()),
                        gen_};
                pages_.push_back(page);
                return cell.slot;
            }
            if (cell.page == page)
                return cell.slot;
        }
    }

    /** Slot of a page, or none when it was never interned. */
    std::uint32_t find(PageId page) const
    {
        if (cells_.empty())
            return none;
        for (std::size_t i = home(page);; i = (i + 1) & mask_) {
            const Cell &cell = cells_[i];
            if (cell.gen != gen_)
                return none;
            if (cell.page == page)
                return cell.slot;
        }
    }

    /** The page a slot stands for. */
    PageId page(std::uint32_t slot) const { return pages_[slot]; }

    /** Interned pages (the next slot to be assigned). */
    std::size_t size() const { return pages_.size(); }

    /** Forget every page; capacity is kept. */
    void clear();

  private:
    struct Cell
    {
        PageId page = 0;
        std::uint32_t slot = 0;
        std::uint32_t gen = 0; ///< live only when equal to gen_
    };

    std::size_t home(PageId page) const
    {
        return static_cast<std::size_t>(
                   (page * 0x9E3779B97F4A7C15ULL) >> shift_) &
               mask_;
    }

    /** Double the cell array (load factor stays <= 1/2). */
    void grow();

    std::vector<Cell> cells_;
    std::vector<PageId> pages_;
    std::size_t mask_ = 0;
    unsigned shift_ = 63;
    std::uint32_t gen_ = 1;
};

} // namespace ramp

#endif // RAMP_COMMON_PAGE_INDEX_HH
