#include "common/page_index.hh"

#include <algorithm>

namespace ramp
{

void
PageIndex::clear()
{
    pages_.clear();
    if (++gen_ == 0) {
        // Generation wrapped: stale cells could alias the new one.
        std::fill(cells_.begin(), cells_.end(), Cell{});
        gen_ = 1;
    }
}

void
PageIndex::grow()
{
    const std::size_t capacity =
        std::max<std::size_t>(64, 2 * cells_.size());
    cells_.assign(capacity, Cell{});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    gen_ = 1;
    for (std::uint32_t slot = 0; slot < pages_.size(); ++slot) {
        std::size_t i = home(pages_[slot]);
        while (cells_[i].gen == gen_)
            i = (i + 1) & mask_;
        cells_[i] = {pages_[slot], slot, gen_};
    }
}

} // namespace ramp
