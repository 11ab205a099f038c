#include "migration/counters.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ramp
{

double
FullCounterTable::Counts::wrRatio() const
{
    return static_cast<double>(writes) /
           static_cast<double>(std::max<std::uint32_t>(reads, 1));
}

FullCounterTable::FullCounterTable(std::uint32_t bits)
{
    if (bits == 0 || bits > 31)
        ramp_fatal("counter width must be in [1, 31] bits");
    maxCount_ = (1U << bits) - 1;
}

void
FullCounterTable::bind(const PageIndex &pages)
{
    bound_ = &pages;
    cells_.assign(pages.size(), Cell{});
}

void
FullCounterTable::onAccess(PageId page, bool is_write)
{
    const std::uint32_t slot = index_.intern(page);
    if (slot == cells_.size())
        cells_.emplace_back();
    onSlotAccess(slot, is_write);
}

FullCounterTable::Counts
FullCounterTable::countsOf(PageId page) const
{
    const std::uint32_t slot = pages().find(page);
    if (slot == PageIndex::none || cells_[slot].gen != gen_)
        return Counts{};
    return cells_[slot].counts;
}

std::vector<std::pair<PageId, FullCounterTable::Counts>>
FullCounterTable::touched() const
{
    std::vector<std::pair<PageId, Counts>> entries;
    entries.reserve(touched_.size());
    for (const std::uint32_t slot : touched_)
        entries.emplace_back(pages().page(slot), cells_[slot].counts);
    return entries;
}

double
FullCounterTable::meanHotness() const
{
    if (touched_.empty())
        return 0.0;
    double sum = 0;
    for (const std::uint32_t slot : touched_)
        sum += cells_[slot].counts.hotness();
    return sum / static_cast<double>(touched_.size());
}

double
FullCounterTable::meanWrRatio() const
{
    if (touched_.empty())
        return 0.0;
    double sum = 0;
    for (const std::uint32_t slot : touched_)
        sum += cells_[slot].counts.wrRatio();
    return sum / static_cast<double>(touched_.size());
}

void
FullCounterTable::reset()
{
    touched_.clear();
    if (++gen_ == 0) {
        // Generation wrapped: stale cells could alias the new one.
        std::fill(cells_.begin(), cells_.end(), Cell{});
        gen_ = 1;
    }
}

std::uint64_t
FullCounterTable::storageBytes(std::uint64_t pages, std::uint32_t bits,
                               bool split_read_write)
{
    const std::uint64_t per_page = split_read_write ? 2 * bits : bits;
    return (pages * per_page + 7) / 8;
}

MeaTracker::MeaTracker(std::size_t entries)
    : capacity_(entries)
{
    if (entries == 0)
        ramp_fatal("MEA tracker needs at least one entry");
    entries_.reserve(entries);
}

void
MeaTracker::onAccess(PageId page)
{
    for (Entry &entry : entries_) {
        if (entry.page == page) {
            ++entry.count;
            return;
        }
    }
    if (entries_.size() < capacity_) {
        entries_.push_back({page, 1});
        return;
    }
    // Misra-Gries step: decrement everyone, drop zeros.
    std::size_t kept = 0;
    for (Entry &entry : entries_)
        if (--entry.count != 0)
            entries_[kept++] = entry;
    entries_.resize(kept);
}

std::vector<PageId>
MeaTracker::hotPages() const
{
    std::vector<Entry> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.page < b.page;
              });
    std::vector<PageId> pages;
    pages.reserve(sorted.size());
    for (const Entry &entry : sorted)
        pages.push_back(entry.page);
    return pages;
}

void
MeaTracker::reset()
{
    entries_.clear();
}

std::uint64_t
MeaTracker::storageBytes(std::size_t entries)
{
    // Page number (6 B covers 48-bit addressing) + 2 B counter.
    return entries * 8;
}

RemapCache::RemapCache(std::size_t entries, Cycle miss_penalty)
    : capacity_(entries), missPenalty_(miss_penalty)
{
    if (entries == 0)
        ramp_fatal("remap cache needs at least one entry");
    if (entries >= nil)
        ramp_fatal("remap cache entries must fit a 32-bit node index");
    nodes_.reserve(entries);
}

void
RemapCache::unlink(std::uint32_t node)
{
    const Node &n = nodes_[node];
    (n.prev == nil ? head_ : nodes_[n.prev].next) = n.next;
    (n.next == nil ? tail_ : nodes_[n.next].prev) = n.prev;
}

void
RemapCache::pushFront(std::uint32_t node)
{
    nodes_[node].prev = nil;
    nodes_[node].next = head_;
    (head_ == nil ? tail_ : nodes_[head_].prev) = node;
    head_ = node;
}

void
RemapCache::bind(const PageIndex &pages)
{
    nodeOf_.assign(pages.size(), nil);
}

Cycle
RemapCache::lookup(PageId page)
{
    const std::uint32_t slot = index_.intern(page);
    if (slot == nodeOf_.size())
        nodeOf_.push_back(nil);
    return lookupSlot(slot);
}

Cycle
RemapCache::lookupSlot(std::uint32_t slot)
{
    std::uint32_t node = nodeOf_[slot];
    if (node != nil) {
        if (node != head_) {
            unlink(node);
            pushFront(node);
        }
        ++hits_;
        return 0;
    }
    ++misses_;
    if (nodes_.size() >= capacity_) {
        // Reuse the LRU entry's node for the incoming page.
        node = tail_;
        unlink(node);
        nodeOf_[nodes_[node].slot] = nil;
    } else {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back({});
    }
    nodes_[node].slot = slot;
    pushFront(node);
    nodeOf_[slot] = node;
    return missPenalty_;
}

double
RemapCache::hitRatio() const
{
    const std::uint64_t total = hits_ + misses_;
    if (total == 0)
        return 0.0;
    return static_cast<double>(hits_) / static_cast<double>(total);
}

std::uint64_t
RemapCache::storageBytes(std::size_t entries)
{
    return entries * 8;
}

} // namespace ramp
