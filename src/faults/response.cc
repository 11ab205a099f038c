#include "faults/response.hh"

#include <algorithm>

namespace ramp
{

ResponseState::ResponseState(std::uint32_t max_retries)
    : maxRetries_(max_retries)
{
}

void
ResponseState::queueRemap(PageId page, std::uint64_t epoch)
{
    for (const PendingRemap &pending : pending_)
        if (pending.page == page)
            return; // already owed
    pending_.push_back({page, 0, epoch + 1});
}

std::vector<PageId>
ResponseState::dueRemaps(std::uint64_t epoch) const
{
    std::vector<PageId> due;
    for (const PendingRemap &pending : pending_)
        if (pending.retryEpoch <= epoch)
            due.push_back(pending.page);
    std::sort(due.begin(), due.end());
    return due;
}

void
ResponseState::resolveRemap(PageId page)
{
    pending_.erase(
        std::remove_if(pending_.begin(), pending_.end(),
                       [&](const PendingRemap &pending) {
                           return pending.page == page;
                       }),
        pending_.end());
}

bool
ResponseState::backoff(PageId page, std::uint64_t epoch)
{
    ++retries_;
    for (PendingRemap &pending : pending_) {
        if (pending.page != page)
            continue;
        ++pending.attempts;
        if (pending.attempts >= maxRetries_) {
            resolveRemap(page);
            return true; // gave up
        }
        const std::uint32_t shift =
            std::min<std::uint32_t>(pending.attempts, 6U);
        pending.retryEpoch = epoch + (std::uint64_t{1} << shift);
        return false;
    }
    return false;
}

void
ResponseState::noteCorrectable(PageId page, std::uint64_t count)
{
    correctable_[page] += count;
}

std::uint64_t
ResponseState::correctableCount(PageId page) const
{
    const auto it = correctable_.find(page);
    return it == correctable_.end() ? 0 : it->second;
}

std::vector<PageId>
sweepVictims(const PlacementMap &map, const HotnessFn &hotness,
             std::uint64_t budget)
{
    if (budget == 0)
        return {};
    struct Victim
    {
        PageId page;
        std::uint64_t hotness;
    };
    std::vector<Victim> victims;
    for (const PageId page : map.hbmPages()) {
        if (map.isPinned(page))
            continue;
        victims.push_back({page, hotness(page)});
    }
    std::sort(victims.begin(), victims.end(),
              [](const Victim &a, const Victim &b) {
                  if (a.hotness != b.hotness)
                      return a.hotness < b.hotness;
                  return a.page < b.page;
              });
    if (victims.size() > budget)
        victims.resize(budget);
    std::vector<PageId> pages;
    pages.reserve(victims.size());
    for (const Victim &victim : victims)
        pages.push_back(victim.page);
    return pages;
}

} // namespace ramp
