#include "faults/injector.hh"

#include <algorithm>

namespace ramp
{

const char *
faultSourceName(FaultSource source)
{
    switch (source) {
      case FaultSource::Script: return "script";
      case FaultSource::Poisson: return "poisson";
      case FaultSource::Hammer: return "hammer";
    }
    return "?";
}

double
InjectorConfig::faultsPerEpoch(const FitRates &rates, int chips,
                               double hours_per_epoch)
{
    return rates.total() * static_cast<double>(chips) / 1e9 *
           hours_per_epoch;
}

FaultInjector::FaultInjector(InjectorConfig config)
    : config_(std::move(config)), rng_(config_.seed),
      tracking_(config_.poissonFaultsPerEpoch > 0 ||
                config_.hammerThreshold > 0),
      fired_(config_.script.size(), false)
{
}

void
FaultInjector::beginRun(const PageIndex &pages)
{
    if (config_.poissonFaultsPerEpoch > 0)
        seen_.assign(pages.size(), 0);
    if (config_.hammerThreshold > 0)
        activations_.assign(pages.size(), 0);
}

void
FaultInjector::onAccess(PageId page, bool is_write, MemoryId mem)
{
    (void)is_write;
    (void)mem;
    if (!tracking_)
        return;
    const std::uint32_t slot = index_.intern(page);
    if (config_.poissonFaultsPerEpoch > 0 && slot == seen_.size())
        seen_.push_back(0);
    if (config_.hammerThreshold > 0 && slot == activations_.size())
        activations_.push_back(0);
    track(slot, page);
}

void
FaultInjector::track(std::uint32_t slot, PageId page)
{
    if (config_.poissonFaultsPerEpoch > 0 && !seen_[slot]) {
        seen_[slot] = 1;
        population_.push_back(page);
    }
    if (config_.hammerThreshold > 0 && activations_[slot]++ == 0)
        activeSlots_.emplace_back(slot, page);
}

std::vector<InjectedFault>
FaultInjector::onEpoch(std::uint64_t epoch)
{
    std::vector<InjectedFault> faults;

    // 1. Scripted events, in script order. Firing on `<=` instead
    // of `==` catches up events scheduled before the first boundary
    // or into epochs the run never reached cleanly.
    for (std::size_t i = 0; i < config_.script.size(); ++i) {
        if (fired_[i] || config_.script[i].epoch > epoch)
            continue;
        fired_[i] = true;
        const FaultEvent &event = config_.script[i];
        InjectedFault fault;
        fault.kind = event.kind;
        fault.source = FaultSource::Script;
        fault.page = event.page;
        fault.tier = event.tier;
        fault.pages = event.pages;
        fault.pct = event.pct;
        fault.count = event.count;
        faults.push_back(fault);
    }

    // 2. Poisson arrivals over the touched-page population.
    if (!population_.empty()) {
        const std::uint64_t arrivals =
            rng_.nextPoisson(config_.poissonFaultsPerEpoch);
        for (std::uint64_t i = 0; i < arrivals; ++i) {
            InjectedFault fault;
            fault.source = FaultSource::Poisson;
            fault.page =
                population_[rng_.nextRange(population_.size())];
            fault.kind = rng_.nextDouble() <
                                 config_.poissonUncorrectedShare
                             ? FaultEventKind::Uncorrected
                             : FaultEventKind::Correctable;
            faults.push_back(fault);
        }
    }

    // 3. Hammer: aggressors over the threshold disturb their
    // neighbour page, in ascending page order.
    if (!activeSlots_.empty()) {
        std::vector<std::pair<PageId, std::uint32_t>> hot;
        for (const auto &[slot, page] : activeSlots_) {
            if (activations_[slot] >= config_.hammerThreshold)
                hot.emplace_back(page, activations_[slot]);
            activations_[slot] = 0;
        }
        activeSlots_.clear();
        std::sort(hot.begin(), hot.end());
        for (const auto &[aggressor, count] : hot) {
            InjectedFault fault;
            fault.source = FaultSource::Hammer;
            fault.page = aggressor + 1; // adjacent-row victim
            fault.kind = count >= 2 * config_.hammerThreshold
                             ? FaultEventKind::Uncorrected
                             : FaultEventKind::Correctable;
            faults.push_back(fault);
        }
    }

    produced_ += faults.size();
    return faults;
}

} // namespace ramp
