/**
 * @file
 * Deterministic online fault injection against a live HMA run.
 *
 * The injector is driven by the simulator at its own epoch boundary
 * (epochCycles) and produces the faults that land in that epoch,
 * from three sources evaluated in a fixed order:
 *
 *  1. Script — the `--inject` plan (plan.hh), exact page/epoch
 *     campaigns that reproduce bit-for-bit.
 *  2. Poisson — arrivals at a mean rate derived from the FaultSim
 *     FitRates (faultsPerEpoch), striking uniformly over the pages
 *     the run has touched; a configured share arrives uncorrected.
 *  3. Hammer — RowHammer-style: pages whose per-epoch activation
 *     count crosses the threshold disturb their address neighbour
 *     (page + 1), escalating to an uncorrected strike at twice the
 *     threshold. Hot pages become risky pages.
 *
 * Everything draws from one explicitly seeded Rng and iterates in
 * sorted/first-touch order, so the same seed produces the same fault
 * schedule regardless of --jobs. The injector only *produces*
 * faults; the response (retirement, sweeps, degraded mode) lives in
 * HmaSystem + PlacementMap (see DESIGN.md §12).
 */

#ifndef RAMP_FAULTS_INJECTOR_HH
#define RAMP_FAULTS_INJECTOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/page_index.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "faults/plan.hh"
#include "reliability/fit.hh"

namespace ramp
{

/** Which injector source produced a fault. */
enum class FaultSource : std::uint8_t
{
    Script,
    Poisson,
    Hammer,
};

/** Stable spelling ("script", "poisson", "hammer"). */
const char *faultSourceName(FaultSource source);

/** One fault the injector landed (input to the response side). */
struct InjectedFault
{
    FaultEventKind kind = FaultEventKind::Uncorrected;
    FaultSource source = FaultSource::Script;

    /** Struck page (invalidPage for capacity loss). */
    PageId page = invalidPage;

    /** Tier losing capacity (CapacityLoss only). */
    MemoryId tier = MemoryId::HBM;

    /** Absolute capacity pages lost (0 = resolve pct). */
    std::uint64_t pages = 0;

    /** Capacity lost as a percentage of the tier. */
    double pct = 0;

    /** Correctable burst size. */
    std::uint64_t count = 1;
};

/** Injector knobs. All sources off by default. */
struct InjectorConfig
{
    /** Scripted events (parseFaultPlan of `--inject`). */
    std::vector<FaultEvent> script;

    /** Rng seed for the Poisson source. */
    std::uint64_t seed = 1;

    /** Injector epoch length in cycles. */
    Cycle epochCycles = 3'200'000;

    /** Mean Poisson arrivals per epoch (0 = source off). */
    double poissonFaultsPerEpoch = 0;

    /** Fraction of Poisson arrivals that are uncorrected. */
    double poissonUncorrectedShare = 0.05;

    /** Activations per epoch that trigger hammer (0 = off). */
    std::uint32_t hammerThreshold = 0;

    /** Response: emergency-demotion budget per injector epoch. */
    std::uint32_t sweepCapPages = 256;

    /** Response: remap retry attempts before giving up (degrade). */
    std::uint32_t maxRetries = 8;

    /** True when any source can fire. */
    bool active() const
    {
        return !script.empty() || poissonFaultsPerEpoch > 0 ||
               hammerThreshold > 0;
    }

    /**
     * Mean fault arrivals per epoch for a device population at the
     * given FIT rates: total FIT x chips / 1e9 device-hours, scaled
     * to the epoch's length in hours. This seeds the Poisson source
     * from the same numbers the offline FaultSim consumes. Real FIT
     * magnitudes produce vanishing per-epoch means at simulated-
     * cycle timescales, so campaigns pass accelerated hours (or a
     * fitBoost-scaled FitRates) here on purpose.
     */
    static double faultsPerEpoch(const FitRates &rates, int chips,
                                 double hours_per_epoch);
};

/** Produces the faults of each epoch; one instance per run. */
class FaultInjector
{
  public:
    explicit FaultInjector(InjectorConfig config);

    const InjectorConfig &config() const { return config_; }
    Cycle epochCycles() const { return config_.epochCycles; }

    /**
     * Bind to a run's page slots, before the run's first access:
     * slots index the per-page state, so `pages` must hold every page
     * the run touches. The PageId onAccess may no longer be called.
     */
    void beginRun(const PageIndex &pages);

    /**
     * Observe one demand access to `page`, whose slot in the beginRun
     * index is `slot`. When the Poisson source is on, records
     * first-touch pages (its victim population); when the hammer
     * source is on, counts per-page activations for this epoch.
     * With neither on it does nothing.
     */
    void onSlotAccess(std::uint32_t slot, PageId page)
    {
        if (tracking_)
            track(slot, page);
    }

    /** onSlotAccess for an unbound injector: slots are its own. */
    void onAccess(PageId page, bool is_write, MemoryId mem);

    /**
     * Epoch boundary: the faults landing in epoch `epoch` (1-based),
     * in deterministic order — scripted events first (script order,
     * including any catch-up from skipped epochs), then Poisson
     * arrivals, then hammer victims in ascending page order.
     */
    std::vector<InjectedFault> onEpoch(std::uint64_t epoch);

    /** Lifetime faults produced, by source (telemetry/tests). */
    std::uint64_t produced() const { return produced_; }

  private:
    void track(std::uint32_t slot, PageId page);

    InjectorConfig config_;
    Rng rng_;
    bool tracking_; ///< the Poisson or the hammer source is on
    PageIndex index_; ///< onAccess's slots (unused once bound)
    /** @{ @name Poisson source (empty while it is off) */
    std::vector<std::uint8_t> seen_; ///< by slot: in population_
    std::vector<PageId> population_; ///< touched pages, first touch
    /** @} */
    /** @{ @name Hammer source (empty while it is off) */
    std::vector<std::uint32_t> activations_; ///< by slot, this epoch
    /** Slots counted this epoch, with their pages. */
    std::vector<std::pair<std::uint32_t, PageId>> activeSlots_;
    /** @} */
    std::vector<bool> fired_; ///< script events already landed
    std::uint64_t produced_ = 0;
};

} // namespace ramp

#endif // RAMP_FAULTS_INJECTOR_HH
