/**
 * @file
 * Fault-response bookkeeping: retry backlog, backoff, degraded mode.
 *
 * The response side of the fault subsystem lives in HmaSystem (it
 * owns the placement and the bandwidth model); this class holds the
 * pure state it threads through the run: cross-tier remaps that
 * failed because the surviving tier was full (retried with
 * exponential backoff, dropped — and the run degraded — after
 * maxRetries), correctable-strike counts per page, and the sticky
 * degraded-mode flag that keeps a capacity-starved run completing
 * instead of aborting.
 *
 * sweepVictims picks the emergency-demotion victims of a capacity
 * loss: the coldest unpinned HBM pages first, ties broken by page
 * id, so the sweep is deterministic and sacrifices as little
 * performance as the budget allows.
 */

#ifndef RAMP_FAULTS_RESPONSE_HH
#define RAMP_FAULTS_RESPONSE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "placement/map.hh"

namespace ramp
{

/** One cross-tier remap still owed to a retired page. */
struct PendingRemap
{
    PageId page = invalidPage;

    /** Failed attempts so far. */
    std::uint32_t attempts = 0;

    /** Injector epoch the next attempt is due. */
    std::uint64_t retryEpoch = 0;
};

/** Mutable response state of one run. */
class ResponseState
{
  public:
    explicit ResponseState(std::uint32_t max_retries = 8);

    /** Queue a failed cross-tier remap; first retry next epoch. */
    void queueRemap(PageId page, std::uint64_t epoch);

    /** Pages due a retry this epoch, ascending page id. */
    std::vector<PageId> dueRemaps(std::uint64_t epoch) const;

    /** A retry succeeded: drop the page from the backlog. */
    void resolveRemap(PageId page);

    /**
     * A retry failed: push the page out by an exponentially growing
     * delay (1, 2, 4, ... epochs, capped at 64).
     * @return true when the page exhausted maxRetries and was
     *         dropped — the caller records degradation
     */
    bool backoff(PageId page, std::uint64_t epoch);

    /** Remaps still owed. */
    std::size_t backlog() const { return pending_.size(); }

    /** Lifetime retry attempts (telemetry). */
    std::uint64_t retries() const { return retries_; }

    /** @{ @name Degraded mode (sticky once entered) */
    bool degraded() const { return degraded_; }
    void setDegraded() { degraded_ = true; }
    /** @} */

    /** Count a correctable strike against a page. */
    void noteCorrectable(PageId page, std::uint64_t count = 1);

    /** Correctable strikes a page has absorbed. */
    std::uint64_t correctableCount(PageId page) const;

  private:
    std::uint32_t maxRetries_;
    std::vector<PendingRemap> pending_;
    std::unordered_map<PageId, std::uint64_t> correctable_;
    std::uint64_t retries_ = 0;
    bool degraded_ = false;
};

/** Live access count of a page (zero when untouched). */
using HotnessFn = std::function<std::uint64_t(PageId)>;

/**
 * Emergency-demotion victims for a capacity-loss sweep: up to
 * `budget` unpinned HBM-resident pages, coldest first by the run's
 * live hotness, page id on ties.
 */
std::vector<PageId> sweepVictims(const PlacementMap &map,
                                 const HotnessFn &hotness,
                                 std::uint64_t budget);

} // namespace ramp

#endif // RAMP_FAULTS_RESPONSE_HH
