/**
 * @file
 * Resource-reservation DRAM timing model (Ramulator substitute).
 *
 * Each access reserves its bank and channel data bus in arrival
 * order: completion = max(arrival, bank ready, bus ready) + command
 * latency + burst. Row-buffer state is tracked per bank, so row hits
 * are cheaper than activations and streaming access patterns see
 * higher effective bandwidth. The model captures the three behaviours
 * the study depends on — HBM's channel-level parallelism, row-hit vs
 * row-miss latency, and queueing under bandwidth saturation — at a
 * small fraction of the cost of per-command replay (see DESIGN.md).
 */

#ifndef RAMP_DRAM_MEMORY_HH
#define RAMP_DRAM_MEMORY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/config.hh"

namespace ramp
{

/** Aggregate counters of one memory device. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;

    /** Total data-bus busy cycles summed over channels. */
    Cycle busBusyCycles = 0;

    /** Sum of read service latencies (arrival to data). */
    Cycle totalReadLatency = 0;

    /** Row-buffer hit ratio in [0, 1]. */
    double rowHitRatio() const;

    /** Mean read latency in cycles. */
    double avgReadLatency() const;

    /** Bus utilisation given the makespan and channel count. */
    double busUtilisation(Cycle makespan,
                          std::uint32_t channels) const;
};

/** One DRAM device (all channels of the HBM or DDR slot). */
class DramMemory
{
  public:
    /** Build an idle device. */
    explicit DramMemory(const DramConfig &config);

    /**
     * Issue one 64 B access.
     *
     * @param now arrival time in core cycles (must be >= 0; arrivals
     *            may be out of order across cores, the model orders
     *            service by reservation)
     * @param addr device-local byte address (frame address)
     * @param is_write true for writebacks/stores
     * @return completion time (data available / write accepted)
     */
    Cycle access(Cycle now, Addr addr, bool is_write);

    /** Device geometry. */
    const DramConfig &config() const { return config_; }

    /** Event counters. */
    const DramStats &stats() const { return stats_; }

    /** Reset counters (placement passes reuse one device). */
    void resetStats() { stats_ = DramStats{}; }

  private:
    /** Decomposed device coordinates of an address. */
    struct Coords
    {
        std::uint32_t channel;
        std::uint32_t bank; ///< flattened rank*banksPerRank + bank
        std::uint64_t row;
    };

    Coords decode(Addr addr) const;

    struct BankState
    {
        std::uint64_t openRow = UINT64_MAX;
        Cycle readyAt = 0;
    };

    DramConfig config_;
    std::vector<Cycle> busFree_;            ///< per channel
    std::vector<BankState> banks_;          ///< per channel x bank
    DramStats stats_;
};

} // namespace ramp

#endif // RAMP_DRAM_MEMORY_HH
