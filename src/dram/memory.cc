#include "dram/memory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ramp
{

double
DramStats::rowHitRatio() const
{
    const std::uint64_t total = rowHits + rowMisses;
    if (total == 0)
        return 0.0;
    return static_cast<double>(rowHits) / static_cast<double>(total);
}

double
DramStats::avgReadLatency() const
{
    if (reads == 0)
        return 0.0;
    return static_cast<double>(totalReadLatency) /
           static_cast<double>(reads);
}

double
DramStats::busUtilisation(Cycle makespan, std::uint32_t channels) const
{
    if (makespan == 0 || channels == 0)
        return 0.0;
    return static_cast<double>(busBusyCycles) /
           (static_cast<double>(makespan) *
            static_cast<double>(channels));
}

DramMemory::DramMemory(const DramConfig &config)
    : config_(config)
{
    if (config.channels == 0 || config.banksPerRank == 0 ||
        config.ranksPerChannel == 0)
        ramp_fatal("DRAM config must have channels/ranks/banks > 0");
    if (config.rowBytes % lineSize != 0)
        ramp_fatal("DRAM row size must be a line multiple");
    busFree_.assign(config.channels, 0);
    banks_.assign(static_cast<std::size_t>(config.totalBanks()),
                  BankState{});
}

DramMemory::Coords
DramMemory::decode(Addr addr) const
{
    const LineId line = lineOf(addr);
    const std::uint64_t lines_per_row = config_.rowBytes / lineSize;
    const std::uint32_t banks_per_channel =
        config_.ranksPerChannel * config_.banksPerRank;

    Coords coords;
    coords.channel =
        static_cast<std::uint32_t>(line % config_.channels);
    const std::uint64_t in_channel = line / config_.channels;
    const std::uint64_t row_index = in_channel / lines_per_row;
    coords.bank =
        static_cast<std::uint32_t>(row_index % banks_per_channel);
    coords.row = row_index / banks_per_channel;
    return coords;
}

Cycle
DramMemory::access(Cycle now, Addr addr, bool is_write)
{
    const Coords coords = decode(addr);
    auto &bank = banks_[coords.channel *
                            config_.ranksPerChannel *
                            config_.banksPerRank +
                        coords.bank];
    auto &bus_free = busFree_[coords.channel];
    const DramTiming &t = config_.timing;

    const Cycle start = std::max(now, bank.readyAt);
    const bool row_hit = bank.openRow == coords.row;

    Cycle open_penalty = 0;
    if (row_hit) {
        ++stats_.rowHits;
    } else {
        open_penalty =
            bank.openRow == UINT64_MAX ? t.tRCD : t.tRP + t.tRCD;
        ++stats_.rowMisses;
        bank.openRow = coords.row;
    }
    const Cycle cas_latency = is_write ? t.tCWL : t.tCL;

    // The burst may not start before the CAS resolves and the data
    // bus is free.
    const Cycle burst_start =
        std::max(start + open_penalty + cas_latency, bus_free);
    const Cycle completion = burst_start + t.tBURST;

    bus_free = completion;
    // Column commands to an open row pipeline under the data burst:
    // the bank can accept the next CAS once this burst has drained,
    // so a row-hit stream runs at burst rate, not CAS-latency rate.
    bank.readyAt = std::max(start + open_penalty + t.tBURST,
                            burst_start + t.tBURST - cas_latency);
    stats_.busBusyCycles += t.tBURST;

    if (is_write) {
        ++stats_.writes;
    } else {
        ++stats_.reads;
        stats_.totalReadLatency += completion - now;
    }
    return completion;
}

} // namespace ramp
