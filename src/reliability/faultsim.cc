#include "reliability/faultsim.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "eventlog/eventlog.hh"
#include "prof/prof.hh"
#include "runner/error.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{

namespace
{

/** Per-shard outcome counters (updated once per shard). */
struct FaultSimTelemetry
{
    telemetry::Counter &shards =
        telemetry::metrics().counter("faultsim.shards");
    telemetry::Counter &trials =
        telemetry::metrics().counter("faultsim.trials");
    telemetry::Counter &faults =
        telemetry::metrics().counter("faultsim.faults_injected");
    telemetry::Counter &corrected =
        telemetry::metrics().counter("faultsim.corrected");
    telemetry::Counter &uncorrected =
        telemetry::metrics().counter("faultsim.uncorrected");
};

FaultSimTelemetry &
faultSimTelemetry()
{
    static FaultSimTelemetry telemetry;
    return telemetry;
}

} // namespace

FaultSimConfig
FaultSimConfig::ddrChipKill()
{
    FaultSimConfig config;
    config.name = "DDR3-x4-ChipKill";
    config.rates = FitRates::fieldStudyDdr();
    config.geometry.banks = 8;
    config.geometry.rows = 32768;
    config.geometry.columns = 1024;
    config.geometry.bitsPerWord = 4;
    config.chips = 18; // 16 data + 2 ECC, x4
    config.dataBytes = 8ULL << 30;
    config.ecc = EccKind::ChipKill;
    return config;
}

FaultSimConfig
FaultSimConfig::hbmSecDed(double stacked_factor)
{
    FaultSimConfig config;
    config.name = "HBM-SEC-DED";
    config.rates = FitRates::stacked(stacked_factor);
    config.geometry.banks = 8;
    config.geometry.rows = 16384;
    config.geometry.columns = 512;
    // One die renders the whole 128-bit word (Section 2.2), so any
    // coarse fault mode is a multi-bit pattern for SEC-DED.
    config.geometry.bitsPerWord = 128;
    config.chips = 1;
    config.dataBytes = 128ULL << 20; // one HBM channel of Table 1
    config.ecc = EccKind::SecDed;
    config.tier = MemoryId::HBM;
    return config;
}

FaultSim::FaultSim(const FaultSimConfig &config)
    : config_(config)
{
    if (config.chips == 0)
        ramp_fatal("FaultSim needs at least one chip");
    if (config.hours <= 0)
        ramp_fatal("FaultSim horizon must be positive");
    if (config.fitBoost < 1.0)
        ramp_fatal("fitBoost must be >= 1");
}

FaultRecord
FaultSim::drawFault(Rng &rng) const
{
    // Pick the mode proportionally to its FIT share.
    const double total = config_.rates.total();
    double pick = rng.nextDouble() * total;
    auto mode = FaultMode::Rank;
    for (int m = 0; m < numFaultModes; ++m) {
        const auto candidate = static_cast<FaultMode>(m);
        pick -= config_.rates.of(candidate);
        if (pick <= 0) {
            mode = candidate;
            break;
        }
    }

    const auto &geometry = config_.geometry;
    FaultRecord fault;
    fault.mode = mode;
    fault.chip = static_cast<std::uint32_t>(
        rng.nextRange(config_.chips));
    switch (mode) {
      case FaultMode::Bit:
        fault.bank = rng.nextRange(geometry.banks);
        fault.row = rng.nextRange(geometry.rows);
        fault.column = rng.nextRange(geometry.columns);
        fault.bit = rng.nextRange(geometry.bitsPerWord);
        break;
      case FaultMode::Word:
        fault.bank = rng.nextRange(geometry.banks);
        fault.row = rng.nextRange(geometry.rows);
        fault.column = rng.nextRange(geometry.columns);
        break;
      case FaultMode::Column:
        fault.bank = rng.nextRange(geometry.banks);
        fault.column = rng.nextRange(geometry.columns);
        fault.bit = rng.nextRange(geometry.bitsPerWord);
        break;
      case FaultMode::Row:
        fault.bank = rng.nextRange(geometry.banks);
        fault.row = rng.nextRange(geometry.rows);
        break;
      case FaultMode::Bank:
        fault.bank = rng.nextRange(geometry.banks);
        break;
      case FaultMode::Rank:
        break;
    }
    return fault;
}

namespace
{

/**
 * Geometric page attribution of a fault: spread the rank's data
 * bytes evenly across the (bank, row, column) word grid and map the
 * fault's first affected word to its page. Wildcard coordinates
 * (coarse modes) attribute to the first word they cover.
 */
PageId
faultPage(const FaultRecord &fault, const ChipGeometry &geometry,
          std::uint64_t data_bytes)
{
    const auto coord = [](std::uint64_t value) {
        return value == faultWildcard ? 0 : value;
    };
    const std::uint64_t words = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(geometry.banks) *
               geometry.rows * geometry.columns);
    const std::uint64_t word =
        (coord(fault.bank) * geometry.rows + coord(fault.row)) *
            geometry.columns +
        coord(fault.column);
    const std::uint64_t word_bytes =
        std::max<std::uint64_t>(1, data_bytes / words);
    const std::uint64_t pages =
        std::max<std::uint64_t>(1, data_bytes / pageSize);
    return word * word_bytes / pageSize % pages;
}

} // namespace

FaultSim::ShardCounts
FaultSim::runShard(std::uint64_t trials, std::uint64_t seed,
                   std::uint64_t shard) const
{
    RAMP_TELEM_SPAN(shard_span, "faultsim.shard", "reliability");
    RAMP_PROF_SCOPE_PMU(shard_prof, "faultsim.shard");
    // Shard labels are schedule-independent, so ledger analyzers
    // see identical fault streams at any --jobs width.
    eventlog::RunScope events_scope(config_.name + "/shard" +
                                    std::to_string(shard));
    Rng rng(seed);
    ShardCounts counts;

    const double mean_faults = config_.rates.total() *
                               static_cast<double>(config_.chips) *
                               config_.hours / 1e9 * config_.fitBoost;

    std::vector<FaultRecord> faults;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
        const std::uint64_t count = rng.nextPoisson(mean_faults);
        counts.faults += count;
        faults.clear();
        for (std::uint64_t i = 0; i < count; ++i)
            faults.push_back(drawFault(rng));

        switch (classifyFaults(config_.ecc, faults,
                               config_.geometry)) {
          case EccOutcome::NoError:
            ++counts.noError;
            break;
          case EccOutcome::Corrected:
            ++counts.corrected;
            break;
          case EccOutcome::Uncorrected:
            ++counts.uncorrected;
            // Only the rare uncorrected trials put per-fault
            // records in the ledger, keeping fault volume bounded
            // while every reliability escape stays attributable.
            RAMP_OBS(Events, {
                for (const FaultRecord &fault : faults) {
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Fault;
                    record.policy = eventlog::PolicyId::FaultSim;
                    record.dst = eventlog::tierOf(config_.tier);
                    record.detail = static_cast<std::uint8_t>(
                        fault.mode);
                    record.epoch = trial;
                    record.page = faultPage(fault, config_.geometry,
                                            config_.dataBytes);
                    eventlog::emit(record);
                }
            });
            break;
        }
    }
    RAMP_OBS(Telemetry, {
        auto &tel = faultSimTelemetry();
        tel.shards.add(1);
        tel.trials.add(trials);
        tel.faults.add(counts.faults);
        tel.corrected.add(counts.corrected);
        tel.uncorrected.add(counts.uncorrected);
    });
    return counts;
}

FaultSimResult
FaultSim::run(std::uint64_t trials, std::uint64_t seed,
              runner::ThreadPool *pool) const
{
    RAMP_TELEM_SPAN(campaign_span, "faultsim.campaign",
                    "reliability",
                    telemetry::traceArg("config", config_.name));

    // The campaign is embarrassingly parallel: fixed-size shards
    // with SplitMix64-derived seeds make the outcome a pure
    // function of (trials, seed) regardless of thread count.
    const std::uint64_t shards =
        (trials + shardTrials - 1) / shardTrials;

    auto shard_counts = [&](std::size_t shard) {
        const std::uint64_t first = shard * shardTrials;
        const std::uint64_t size =
            std::min(shardTrials, trials - first);
        return runShard(size, runner::taskSeed(seed, shard),
                        shard);
    };

    std::vector<ShardCounts> per_shard;
    if (pool != nullptr) {
        per_shard = pool->mapIndex(shards, shard_counts);
        // The pool stops dispatching once a shutdown is requested;
        // a partially-run campaign must not be mistaken for a
        // converged one.
        runner::throwIfCancelled("fault-injection campaign");
    } else {
        per_shard.reserve(shards);
        for (std::uint64_t shard = 0; shard < shards; ++shard)
            per_shard.push_back(shard_counts(shard));
    }

    FaultSimResult result;
    result.trials = trials;
    std::uint64_t total_faults = 0;
    for (const auto &counts : per_shard) {
        result.noError += counts.noError;
        result.corrected += counts.corrected;
        result.uncorrected += counts.uncorrected;
        total_faults += counts.faults;
    }

    result.avgFaultsPerTrial =
        trials == 0 ? 0
                    : static_cast<double>(total_faults) /
                          static_cast<double>(trials);

    // De-boost: single-fault-dominated codes scale linearly in the
    // injection rate, pair-dominated ones quadratically.
    const double order = config_.ecc == EccKind::ChipKill ? 2.0 : 1.0;
    const double boost_scale =
        std::pow(config_.fitBoost, order);
    const double p_boosted =
        trials == 0 ? 0
                    : static_cast<double>(result.uncorrected) /
                          static_cast<double>(trials);
    result.pUncorrected = p_boosted / boost_scale;
    result.fitUncorrectedPerRank =
        result.pUncorrected / config_.hours * 1e9;
    result.fitUncorrectedPerGB =
        result.fitUncorrectedPerRank /
        (static_cast<double>(config_.dataBytes) /
         static_cast<double>(1ULL << 30));
    return result;
}

} // namespace ramp
