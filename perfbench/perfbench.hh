/**
 * @file
 * The repository benchmark: shared types of the campaign runner and
 * the per-layer stage replays.
 *
 * Everything here times calls into the simulator's public functions
 * from outside; nothing under src/ is instrumented. A workload is one
 * closed-loop batch campaign, run as repeated rounds: a round sets up
 * its inputs, then runs every pass on the pool, which starts the next
 * pass as soon as a worker frees. End-to-end metrics are medians over
 * rounds; a traced run interleaves untraced and traced rounds and
 * then replays one representative pass through each layer alone.
 */

#ifndef RAMP_PERFBENCH_PERFBENCH_HH
#define RAMP_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/injector.hh"
#include "hma/config.hh"
#include "hma/system.hh"
#include "placement/profile.hh"
#include "runner/pool.hh"
#include "service/service.hh"
#include "trace/trace.hh"

namespace ramp::perfbench
{

/** The seed the committed reference digests were produced with. */
constexpr std::uint64_t defaultSeed = 1;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10;
    bool trace = false;
    unsigned jobs = 4;

    /** Test-sized inputs (seconds per round instead of tens). */
    bool reduced = false;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/** User plus system CPU seconds of this process so far. */
double cpuSeconds();

/** Median of a sample set (0 when empty). */
double median(std::vector<double> xs);

/** Exact digest line of one simulated pass (see campaign.cc). */
std::string digestPass(const std::string &label,
                       const SimResult &result);

/** Layer counters and host times of one traced round. */
struct LayerTotals
{
    /** @{ @name trace */
    double traceGenS = 0;
    std::uint64_t traceRequests = 0;
    /** @} */

    /** @{ @name runner (one entry per pass) */
    std::vector<double> passSeconds;
    /** Pool occupancy: busy seconds / (jobs x timed seconds). */
    double poolBusyFrac = 0;
    /** @} */

    /** @{ @name hma and placement (simulated in the round) */
    double hmaRunS = 0;
    std::uint64_t hmaAccesses = 0;
    double placementBuildS = 0;
    std::uint64_t migratedPages = 0;
    std::uint64_t hbmAccesses = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    /** @} */

    /** @{ @name migration (forwarding engine wrapper) */
    std::uint64_t intervals = 0;
    std::uint64_t requestedPages = 0;
    /** @} */

    /** @{ @name faults */
    std::uint64_t faultsInjected = 0;
    std::uint64_t responseMoves = 0;
    /** @} */

    /** @{ @name service */
    double soloFrac = 0;
    std::uint64_t rebalanceMoves = 0;
    std::uint64_t quotaClips = 0;
    /** @} */
};

/** What one round of a workload produced. */
struct Round
{
    /** Host seconds from the round's set-up start to its last result. */
    double wallS = 0;

    /** Set-up samples (input generation before the first access). */
    std::vector<double> setupS;

    /** Host seconds of the timed phase (every pass). */
    double timedS = 0;

    /** Process CPU seconds spent in the round. */
    double cpuS = 0;

    /** Simulated demand accesses completed in the timed phase. */
    std::uint64_t accesses = 0;

    /** Passes attempted and failed (threw or broke an invariant). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** One exact digest line per pass, in campaign order. */
    std::vector<std::string> digest;

    /** Filled by traced rounds only. */
    LayerTotals layers;
};

/** One representative pass, replayed through each layer alone. */
struct StageInput
{
    std::vector<CoreTrace> traces;
    PageProfile profile;
    std::uint64_t hbmPages = 0;

    /** Arbitration input of the service stage replay. */
    std::vector<service::TenantDemand> demands;
    std::uint64_t arbiterCapacity = 0;

    /** Tenant specs whose synthesis the trace stage times (service). */
    std::vector<service::TenantSpec> tenantSpecs;
};

/** Host cost of each layer on the representative pass. */
struct StageTimes
{
    /** @{ @name The whole pass through HmaSystem::run */
    double hmaRunS = 0;
    std::uint64_t accesses = 0;
    double hbmAccessFrac = 0;
    double rowHitFrac = 0;
    /** @} */

    double placementBuildS = 0;
    double lookupNs = 0;
    double profileNs = 0;
    double avfNs = 0;
    double finalizeMs = 0;
    double dramNs = 0;
    double coreNs = 0;
    double migrationOnAccessNs = 0;
    double migrationIntervalMs = 0;
    double faultsOnAccessNs = 0;
    double arbitrateUs = 0;

    /** Tenant synthesis (buildTenantTrace + profileTenantTrace). */
    double tenantGenS = 0;
    std::uint64_t tenantRequests = 0;
};

/** Replay the representative pass through every layer. */
StageTimes replayStages(const StageInput &input,
                        const SystemConfig &config,
                        const InjectorConfig &storm);

/** One named benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run one whole round (set-up plus every pass) on the pool. */
    virtual Round runRound(runner::ThreadPool &pool, bool traced) = 0;

    /** The representative pass of the last round (call after one). */
    virtual StageInput stageInput() const = 0;

    /** True when rounds simulate through HmaSystem::run directly. */
    virtual bool simulatesPasses() const = 0;

    const SystemConfig &config() const { return config_; }
    const InjectorConfig &storm() const { return storm_; }

  protected:
    SystemConfig config_;
    InjectorConfig storm_;
};

/** Build a workload by name (nullptr for an unknown name). */
std::unique_ptr<Workload> makeWorkload(const Options &options);

/** Names of every workload, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

} // namespace ramp::perfbench

#endif // RAMP_PERFBENCH_PERFBENCH_HH
