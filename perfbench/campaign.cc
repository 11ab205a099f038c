/**
 * @file
 * The three benchmark workloads: two closed-loop simulation campaigns
 * (static_sweep, migration_storm) and one multi-tenant service run
 * (tenant_service).
 *
 * Untraced rounds call the experiment helpers exactly as the fig01 /
 * fault_storm binaries do. Traced rounds call the same public pieces
 * separately (build*Placement, then HmaSystem::run, with a forwarding
 * MigrationEngine) so each can be timed or counted; they compute the
 * same results, which the digests check.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <sys/resource.h>

#include "faults/plan.hh"
#include "hma/experiment.hh"
#include "perfbench.hh"
#include "placement/policies.hh"

namespace ramp::perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t mid = xs.size() / 2;
    return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

namespace
{

void
appendU64(std::string &out, std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %" PRIu64, value);
    out += buf;
}

void
appendReal(std::string &out, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), " %.17g", value);
    out += buf;
}

void
appendDram(std::string &out, const DramStats &stats)
{
    for (const std::uint64_t v :
         {stats.reads, stats.writes, stats.rowHits, stats.rowMisses,
          stats.busBusyCycles, stats.totalReadLatency})
        appendU64(out, v);
}

bool
finite(double x)
{
    return std::isfinite(x);
}

/**
 * Seed-independent sanity of one pass: request accounting adds up,
 * every demand access reached a device, and the derived ratios are
 * physically possible.
 */
bool
passInvariantsHold(const SimResult &r, std::uint64_t trace_requests)
{
    const std::uint64_t device_accesses =
        r.hbmStats.reads + r.hbmStats.writes + r.ddrStats.reads +
        r.ddrStats.writes;
    return r.requests == trace_requests &&
           r.reads + r.writes == r.requests && r.makespan > 0 &&
           device_accesses >= r.requests && finite(r.ipc) &&
           r.ipc > 0 && finite(r.ser) && r.ser >= 0 &&
           r.memoryAvf >= 0 && r.memoryAvf <= 1 &&
           r.hbmAccessFraction >= 0 && r.hbmAccessFraction <= 1;
}

std::uint64_t
traceRequests(const std::vector<CoreTrace> &traces)
{
    std::uint64_t total = 0;
    for (const CoreTrace &trace : traces)
        total += trace.size();
    return total;
}

/**
 * Forwarding engine for traced rounds: every call goes to the real
 * engine unchanged; the wrapper only counts boundaries and the pages
 * each decision asked to move.
 */
class CountingEngine final : public MigrationEngine
{
  public:
    explicit CountingEngine(std::unique_ptr<MigrationEngine> inner)
        : inner_(std::move(inner))
    {
    }

    const char *name() const override { return inner_->name(); }

    void onAccess(PageId page, bool is_write, MemoryId mem) override
    {
        inner_->onAccess(page, is_write, mem);
    }

    Cycle interval() const override { return inner_->interval(); }

    MigrationDecision onInterval(Cycle now,
                                 const PlacementMap &map) override
    {
        MigrationDecision decision = inner_->onInterval(now, map);
        ++intervals;
        requestedPages += decision.pagesMoved();
        return decision;
    }

    Cycle remapPenalty(PageId page) override
    {
        return inner_->remapPenalty(page);
    }

    void onFault(PageId page, bool uncorrected, Cycle now) override
    {
        inner_->onFault(page, uncorrected, now);
    }

    std::uint64_t
    hardwareCostBytes(std::uint64_t total_pages,
                      std::uint64_t hbm_pages) const override
    {
        return inner_->hardwareCostBytes(total_pages, hbm_pages);
    }

    std::uint64_t intervals = 0;
    std::uint64_t requestedPages = 0;

  private:
    std::unique_ptr<MigrationEngine> inner_;
};

/**
 * fault_storm's default storm: a correctable burst, two uncorrected
 * strikes around a 25% HBM capacity loss, one epoch per MEA interval.
 */
constexpr const char *defaultStorm =
    "correctable:page=64,count=8,epoch=2;"
    "uncorrected:page=128,epoch=3;"
    "capacity:tier=hbm,pct=25,epoch=5;"
    "uncorrected:page=512,epoch=6;"
    "correctable:page=256,count=4,epoch=8";

/** The service workload's storm, composed onto shard 0. */
constexpr const char *serviceStorm =
    "capacity:tier=hbm,pct=25,epoch=2;uncorrected:page=7,epoch=3";

std::vector<FaultEvent>
parsePlan(const char *text)
{
    std::string error;
    auto plan = parseFaultPlan(text, error);
    if (!error.empty())
        throw std::runtime_error("bad built-in fault plan: " + error);
    return plan;
}

/** What one pass of a campaign is. */
struct PassPlan
{
    enum class Kind
    {
        HotFraction,
        Balanced,
        Dynamic,
    };

    std::size_t workload = 0;
    Kind kind = Kind::HotFraction;
    double fraction = 0;
    DynamicScheme scheme = DynamicScheme::PerfFocused;
    bool storm = false;
    std::string label;
};

/** Per-pass record, written by the one task that ran the pass. */
struct PassRecord
{
    bool ok = false;
    double seconds = 0;
    double buildS = 0;
    double runS = 0;
    std::uint64_t intervals = 0;
    std::uint64_t requestedPages = 0;
    std::string digest;
    SimResult result;
};

/**
 * static_sweep and migration_storm: a DDR-only profiling pass per
 * motivation workload, then the campaign's policy passes.
 */
class Campaign final : public Workload
{
  public:
    Campaign(const Options &options, bool migration)
        : specs_(motivationWorkloads())
    {
        generator_.seed = options.seed;
        // Trace length sets the work per round; the footprint (and so
        // every per-page table) is the workload's full size.
        generator_.traceScale = options.reduced ? 0.02 : 0.25;
        storm_.script = parsePlan(defaultStorm);
        storm_.seed = options.seed + 6;
        storm_.epochCycles = config_.meaIntervalCycles;

        for (std::size_t w = 0; w < specs_.size(); ++w) {
            const std::string &name = specs_[w].name;
            if (!migration) {
                for (int f = 0; f <= 10; ++f) {
                    PassPlan plan;
                    plan.workload = w;
                    plan.fraction = f / 10.0;
                    char label[32];
                    std::snprintf(label, sizeof(label), "/hot@%.1f",
                                  plan.fraction);
                    plan.label = name + label;
                    plans_.push_back(plan);
                }
                PassPlan balanced;
                balanced.workload = w;
                balanced.kind = PassPlan::Kind::Balanced;
                balanced.label = name + "/balanced";
                plans_.push_back(balanced);
                continue;
            }
            for (const DynamicScheme scheme :
                 {DynamicScheme::PerfFocused,
                  DynamicScheme::FcReliability,
                  DynamicScheme::CrossCounter}) {
                for (const bool storm : {false, true}) {
                    PassPlan plan;
                    plan.workload = w;
                    plan.kind = PassPlan::Kind::Dynamic;
                    plan.scheme = scheme;
                    plan.storm = storm;
                    plan.label = name + "/" + dynamicSchemeName(scheme) +
                                 (storm ? "/storm" : "/clean");
                    plans_.push_back(plan);
                }
            }
        }
    }

    Round runRound(runner::ThreadPool &pool, bool traced) override
    {
        Round round;

        // Set-up: generate every workload's traces, on the pool like
        // Harness::profileAll. It is sampled several times; the last
        // sample's data feeds the passes and starts the round.
        constexpr int setupSamples = 3;
        std::vector<double> gen_seconds(specs_.size(), 0.0);
        auto start = Clock::now();
        double cpu_start = 0;
        for (int i = 0; i < setupSamples; ++i) {
            data_.assign(specs_.size(), {});
            cpu_start = cpuSeconds();
            start = Clock::now();
            pool.runIndexed(specs_.size(), [&](std::size_t w) {
                const auto t = Clock::now();
                data_[w] = prepareWorkload(specs_[w], generator_);
                gen_seconds[w] = secondsSince(t);
            });
            round.setupS.push_back(secondsSince(start));
        }

        // Timed phase: profiling passes, then the policy passes.
        const auto timed = Clock::now();
        std::vector<PassRecord> profiling(specs_.size());
        pool.runIndexed(specs_.size(), [&](std::size_t w) {
            profiling[w] = runProfilingPass(w, traced);
        });
        std::vector<PassRecord> passes(plans_.size());
        pool.runIndexed(plans_.size(), [&](std::size_t i) {
            passes[i] = profiling[plans_[i].workload].ok
                            ? runPolicyPass(plans_[i],
                                            profiling[plans_[i].workload]
                                                .result.profile,
                                            traced)
                            : failedPass(plans_[i].label);
        });
        round.timedS = secondsSince(timed);
        round.wallS = secondsSince(start);
        round.cpuS = cpuSeconds() - cpu_start;

        baseProfile_ = profiling.back().result.profile;

        LayerTotals &layers = round.layers;
        double busy = 0;
        for (const auto *set : {&profiling, &passes}) {
            for (const PassRecord &pass : *set) {
                ++round.attempted;
                round.digest.push_back(pass.digest);
                if (!pass.ok) {
                    ++round.failed;
                    continue;
                }
                const SimResult &r = pass.result;
                round.accesses += r.requests;
                busy += pass.seconds;
                layers.passSeconds.push_back(pass.seconds);
                layers.hmaRunS += pass.runS;
                layers.hmaAccesses += r.requests;
                layers.placementBuildS += pass.buildS;
                layers.migratedPages += r.migratedPages;
                layers.hbmAccesses += static_cast<std::uint64_t>(
                    std::llround(r.hbmAccessFraction *
                                 static_cast<double>(r.requests)));
                layers.rowHits +=
                    r.hbmStats.rowHits + r.ddrStats.rowHits;
                layers.rowMisses +=
                    r.hbmStats.rowMisses + r.ddrStats.rowMisses;
                layers.intervals += pass.intervals;
                layers.requestedPages += pass.requestedPages;
                layers.faultsInjected += r.faultsInjected;
                layers.responseMoves += r.responseMoves;
            }
        }
        for (std::size_t w = 0; w < specs_.size(); ++w) {
            layers.traceGenS += gen_seconds[w];
            layers.traceRequests += traceRequests(data_[w].traces);
        }
        layers.poolBusyFrac =
            busy / (static_cast<double>(pool.jobs()) * round.timedS);
        return round;
    }

    StageInput stageInput() const override
    {
        // mix1, the heterogeneous workload, with its own profile.
        StageInput input;
        input.traces = data_.back().traces;
        input.profile = baseProfile_;
        input.hbmPages = config_.hbmPages();

        // The arbiter stage treats each core's program instance as a
        // tenant demanding its hot pages.
        const WorkloadLayout &layout = data_.back().layout;
        std::vector<std::uint64_t> hot(workloadCores, 0);
        const double mean_hot = baseProfile_.meanHotness();
        for (const auto &[page, stats] : baseProfile_.pages()) {
            const int range = layout.rangeOf(page);
            if (range >= 0 &&
                static_cast<double>(stats.hotness()) >= mean_hot)
                ++hot[layout.ranges[static_cast<std::size_t>(range)]
                          .core];
        }
        for (int c = 0; c < workloadCores; ++c) {
            service::TenantDemand demand;
            demand.id = static_cast<std::uint32_t>(c + 1);
            demand.demandPages = hot[static_cast<std::size_t>(c)];
            demand.quotaFraction = 2.0 / workloadCores;
            input.demands.push_back(demand);
        }
        input.arbiterCapacity = config_.hbmPages();
        return input;
    }

    bool simulatesPasses() const override { return true; }

  private:
    static PassRecord failedPass(const std::string &label)
    {
        PassRecord record;
        record.digest = label + " FAILED";
        return record;
    }

    /** Time and check one pass; a throw becomes a failed record. */
    template <typename Fn>
    PassRecord runPass(const std::string &label, std::size_t workload,
                       Fn fn)
    {
        PassRecord record;
        const auto start = Clock::now();
        try {
            record.result = fn(record);
            record.ok = passInvariantsHold(
                record.result, traceRequests(data_[workload].traces));
        } catch (const std::exception &error) {
            std::fprintf(stderr, "perfbench: pass %s failed: %s\n",
                         label.c_str(), error.what());
        }
        record.seconds = secondsSince(start);
        record.digest = record.ok ? digestPass(label, record.result)
                                  : label + " FAILED";
        return record;
    }

    /** Traced pass body: time the build and the run separately. */
    SimResult
    tracedRun(PassRecord &record, std::size_t workload,
              const std::function<PlacementMap()> &build,
              std::unique_ptr<MigrationEngine> engine, bool storm)
    {
        auto t = Clock::now();
        PlacementMap placement = build();
        record.buildS = secondsSince(t);
        std::unique_ptr<CountingEngine> counting;
        if (engine != nullptr)
            counting = std::make_unique<CountingEngine>(std::move(engine));
        std::unique_ptr<FaultInjector> injector;
        if (storm)
            injector = std::make_unique<FaultInjector>(storm_);
        HmaSystem system(config_);
        t = Clock::now();
        SimResult result =
            system.run(data_[workload].traces, std::move(placement),
                       counting.get(), injector.get());
        record.runS = secondsSince(t);
        if (counting != nullptr) {
            record.intervals = counting->intervals;
            record.requestedPages = counting->requestedPages;
        }
        return result;
    }

    PassRecord runProfilingPass(std::size_t w, bool traced)
    {
        const std::string label = specs_[w].name + "/ddr-only";
        return runPass(label, w, [&](PassRecord &record) {
            if (!traced)
                return runDdrOnly(config_, data_[w]);
            return tracedRun(
                record, w,
                [&] {
                    return buildStaticPlacement(StaticPolicy::DdrOnly,
                                                PageProfile{},
                                                config_.hbmPages());
                },
                nullptr, false);
        });
    }

    PassRecord runPolicyPass(const PassPlan &plan,
                             const PageProfile &profile, bool traced)
    {
        const WorkloadData &data = data_[plan.workload];
        const std::uint64_t hbm = config_.hbmPages();
        return runPass(plan.label, plan.workload, [&](PassRecord &record) {
            switch (plan.kind) {
              case PassPlan::Kind::HotFraction:
                if (!traced)
                    return runHotFraction(config_, data, profile,
                                          plan.fraction);
                return tracedRun(
                    record, plan.workload,
                    [&] {
                        return buildHotFractionPlacement(profile, hbm,
                                                         plan.fraction);
                    },
                    nullptr, false);
              case PassPlan::Kind::Balanced:
                if (!traced)
                    return runStaticPolicy(config_, data,
                                           StaticPolicy::Balanced,
                                           profile);
                return tracedRun(
                    record, plan.workload,
                    [&] {
                        return buildStaticPlacement(
                            StaticPolicy::Balanced, profile, hbm);
                    },
                    nullptr, false);
              case PassPlan::Kind::Dynamic:
                break;
            }
            if (!traced)
                return plan.storm
                           ? runDynamicFaulted(config_, data, plan.scheme,
                                               profile, storm_)
                           : runDynamic(config_, data, plan.scheme,
                                        profile);
            // runDynamic's initial placements (experiment.cc).
            return tracedRun(
                record, plan.workload,
                [&] {
                    return plan.scheme == DynamicScheme::PerfFocused
                               ? buildStaticPlacement(
                                     StaticPolicy::PerfFocused, profile,
                                     hbm)
                               : buildBalancedFilledPlacement(profile,
                                                              hbm);
                },
                makeEngine(plan.scheme, config_), plan.storm);
        });
    }

    std::vector<WorkloadSpec> specs_;
    GeneratorOptions generator_;
    std::vector<PassPlan> plans_;
    std::vector<WorkloadData> data_;
    PageProfile baseProfile_;
};

/** Size of the tenant population. */
struct TenantSizes
{
    std::uint64_t tenants = 128;
    unsigned shards = 8;
    std::uint64_t pages = 0;
    std::uint64_t requests = 0;
};

/**
 * datacenter_service's tenant population (footprints 0.5x-1.25x the
 * mean, write mixes 10%-45%, quotas oversubscribing each shard ~2x,
 * cycling priority and reliability classes), with the tenant seeds
 * offset by the benchmark seed.
 */
std::vector<service::TenantSpec>
buildTenants(const TenantSizes &sizes, std::uint64_t seed)
{
    std::vector<service::TenantSpec> specs;
    const std::uint64_t per_pages =
        std::max<std::uint64_t>(64, sizes.pages / sizes.tenants);
    const std::uint64_t per_requests =
        std::max<std::uint64_t>(256, sizes.requests / sizes.tenants);
    const double tenants_per_shard =
        static_cast<double>(sizes.tenants) /
        static_cast<double>(sizes.shards);
    for (std::uint64_t t = 1; t <= sizes.tenants; ++t) {
        service::TenantSpec spec;
        spec.id = static_cast<std::uint32_t>(t);
        spec.footprintPages =
            std::max<std::uint64_t>(64, per_pages * (2 + t % 4) / 4);
        spec.requests = per_requests;
        spec.cores = 4;
        spec.zipfSkew = 0.6 + 0.1 * static_cast<double>(t % 4);
        spec.writeFraction = 0.10 + 0.05 * static_cast<double>(t % 8);
        spec.seed = 2017 + seed + t;
        spec.hbmQuotaFraction = std::min(1.0, 2.0 / tenants_per_shard);
        spec.priority = static_cast<int>(t % 3);
        spec.relClass = static_cast<service::ReliabilityClass>(t % 3);
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** tenant_service: one PlacementService run per round. */
class TenantService final : public Workload
{
  public:
    explicit TenantService(const Options &options)
    {
        sizes_.pages = options.reduced ? 64'000 : 1'000'000;
        sizes_.requests = options.reduced ? 256'000 : 4'000'000;
        specs_ = buildTenants(sizes_, options.seed);
        service_.shards = sizes_.shards;
        service_.epochs = 4;
        service_.arbiter = service::ArbiterPolicy::FairShare;
        service_.faultPlan = parsePlan(serviceStorm);
        service_.faultShard = 0;
        service_.soloBaselines = true;
        storm_.script = parsePlan(defaultStorm);
        storm_.seed = options.seed + 6;
        storm_.epochCycles = config_.meaIntervalCycles;
    }

    Round runRound(runner::ThreadPool &pool, bool traced) override
    {
        (void)traced; // the service runs as one opaque call
        Round round;

        // Set-up is microseconds; sample it several times and keep
        // the last service, whose set-up starts the round.
        constexpr int setupSamples = 15;
        std::unique_ptr<service::PlacementService> svc;
        auto start = Clock::now();
        double cpu_start = 0;
        for (int i = 0; i < setupSamples; ++i) {
            cpu_start = cpuSeconds();
            start = Clock::now();
            svc = std::make_unique<service::PlacementService>(config_,
                                                              service_);
            for (const service::TenantSpec &spec : specs_)
                if (!svc->admit(spec))
                    throw std::runtime_error("tenant rejected: " +
                                             spec.name);
            round.setupS.push_back(secondsSince(start));
        }

        const auto timed = Clock::now();
        service::ServiceResult result;
        bool ok = true;
        try {
            result = svc->run(pool);
        } catch (const std::exception &error) {
            std::fprintf(stderr, "perfbench: service run failed: %s\n",
                         error.what());
            ok = false;
        }
        round.timedS = secondsSince(timed);
        round.wallS = secondsSince(start);
        round.cpuS = cpuSeconds() - cpu_start;

        round.attempted = specs_.size() + 1;
        if (!ok || result.tenants.size() != specs_.size()) {
            round.failed = round.attempted;
            return round;
        }
        std::uint64_t expected_requests = 0;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            const service::TenantResult &t = result.tenants[i];
            expected_requests += specs_[i].requests;
            std::string line = t.name;
            for (const std::uint64_t v :
                 {std::uint64_t{t.id}, std::uint64_t{t.shard},
                  t.requests, t.instructions, t.makespan,
                  t.soloMakespan, t.movedPages, t.pagesRetired,
                  t.quotaClips, t.grantedPages, t.demandPages})
                appendU64(line, v);
            line += " |";
            appendReal(line, t.ser);
            appendReal(line, t.meanHbmShare);
            round.digest.push_back(line);
            const bool sane = t.id == specs_[i].id &&
                              t.requests == specs_[i].requests &&
                              t.makespan > 0 && t.soloMakespan > 0 &&
                              finite(t.slowdown) && t.slowdown > 0;
            if (!sane)
                ++round.failed;
        }
        std::string line = "service";
        std::uint64_t faults = 0;
        std::uint64_t retired = 0;
        for (const service::ShardResult &shard : result.shards) {
            faults += shard.faultsApplied;
            retired += shard.pagesRetired;
            appendU64(line, shard.hbmCapacityPages);
            appendU64(line, shard.hbmUsedPages);
        }
        for (const std::uint64_t v :
             {result.arbitrationRounds, result.quotaClips,
              result.rebalanceMoves, result.totalRequests,
              result.totalInstructions, faults, retired})
            appendU64(line, v);
        line += " |";
        appendReal(line, result.fairnessIndex);
        appendReal(line, result.p99Slowdown);
        round.digest.push_back(line);
        const bool sane = result.totalRequests == expected_requests &&
                          result.fairnessIndex > 0 &&
                          result.fairnessIndex <= 1 &&
                          finite(result.p99Slowdown);
        if (!sane)
            ++round.failed;

        // Every request replays twice: shared, then solo.
        round.accesses = 2 * result.totalRequests;

        LayerTotals &layers = round.layers;
        layers.passSeconds.push_back(round.timedS);
        // One opaque call: occupancy is the CPU it burned.
        layers.poolBusyFrac =
            round.cpuS /
            (static_cast<double>(pool.jobs()) * round.timedS);
        layers.migratedPages = result.rebalanceMoves;
        layers.faultsInjected = faults;
        layers.responseMoves = retired;
        layers.soloFrac = 0.5;
        layers.rebalanceMoves = result.rebalanceMoves;
        layers.quotaClips = result.quotaClips;
        return round;
    }

    StageInput stageInput() const override
    {
        // Shard 0's tenants, core c of every tenant concatenated into
        // core c of one pass (tenant page ranges are disjoint).
        StageInput input;
        input.traces.resize(4);
        const unsigned shards = service_.shards;
        for (const service::TenantSpec &spec : specs_) {
            if (service::shardOf(spec.id, shards,
                                 service_.routingSalt) != 0)
                continue;
            const auto traces = service::buildTenantTrace(spec);
            const PageProfile profile =
                service::profileTenantTrace(traces);
            for (std::size_t c = 0; c < traces.size(); ++c)
                input.traces[c % 4].insert(input.traces[c % 4].end(),
                                           traces[c].begin(),
                                           traces[c].end());
            service::TenantDemand demand;
            demand.id = spec.id;
            const double mean_hot = profile.meanHotness();
            for (const auto &[page, stats] : profile.pages())
                if (static_cast<double>(stats.hotness()) >= mean_hot)
                    ++demand.demandPages;
            demand.quotaFraction = spec.hbmQuotaFraction;
            demand.classWeight =
                service::reliabilityClassWeight(spec.relClass);
            demand.meanAvf = profile.meanAvf();
            demand.priority = spec.priority;
            input.demands.push_back(demand);
        }
        input.profile = service::profileTenantTrace(input.traces);
        input.hbmPages = config_.hbmPages() / shards;
        input.arbiterCapacity = input.hbmPages;
        input.tenantSpecs = specs_;
        return input;
    }

    bool simulatesPasses() const override { return false; }

  private:
    TenantSizes sizes_;
    std::vector<service::TenantSpec> specs_;
    service::ServiceConfig service_;
};

} // namespace

std::string
digestPass(const std::string &label, const SimResult &r)
{
    std::string line = label;
    for (const std::uint64_t v :
         {r.makespan, r.instructions, r.requests, r.reads, r.writes})
        appendU64(line, v);
    appendDram(line, r.hbmStats);
    appendDram(line, r.ddrStats);
    for (const std::uint64_t v :
         {r.migratedPages, r.migrationEvents, r.faultsInjected,
          r.pagesRetired, r.capacityLostPages, r.responseMoves,
          r.responseRetries, std::uint64_t{r.degraded}})
        appendU64(line, v);
    line += " |";
    for (const double v :
         {r.ipc, r.ser, r.memoryAvf, r.hbmAccessFraction})
        appendReal(line, v);
    return line;
}

std::vector<std::string>
workloadNames()
{
    return {"static_sweep", "migration_storm", "tenant_service"};
}

std::unique_ptr<Workload>
makeWorkload(const Options &options)
{
    if (options.workload == "static_sweep")
        return std::make_unique<Campaign>(options, false);
    if (options.workload == "migration_storm")
        return std::make_unique<Campaign>(options, true);
    if (options.workload == "tenant_service")
        return std::make_unique<TenantService>(options);
    return nullptr;
}

} // namespace ramp::perfbench
