/**
 * @file
 * Tests for the multi-tenant placement service (src/service).
 *
 * Locks the service's structural guarantees: deterministic shard
 * routing and --jobs-invariant per-tenant results, the arbiter's
 * conservation invariants (grants never exceed capacity, demand, or
 * the fair-share quota), the fair-share vs reliability-weighted
 * ordering on a hand-built two-tenant contention scenario, and
 * bit-exactness of a single-tenant single-shard service run against
 * the same workload driven through a bare HmaSystem. The shard tasks
 * and the solo-baseline tasks share one pool batch, so the whole
 * published output (result, ledger, timeline) is compared across
 * --jobs widths.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <gtest/gtest.h>

#include "common/obs.hh"
#include "eventlog/eventlog.hh"
#include "health/health.hh"
#include "runner/pool.hh"
#include "service/service.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{
namespace
{

SystemConfig
smallConfig()
{
    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 4;
    return config;
}

service::TenantSpec
smallSpec(std::uint32_t id)
{
    service::TenantSpec spec;
    spec.id = id;
    spec.footprintPages = 256;
    spec.requests = 4096;
    spec.cores = 2;
    spec.zipfSkew = 0.7;
    spec.writeFraction = 0.25;
    spec.seed = 100 + id;
    spec.hbmQuotaFraction = 0.5;
    spec.relClass = static_cast<service::ReliabilityClass>(id % 3);
    return spec;
}

service::ServiceResult
runService(const SystemConfig &system,
           const service::ServiceConfig &config,
           std::uint32_t tenants, unsigned jobs)
{
    service::PlacementService placement(system, config);
    for (std::uint32_t id = 1; id <= tenants; ++id)
        EXPECT_TRUE(placement.admit(smallSpec(id)));
    runner::ThreadPool pool(jobs);
    return placement.run(pool);
}

TEST(ServiceRouting, HashIsDeterministicAndInRange)
{
    for (unsigned shards : {1u, 2u, 5u, 16u}) {
        for (std::uint32_t id = 1; id < 200; ++id) {
            const unsigned a = service::shardOf(id, shards, 42);
            const unsigned b = service::shardOf(id, shards, 42);
            EXPECT_EQ(a, b);
            EXPECT_LT(a, shards);
        }
    }
    // A different salt reshuffles at least one tenant (16 shards,
    // 200 tenants: astronomically unlikely to collide entirely).
    bool moved = false;
    for (std::uint32_t id = 1; id < 200 && !moved; ++id)
        moved = service::shardOf(id, 16, 1) !=
                service::shardOf(id, 16, 2);
    EXPECT_TRUE(moved);
}

// Pinned home shards: the routing hash is one SplitMix64 step of
// (id ^ salt), so these move only if the finalizer changes.
TEST(ServiceRouting, PinnedShardsOfTheDefaultSalt)
{
    const std::uint64_t salt = service::ServiceConfig{}.routingSalt;
    EXPECT_EQ(service::shardOf(1, 1000003, salt), 227269u);
    EXPECT_EQ(service::shardOf(2, 1000003, salt), 760245u);
    EXPECT_EQ(service::shardOf(77, 1000003, salt), 6713u);
    EXPECT_EQ(service::shardOf(12345, 1000003, salt), 382438u);
}

/** FNV-1a 64 over each request's addr, gap, core and isWrite. */
std::uint64_t
traceDigest(const std::vector<CoreTrace> &traces)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](std::uint64_t value, std::size_t bytes) {
        for (std::size_t b = 0; b < bytes; ++b) {
            hash ^= (value >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    for (const auto &trace : traces)
        for (const auto &req : trace) {
            mix(req.addr, sizeof req.addr);
            mix(req.gap, sizeof req.gap);
            mix(req.core, sizeof req.core);
            mix(req.isWrite ? 1 : 0, 1);
        }
    return hash;
}

// Pinned digests of two tenant streams. Every draw of a stream is a
// SplitMix64 step, so a change to the finalizer, the seeding or the
// draw order moves them.
TEST(ServiceTrace, GoldenTenantTraceDigests)
{
    service::TenantSpec a;
    a.id = 1;
    a.footprintPages = 256;
    a.requests = 4096;
    service::TenantSpec b;
    b.id = 77;
    b.footprintPages = 1000;
    b.requests = 3001;
    b.cores = 3;
    b.zipfSkew = 0.3;
    b.writeFraction = 0.6;
    b.seed = 0xdeadbeef;
    const std::uint64_t digest_a =
        traceDigest(service::buildTenantTrace(a));
    const std::uint64_t digest_b =
        traceDigest(service::buildTenantTrace(b));
    EXPECT_EQ(digest_a, 0x0a6f5fd08ed4a0deULL)
        << std::hex << "digest 0x" << digest_a;
    EXPECT_EQ(digest_b, 0x7cda3767fe8219eeULL)
        << std::hex << "digest 0x" << digest_b;
}

TEST(ServiceRouting, PageNamespaceRoundTrips)
{
    for (std::uint32_t id : {1u, 7u, 200u, 65535u}) {
        const PageId base = service::tenantBasePage(id);
        EXPECT_EQ(service::tenantOfPage(base), id);
        EXPECT_EQ(service::tenantOfPage(base + 1000), id);
    }
}

TEST(ServiceRouting, ResultsInvariantUnderJobs)
{
    const SystemConfig system = smallConfig();
    service::ServiceConfig config;
    config.shards = 3;
    config.epochs = 3;
    config.soloBaselines = true;

    const service::ServiceResult serial =
        runService(system, config, 9, 1);
    const service::ServiceResult wide =
        runService(system, config, 9, 4);

    ASSERT_EQ(serial.tenants.size(), wide.tenants.size());
    for (std::size_t i = 0; i < serial.tenants.size(); ++i) {
        const service::TenantResult &a = serial.tenants[i];
        const service::TenantResult &b = wide.tenants[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.shard, b.shard);
        EXPECT_EQ(a.requests, b.requests);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.makespan, b.makespan);
        EXPECT_EQ(a.soloMakespan, b.soloMakespan);
        EXPECT_EQ(a.grantedPages, b.grantedPages);
        EXPECT_EQ(a.quotaClips, b.quotaClips);
        EXPECT_EQ(a.movedPages, b.movedPages);
        EXPECT_DOUBLE_EQ(a.meanHbmPages, b.meanHbmPages);
        EXPECT_DOUBLE_EQ(a.ser, b.ser);
    }
    EXPECT_DOUBLE_EQ(serial.fairnessIndex, wide.fairnessIndex);
    EXPECT_EQ(serial.quotaClips, wide.quotaClips);
    EXPECT_EQ(serial.rebalanceMoves, wide.rebalanceMoves);
}

/** Bitwise double equality (NaN equals NaN). */
void
expectSameBits(double a, double b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b))
        << a << " vs " << b;
}

/** Every ServiceResult field, bit for bit. */
void
expectSameServiceResult(const service::ServiceResult &a,
                        const service::ServiceResult &b)
{
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        const service::TenantResult &x = a.tenants[i];
        const service::TenantResult &y = b.tenants[i];
        SCOPED_TRACE(x.name);
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.shard, y.shard);
        EXPECT_EQ(x.requests, y.requests);
        EXPECT_EQ(x.instructions, y.instructions);
        EXPECT_EQ(x.makespan, y.makespan);
        EXPECT_EQ(x.soloMakespan, y.soloMakespan);
        expectSameBits(x.slowdown, y.slowdown);
        expectSameBits(x.ipc, y.ipc);
        expectSameBits(x.meanHbmShare, y.meanHbmShare);
        expectSameBits(x.meanHbmPages, y.meanHbmPages);
        EXPECT_EQ(x.grantedPages, y.grantedPages);
        EXPECT_EQ(x.demandPages, y.demandPages);
        EXPECT_EQ(x.quotaClips, y.quotaClips);
        EXPECT_EQ(x.movedPages, y.movedPages);
        EXPECT_EQ(x.pagesRetired, y.pagesRetired);
        expectSameBits(x.ser, y.ser);
        expectSameBits(x.meanAvf, y.meanAvf);
        EXPECT_EQ(x.degraded, y.degraded);
    }
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        const service::ShardResult &x = a.shards[s];
        const service::ShardResult &y = b.shards[s];
        SCOPED_TRACE(testing::Message() << "shard " << s);
        EXPECT_EQ(x.shard, y.shard);
        EXPECT_EQ(x.tenants, y.tenants);
        EXPECT_EQ(x.hbmCapacityPages, y.hbmCapacityPages);
        EXPECT_EQ(x.hbmUsedPages, y.hbmUsedPages);
        EXPECT_EQ(x.faultsApplied, y.faultsApplied);
        EXPECT_EQ(x.capacityLostPages, y.capacityLostPages);
        EXPECT_EQ(x.pagesRetired, y.pagesRetired);
        EXPECT_EQ(x.degraded, y.degraded);
    }
    EXPECT_EQ(a.arbitrationRounds, b.arbitrationRounds);
    EXPECT_EQ(a.quotaClips, b.quotaClips);
    EXPECT_EQ(a.rebalanceMoves, b.rebalanceMoves);
    EXPECT_EQ(a.totalRequests, b.totalRequests);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.soloRequests, b.soloRequests);
    expectSameBits(a.fairnessIndex, b.fairnessIndex);
    expectSameBits(a.p99Slowdown, b.p99Slowdown);
    ASSERT_EQ(a.fairnessByEpoch.size(), b.fairnessByEpoch.size());
    for (std::size_t e = 0; e < a.fairnessByEpoch.size(); ++e)
        expectSameBits(a.fairnessByEpoch[e], b.fairnessByEpoch[e]);
    ASSERT_EQ(a.p99ByEpoch.size(), b.p99ByEpoch.size());
    for (std::size_t e = 0; e < a.p99ByEpoch.size(); ++e)
        expectSameBits(a.p99ByEpoch[e], b.p99ByEpoch[e]);
}

/** What one observed service run publishes. */
struct ObservedRun
{
    service::ServiceResult result;
    /** Ledger records as JSON lines, sorted. */
    std::vector<std::string> events;
    std::string timeline;
};

/**
 * A run with the ledger, the timeline and telemetry on: 13 tenants
 * over 5 shards (7, 5 and 1 tenants and two empty shards, so
 * longest-first reorders the shard tasks), solo baselines, and a
 * storm on shard 1.
 */
ObservedRun
observedRun(unsigned jobs)
{
    constexpr std::uint8_t layers =
        obs::Telemetry | obs::Events | obs::Health;
    telemetry::resetAll();
    eventlog::reset();
    health::reset();
    obs::set(layers, true);
    health::setRules(health::defaultRules());

    service::ServiceConfig config;
    config.shards = 5;
    config.epochs = 3;
    config.arbiter = service::ArbiterPolicy::ReliabilityWeighted;
    config.soloBaselines = true;
    std::string error;
    config.faultPlan = parseFaultPlan(
        "uncorrected:page=3,count=2,epoch=2;"
        "capacity:tier=hbm,pct=25,epoch=2",
        error);
    EXPECT_TRUE(error.empty()) << error;
    config.faultShard = 1;

    ObservedRun run;
    run.result = runService(smallConfig(), config, 13, jobs);
    for (const eventlog::EventRecord &record : eventlog::collect())
        run.events.push_back(eventlog::recordJson(record));
    std::sort(run.events.begin(), run.events.end());
    run.timeline = health::timelineJsonl("test_service");

    obs::set(layers, false);
    health::reset();
    eventlog::reset();
    telemetry::resetAll();
    return run;
}

TEST(ServiceSchedule, EveryOutputInvariantUnderJobs)
{
    const ObservedRun serial = observedRun(1);
    ASSERT_EQ(serial.result.shards.size(), 5u);
    EXPECT_EQ(serial.result.soloRequests,
              serial.result.totalRequests);
    EXPECT_EQ(serial.result.shards[0].tenants, 0u);
    EXPECT_GT(serial.result.shards[1].pagesRetired, 0u);
    EXPECT_FALSE(serial.events.empty());
    EXPECT_NE(serial.timeline.find("\"source\": \"service\""),
              std::string::npos);
    for (const unsigned jobs : {2u, 4u}) {
        SCOPED_TRACE(testing::Message() << "--jobs " << jobs);
        const ObservedRun wide = observedRun(jobs);
        expectSameServiceResult(serial.result, wide.result);
        EXPECT_EQ(serial.events, wide.events);
        EXPECT_EQ(serial.timeline, wide.timeline);
    }
}

TEST(ServiceArbiter, GrantsConserveCapacityAndDemand)
{
    std::vector<service::TenantDemand> demands;
    for (std::uint32_t id = 1; id <= 6; ++id) {
        service::TenantDemand demand;
        demand.id = id;
        demand.demandPages = 100 * id;
        demand.quotaFraction = 0.4;
        demand.classWeight =
            service::reliabilityClassWeight(
                static_cast<service::ReliabilityClass>(id % 3));
        demand.meanAvf = 0.1 * static_cast<double>(id);
        demand.priority = static_cast<int>(id % 2);
        demands.push_back(demand);
    }
    for (const service::ArbiterPolicy policy :
         {service::ArbiterPolicy::FairShare,
          service::ArbiterPolicy::ReliabilityWeighted}) {
        for (const std::uint64_t capacity :
             {std::uint64_t{0}, std::uint64_t{50},
              std::uint64_t{500}, std::uint64_t{100000}}) {
            std::uint64_t clips = 0;
            const std::vector<std::uint64_t> grants =
                service::arbitrate(policy, capacity, demands,
                                   &clips);
            ASSERT_EQ(grants.size(), demands.size());
            std::uint64_t total = 0;
            for (std::size_t i = 0; i < grants.size(); ++i) {
                EXPECT_LE(grants[i], demands[i].demandPages);
                total += grants[i];
            }
            EXPECT_LE(total, capacity);
            if (policy == service::ArbiterPolicy::FairShare) {
                // Strict quotas, normalized when oversubscribed:
                // sum_qf = 2.4, so each tenant's ceiling is
                // capacity * 0.4 / 2.4.
                for (const std::uint64_t grant : grants)
                    EXPECT_LE(grant,
                              static_cast<std::uint64_t>(
                                  static_cast<double>(capacity) *
                                  0.4 / 2.4) +
                                  1);
            }
        }
    }
}

TEST(ServiceArbiter, ReliabilityWeightedFavorsCriticalTenants)
{
    // Two identical tenants contending 2:1 for capacity; they
    // differ only in reliability class and measured AVF.
    std::vector<service::TenantDemand> demands(2);
    demands[0].id = 1;
    demands[0].demandPages = 1000;
    demands[0].quotaFraction = 1.0;
    demands[0].classWeight = service::reliabilityClassWeight(
        service::ReliabilityClass::Critical);
    demands[0].meanAvf = 0.8;
    demands[1].id = 2;
    demands[1].demandPages = 1000;
    demands[1].quotaFraction = 1.0;
    demands[1].classWeight = service::reliabilityClassWeight(
        service::ReliabilityClass::Tolerant);
    demands[1].meanAvf = 0.1;

    const std::uint64_t capacity = 1000;
    const std::vector<std::uint64_t> fair = service::arbitrate(
        service::ArbiterPolicy::FairShare, capacity, demands);
    const std::vector<std::uint64_t> weighted =
        service::arbitrate(
            service::ArbiterPolicy::ReliabilityWeighted, capacity,
            demands);

    // Fair-share ignores the classes: equal quotas, equal grants.
    ASSERT_EQ(fair.size(), 2u);
    EXPECT_EQ(fair[0], fair[1]);

    // Reliability-weighted tilts toward the critical, high-AVF
    // tenant — strictly more than its fair share and than its
    // tolerant competitor.
    ASSERT_EQ(weighted.size(), 2u);
    EXPECT_GT(weighted[0], weighted[1]);
    EXPECT_GT(weighted[0], fair[0]);
    EXPECT_LE(weighted[0] + weighted[1], capacity);
}

TEST(ServiceAdmission, RejectsInvalidSpecs)
{
    const SystemConfig system = smallConfig();
    service::PlacementService placement(system, {});

    service::TenantSpec zero_id = smallSpec(1);
    zero_id.id = 0;
    EXPECT_FALSE(placement.admit(zero_id));

    EXPECT_TRUE(placement.admit(smallSpec(1)));
    EXPECT_FALSE(placement.admit(smallSpec(1))); // duplicate

    service::TenantSpec bad_quota = smallSpec(2);
    bad_quota.hbmQuotaFraction = 0.0;
    EXPECT_FALSE(placement.admit(bad_quota));
    bad_quota.hbmQuotaFraction = 1.5;
    EXPECT_FALSE(placement.admit(bad_quota));

    service::TenantSpec too_wide = smallSpec(3);
    too_wide.cores =
        static_cast<std::uint32_t>(system.cores) + 1;
    EXPECT_FALSE(placement.admit(too_wide));

    EXPECT_EQ(placement.tenantCount(), 1u);
}

TEST(ServiceEquivalence, SingleTenantMatchesBareSystem)
{
    // One tenant, one shard, one epoch, full quota: the service is
    // exactly "profile, place the granted hot-set prefix, run" —
    // the same steps driven by hand through a bare HmaSystem must
    // produce bit-identical performance and reliability numbers.
    const SystemConfig system = smallConfig();
    service::TenantSpec spec = smallSpec(1);
    spec.hbmQuotaFraction = 1.0;

    service::ServiceConfig config;
    config.shards = 1;
    config.epochs = 1;

    service::PlacementService placement(system, config);
    ASSERT_TRUE(placement.admit(spec));
    runner::ThreadPool pool(2);
    const service::ServiceResult result = placement.run(pool);
    ASSERT_EQ(result.tenants.size(), 1u);
    const service::TenantResult &tenant = result.tenants[0];

    // The bare equivalent of the service's single epoch.
    const std::vector<CoreTrace> traces =
        service::buildTenantTrace(spec);
    const PageProfile profile =
        service::profileTenantTrace(traces);
    const auto ranking = profile.sortedByDescending(
        [](const PageStats &stats) { return stats.hotness(); });
    const double mean_hotness = profile.meanHotness();
    std::uint64_t demand = 0;
    for (const auto &entry : ranking) {
        if (static_cast<double>(entry.second.hotness()) <
            mean_hotness)
            break;
        ++demand;
    }
    demand = std::max<std::uint64_t>(1, demand);

    const std::uint64_t capacity = system.hbmPages();
    const std::uint64_t grant = std::min(demand, capacity);
    PlacementMap map(capacity);
    const std::size_t target =
        std::min<std::size_t>(grant, ranking.size());
    for (std::size_t i = 0; i < target; ++i) {
        if (map.hbmFreePages() == 0)
            break;
        map.place(ranking[i].first, MemoryId::HBM);
    }
    HmaSystem bare(system);
    const SimResult expected = bare.run(traces, map);

    EXPECT_EQ(tenant.requests, expected.requests);
    EXPECT_EQ(tenant.instructions, expected.instructions);
    EXPECT_EQ(tenant.makespan, expected.makespan);
    EXPECT_DOUBLE_EQ(tenant.ser, expected.ser);
    EXPECT_EQ(tenant.grantedPages, grant);
    EXPECT_EQ(tenant.demandPages,
              std::max<std::uint64_t>(
                  1, expected.profile.footprintPages()));
}

TEST(ServiceFaults, StormDegradesOnlyTheStruckShard)
{
    const SystemConfig system = smallConfig();
    service::ServiceConfig config;
    config.shards = 2;
    config.epochs = 3;
    std::string error;
    config.faultPlan = parseFaultPlan(
        "uncorrected:page=3,epoch=2;capacity:tier=hbm,pct=25,"
        "epoch=2",
        error);
    ASSERT_TRUE(error.empty()) << error;
    config.faultShard = 0;

    const service::ServiceResult result =
        runService(system, config, 8, 2);

    ASSERT_EQ(result.shards.size(), 2u);
    EXPECT_TRUE(result.shards[0].degraded);
    EXPECT_GT(result.shards[0].faultsApplied, 0u);
    EXPECT_GT(result.shards[0].capacityLostPages, 0u);
    EXPECT_FALSE(result.shards[1].degraded);
    EXPECT_EQ(result.shards[1].faultsApplied, 0u);

    // Degradation is attributed tenant by tenant along the
    // routing: exactly the tenants homed on shard 0.
    for (const service::TenantResult &tenant : result.tenants)
        EXPECT_EQ(tenant.degraded, tenant.shard == 0u);
}

} // namespace
} // namespace ramp
