/**
 * @file
 * datacenter_service: the sharded multi-tenant placement service at
 * datacenter footprints.
 *
 * Admits N tenant streams (deterministically varied footprints,
 * write mixes, quotas, priorities, and reliability classes), routes
 * them across M shards by the service's tenant hash, and runs the
 * global epoch loop — cross-tenant HBM arbitration, budgeted
 * rebalancing, per-tenant epoch replay — on the harness pool, one
 * task per shard beside one solo-baseline task per tenant. Reports
 * aggregate accesses/sec (shared and solo runs over the service
 * run's seconds), per-tenant p99 slowdown against solo-run baselines, HBM-share fairness (Jain
 * index), and the per-shard outcome; the totals land in the
 * --bench-out document (committed baseline
 * BENCH_datacenter_service.json, gated by bench_diff's `service`
 * family). Per-tenant results are invariant under --jobs.
 *
 * Flags (in addition to the shared harness flags):
 *   --tenants N     tenant streams           (default 64)
 *   --shards N      service shards           (default 4)
 *   --arbiter NAME  fair-share | reliability-weighted
 *   --epochs N      global epochs            (default 4)
 *   --pages N       total footprint pages    (default 1,000,000)
 *   --requests N    total requests           (default 2,000,000)
 *   --inject PLAN   fault plan composed onto --fault-shard
 *   --fault-shard N shard the plan strikes   (default 0)
 *   --no-solo       skip the solo baselines (no slowdown column)
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "faults/plan.hh"
#include "service/service.hh"

using namespace ramp;
using namespace ramp::bench;

namespace
{

struct ServiceBenchOptions
{
    std::uint64_t tenants = 64;
    unsigned shards = 4;
    service::ArbiterPolicy arbiter =
        service::ArbiterPolicy::FairShare;
    unsigned epochs = 4;
    std::uint64_t pages = 1'000'000;
    std::uint64_t requests = 2'000'000;
    std::vector<FaultEvent> plan;
    unsigned faultShard = 0;
    bool solo = true;
};

ServiceBenchOptions
parseServiceOptions(const std::vector<std::string> &positional)
{
    const char *tool = "datacenter_service";
    ServiceBenchOptions options;
    for (std::size_t i = 0; i < positional.size(); ++i) {
        const std::string &arg = positional[i];
        const auto value = [&](const char *flag) -> const std::string & {
            return perf::flagValue(tool, positional, i, flag);
        };
        const auto count = [&](const char *flag) {
            return perf::parseCountArg(tool, flag, value(flag));
        };
        const auto small_count = [&](const char *flag) {
            return static_cast<unsigned>(
                perf::parseCountArg(tool, flag, value(flag),
                                    std::numeric_limits<unsigned>::max()));
        };
        if (arg == "--tenants") {
            options.tenants = count("--tenants");
        } else if (arg == "--shards") {
            options.shards = small_count("--shards");
        } else if (arg == "--arbiter") {
            const std::string &name = value("--arbiter");
            const auto policy = parseName(
                name, service::ArbiterPolicy::FairShare,
                service::ArbiterPolicy::ReliabilityWeighted,
                service::arbiterPolicyName);
            if (!policy) {
                std::cerr << tool << ": --arbiter: unknown policy '"
                          << name
                          << "' (fair-share, "
                             "reliability-weighted)\n";
                std::exit(2);
            }
            options.arbiter = *policy;
        } else if (arg == "--epochs") {
            options.epochs = small_count("--epochs");
        } else if (arg == "--pages") {
            options.pages = count("--pages");
        } else if (arg == "--requests") {
            options.requests = count("--requests");
        } else if (arg == "--inject") {
            std::string error;
            options.plan = parseFaultPlan(value("--inject"), error);
            if (!error.empty()) {
                std::cerr << tool << ": --inject: " << error
                          << "\n";
                std::exit(2);
            }
        } else if (arg == "--fault-shard") {
            options.faultShard = small_count("--fault-shard");
        } else if (arg == "--no-solo") {
            options.solo = false;
        } else {
            std::cerr << tool << ": unknown argument '" << arg
                      << "'\n";
            std::exit(2);
        }
    }
    if (options.tenants == 0 || options.shards == 0 ||
        options.epochs == 0 || options.pages == 0 ||
        options.requests == 0) {
        std::cerr << tool << ": counts must be positive\n";
        std::exit(2);
    }
    return options;
}

/**
 * Deterministic tenant population: footprints vary 0.5x-1.25x
 * around the per-tenant mean, write mixes sweep 10%-45%, quotas
 * oversubscribe the shard ~2x so arbitration has real work, and
 * priority/reliability classes cycle so both arbiters differ.
 */
std::vector<service::TenantSpec>
buildTenants(const ServiceBenchOptions &options)
{
    std::vector<service::TenantSpec> specs;
    specs.reserve(options.tenants);
    const std::uint64_t per_pages =
        std::max<std::uint64_t>(64,
                                options.pages / options.tenants);
    const std::uint64_t per_requests = std::max<std::uint64_t>(
        256, options.requests / options.tenants);
    const double tenants_per_shard =
        static_cast<double>(options.tenants) /
        static_cast<double>(options.shards);
    for (std::uint64_t t = 1; t <= options.tenants; ++t) {
        service::TenantSpec spec;
        spec.id = static_cast<std::uint32_t>(t);
        spec.footprintPages =
            std::max<std::uint64_t>(64,
                                    per_pages * (2 + t % 4) / 4);
        spec.requests = per_requests;
        spec.cores = 4;
        spec.zipfSkew = 0.6 + 0.1 * static_cast<double>(t % 4);
        spec.writeFraction =
            0.10 + 0.05 * static_cast<double>(t % 8);
        spec.seed = 2018 + t;
        spec.hbmQuotaFraction =
            std::min(1.0, 2.0 / tenants_per_shard);
        spec.priority = static_cast<int>(t % 3);
        spec.relClass = static_cast<service::ReliabilityClass>(
            t % 3); // tolerant, standard, critical round-robin
        specs.push_back(std::move(spec));
    }
    return specs;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain("datacenter_service", [&] {
        Harness harness("datacenter_service", argc, argv);
        const ServiceBenchOptions options =
            parseServiceOptions(harness.options().positional);

        service::ServiceConfig config;
        config.shards = options.shards;
        config.epochs = options.epochs;
        config.arbiter = options.arbiter;
        config.faultPlan = options.plan;
        config.faultShard = options.faultShard;
        config.soloBaselines = options.solo;

        service::PlacementService placement_service(
            harness.config(), config);
        std::uint64_t admitted = 0;
        for (service::TenantSpec &spec : buildTenants(options))
            if (placement_service.admit(std::move(spec)))
                ++admitted;

        const auto started = std::chrono::steady_clock::now();
        const service::ServiceResult result =
            placement_service.run(harness.pool());
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - started)
                .count();

        TextTable shard_table({"shard", "tenants", "hbm cap",
                               "hbm used", "faults", "retired",
                               "status"});
        for (const service::ShardResult &shard : result.shards) {
            shard_table.addRow({
                TextTable::num(std::uint64_t{shard.shard}),
                TextTable::num(shard.tenants),
                TextTable::num(shard.hbmCapacityPages),
                TextTable::num(shard.hbmUsedPages),
                TextTable::num(shard.faultsApplied),
                TextTable::num(shard.pagesRetired),
                shard.degraded ? "degraded" : "ok",
            });
        }
        shard_table.print(
            std::cout,
            "Shards (" +
                std::string(
                    service::arbiterPolicyName(options.arbiter)) +
                " arbitration, " + TextTable::num(admitted) +
                " tenants)");

        // Reliability-class rollup: the visible difference between
        // the two arbiters is where the HBM share lands.
        TextTable class_table({"class", "tenants", "mean HBM share",
                               "mean slowdown", "clips"});
        for (int cls = 0; cls < 3; ++cls) {
            std::uint64_t count = 0;
            std::uint64_t clips = 0;
            RunningStat share;
            RunningStat slowdown;
            for (const service::TenantResult &tenant :
                 result.tenants) {
                if (static_cast<int>(tenant.id % 3) != cls)
                    continue;
                ++count;
                clips += tenant.quotaClips;
                share.add(tenant.meanHbmShare);
                if (tenant.slowdown == tenant.slowdown)
                    slowdown.add(tenant.slowdown);
            }
            class_table.addRow({
                service::reliabilityClassName(
                    static_cast<service::ReliabilityClass>(cls)),
                TextTable::num(count),
                TextTable::percent(share.mean(), 1),
                slowdown.count() > 0
                    ? TextTable::ratio(slowdown.mean())
                    : std::string("-"),
                TextTable::num(clips),
            });
        }
        class_table.print(std::cout, "Reliability classes");

        // The worst-served tenants, slowest first (deterministic:
        // slowdown ties break by tenant id via stable ordering).
        std::vector<const service::TenantResult *> worst;
        worst.reserve(result.tenants.size());
        for (const service::TenantResult &tenant : result.tenants)
            worst.push_back(&tenant);
        std::stable_sort(
            worst.begin(), worst.end(),
            [](const auto *a, const auto *b) {
                const double sa =
                    a->slowdown == a->slowdown ? a->slowdown : 0.0;
                const double sb =
                    b->slowdown == b->slowdown ? b->slowdown : 0.0;
                return sa > sb;
            });
        TextTable tenant_table({"tenant", "shard", "class",
                                "HBM share", "slowdown", "clips",
                                "moved", "retired"});
        const std::size_t rows =
            std::min<std::size_t>(8, worst.size());
        for (std::size_t i = 0; i < rows; ++i) {
            const service::TenantResult &tenant = *worst[i];
            tenant_table.addRow({
                tenant.name,
                TextTable::num(std::uint64_t{tenant.shard}),
                service::reliabilityClassName(
                    static_cast<service::ReliabilityClass>(
                        tenant.id % 3)),
                TextTable::percent(tenant.meanHbmShare, 1),
                tenant.slowdown == tenant.slowdown
                    ? TextTable::ratio(tenant.slowdown)
                    : std::string("-"),
                TextTable::num(tenant.quotaClips),
                TextTable::num(tenant.movedPages),
                TextTable::num(tenant.pagesRetired),
            });
        }
        tenant_table.print(std::cout, "Slowest tenants");

        std::cout << "\ntenants " << TextTable::num(admitted)
                  << ", shards "
                  << TextTable::num(std::uint64_t{
                         result.shards.size()})
                  << ", arbitration rounds "
                  << TextTable::num(result.arbitrationRounds)
                  << ", quota clips "
                  << TextTable::num(result.quotaClips)
                  << ", rebalance moves "
                  << TextTable::num(result.rebalanceMoves) << "\n";
        // Shared and solo runs overlap on the pool, so the rate
        // counts both over the whole service run.
        const std::uint64_t accesses =
            result.totalRequests + result.soloRequests;
        std::cout << "aggregate "
                  << TextTable::num(
                         seconds > 0
                             ? static_cast<double>(accesses) /
                                   seconds
                             : 0.0,
                         0)
                  << " accesses/sec over "
                  << TextTable::num(result.totalRequests)
                  << " shared + "
                  << TextTable::num(result.soloRequests)
                  << " solo accesses in "
                  << TextTable::num(seconds, 2) << "s\n";
        std::cout << "fairness (Jain over mean HBM pages) "
                  << TextTable::num(result.fairnessIndex, 4);
        if (result.p99Slowdown == result.p99Slowdown)
            std::cout << ", p99 slowdown vs solo "
                      << TextTable::ratio(result.p99Slowdown);
        std::cout << "\n";
        return harness.finish();
    });
}
