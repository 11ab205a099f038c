/**
 * @file
 * Multi-tenant placement service: sharded HMA metadata serving
 * concurrent tenant streams.
 *
 * The paper evaluates one workload on one HmaSystem at a time; the
 * service generalises that to a datacenter-shaped setting in which
 * many tenants compete for one scarce reliable tier. A
 * PlacementService owns N shards. Each shard is self-contained — a
 * PlacementMap plus the HmaSystem runs replaying its tenants'
 * substreams — and a shard's whole epoch loop executes as one
 * runner-pool task, so shard metadata is single-threaded by
 * construction (DAOS-style per-target ownership: no shard state is
 * ever touched by two threads at once, and results are collected in
 * shard order, so any --jobs width reproduces the serial run
 * bit-exactly). The solo baselines run as one task per tenant in the
 * same pool batch, beside the shard tasks (DESIGN.md §13).
 *
 * Tenants are admitted as TenantSpec streams and routed to a home
 * shard by a deterministic hash of the tenant id (the routing block
 * is the whole tenant footprint, so a fault storm on one shard
 * degrades only the tenants mapped there). A cross-tenant HBM
 * arbiter re-runs at every global epoch boundary with pluggable
 * policies — fair-share (strict per-tenant quotas, no
 * redistribution) and reliability-weighted (quota credit scaled by
 * the tenant's annotation class and measured AVF, with leftover
 * capacity water-filled to clipped tenants in credit order) — and
 * the resulting per-tenant grants flow down to each shard's epoch
 * rebalancer as promote/demote budgets.
 *
 * Everything wires through the existing layers: per-tenant RunScope
 * labels plus the ramp-events-v2 `tenant` ledger field
 * (eventlog::TenantScope), service.* telemetry counters, and the
 * PlacementMap fault-response API (retirePage/loseCapacity) for the
 * per-shard fault composition. See DESIGN.md §13.
 */

#ifndef RAMP_SERVICE_SERVICE_HH
#define RAMP_SERVICE_SERVICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "faults/plan.hh"
#include "hma/config.hh"
#include "hma/system.hh"
#include "placement/profile.hh"
#include "runner/pool.hh"
#include "trace/trace.hh"

namespace ramp::service
{

/** HRM-style application tolerance class of a tenant's pages. */
enum class ReliabilityClass : std::uint8_t
{
    /** Crash-tolerant data; cheapest to serve from the risky tier. */
    Tolerant,

    /** No annotation either way (weight 1). */
    Standard,

    /** Crash-intolerant data; wins HBM arbitration credit. */
    Critical,
};

/** Stable spelling ("tolerant", "standard", "critical"). */
const char *reliabilityClassName(ReliabilityClass cls);

/** Arbitration credit multiplier of a class (0.5 / 1.0 / 2.0). */
double reliabilityClassWeight(ReliabilityClass cls);

/** Cross-tenant HBM arbitration policy. */
enum class ArbiterPolicy : std::uint8_t
{
    /** Strict per-tenant quotas; unused quota is never loaned. */
    FairShare,

    /** Quota credit scaled by class weight and measured AVF;
     * leftover capacity water-fills clipped tenants. */
    ReliabilityWeighted,
};

/** Stable spelling ("fair-share", "reliability-weighted"). */
const char *arbiterPolicyName(ArbiterPolicy policy);

/** One tenant workload stream offered to the service. */
struct TenantSpec
{
    /** Display name; defaults to "t<id>" when empty. */
    std::string name;

    /** Unique non-zero id; also the ledger `tenant` field. */
    std::uint32_t id = 0;

    /** Distinct pages the stream touches. */
    std::uint64_t footprintPages = 4096;

    /** Total memory requests across the stream's cores. */
    std::uint64_t requests = 1 << 16;

    /** Cores the stream is interleaved over (<= SystemConfig cores). */
    std::uint32_t cores = 4;

    /** Popularity skew in [0, 1): 0 uniform, higher concentrates
     * traffic on low page ranks (Zipf-shaped working set). */
    double zipfSkew = 0.8;

    /** Fraction of requests that are writes. */
    double writeFraction = 0.3;

    /** Stream rng seed (same seed => same trace at any --jobs). */
    std::uint64_t seed = 1;

    /** Share of the home shard's HBM this tenant may reserve. */
    double hbmQuotaFraction = 0.25;

    /** Scheduling priority (recorded; higher breaks grant ties). */
    int priority = 0;

    ReliabilityClass relClass = ReliabilityClass::Standard;
};

/** Service-wide knobs. */
struct ServiceConfig
{
    /** Shard count (>= 1); each shard owns capacity and tenants. */
    unsigned shards = 2;

    /** Global epochs; arbitration re-runs at every boundary. */
    unsigned epochs = 4;

    ArbiterPolicy arbiter = ArbiterPolicy::FairShare;

    /** Salt of the tenant -> shard routing hash. */
    std::uint64_t routingSalt = 0x9e3779b97f4a7c15ULL;

    /**
     * Fault storm composed onto one shard: events fire at the start
     * of their (1-based) global epoch. Page strikes select the
     * event's `page` modulo the shard's current HBM population, so a
     * plan written without knowledge of the routing always lands on
     * live frames of the struck shard.
     */
    std::vector<FaultEvent> faultPlan;

    /** Shard the fault plan lands on. */
    unsigned faultShard = 0;

    /**
     * Also run every tenant alone (same slicing and budgets, full
     * shard capacity, no faults) to measure per-tenant slowdown.
     */
    bool soloBaselines = false;
};

/** Arbitration input of one tenant. */
struct TenantDemand
{
    std::uint32_t id = 0;
    std::uint64_t demandPages = 0;
    double quotaFraction = 0.25;
    double classWeight = 1.0;
    double meanAvf = 0.0;
    int priority = 0;
};

/**
 * Grant HBM pages to tenants competing for one shard's capacity.
 * Returns one grant per demand, in input order. Invariants (locked
 * by tests): the grants sum to at most `capacity_pages`, and no
 * grant exceeds its tenant's demand. Fair-share additionally never
 * exceeds the tenant's strict quota; reliability-weighted may exceed
 * the base quota only by water-filled leftover capacity.
 * `clips`, when non-null, accrues the number of tenants whose
 * demand was clipped by their quota.
 */
std::vector<std::uint64_t>
arbitrate(ArbiterPolicy policy, std::uint64_t capacity_pages,
          const std::vector<TenantDemand> &demands,
          std::uint64_t *clips = nullptr);

/** Home shard of a tenant (splitmix hash of id and salt). */
unsigned shardOf(std::uint32_t tenant_id, unsigned shards,
                 std::uint64_t salt);

/** First global page id of a tenant's private page range. */
PageId tenantBasePage(std::uint32_t tenant_id);

/** Owning tenant of a global page id (0 = outside any tenant). */
std::uint32_t tenantOfPage(PageId page);

/**
 * Deterministic synthetic stream of a tenant: `spec.requests`
 * Zipf-skewed accesses over the tenant's private page range,
 * interleaved over `spec.cores` cores. Same spec => same trace.
 */
std::vector<CoreTrace> buildTenantTrace(const TenantSpec &spec);

/**
 * Trace-derived profile of a tenant stream: per-page read/write
 * counts, plus a deterministic pseudo-AVF correlated with the
 * page's write share (the paper's Figure 9 Wr-AVF correlation), so
 * the reliability-weighted arbiter and the placement ranking see
 * the risk signal without a profiling simulation pass.
 */
PageProfile profileTenantTrace(const std::vector<CoreTrace> &traces);

/** Outcome of one tenant's service run. */
struct TenantResult
{
    std::string name;
    std::uint32_t id = 0;

    /** Home shard the router chose. */
    unsigned shard = 0;

    std::uint64_t requests = 0;
    std::uint64_t instructions = 0;

    /** Sum of the tenant's per-epoch makespans. */
    Cycle makespan = 0;

    /** Solo-run makespan (0 when soloBaselines is off). */
    Cycle soloMakespan = 0;

    /** makespan / soloMakespan (NaN without a solo baseline). */
    double slowdown = 0;

    double ipc = 0;

    /** Mean over epochs of (HBM-resident pages / footprint). */
    double meanHbmShare = 0;

    /** Mean over epochs of HBM-resident pages. */
    double meanHbmPages = 0;

    /** Final-epoch grant and demand. */
    std::uint64_t grantedPages = 0;
    std::uint64_t demandPages = 0;

    /** Epoch boundaries where demand exceeded the grant. */
    std::uint64_t quotaClips = 0;

    /** Pages the epoch rebalancer moved for this tenant. */
    std::uint64_t movedPages = 0;

    /** Pages of this tenant retired by the fault composition. */
    std::uint64_t pagesRetired = 0;

    /** Summed per-epoch residency-weighted SER. */
    double ser = 0;

    /** Mean pseudo-AVF of the tenant's footprint. */
    double meanAvf = 0;

    /** True when the tenant's home shard ran degraded. */
    bool degraded = false;
};

/** Outcome of one shard. */
struct ShardResult
{
    unsigned shard = 0;
    std::uint64_t tenants = 0;

    /** Surviving HBM capacity and final occupancy. */
    std::uint64_t hbmCapacityPages = 0;
    std::uint64_t hbmUsedPages = 0;

    std::uint64_t faultsApplied = 0;
    std::uint64_t capacityLostPages = 0;
    std::uint64_t pagesRetired = 0;
    bool degraded = false;
};

/** Outcome of a whole service run. */
struct ServiceResult
{
    /** Per-tenant outcomes in tenant-id order. */
    std::vector<TenantResult> tenants;

    /** Per-shard outcomes in shard order. */
    std::vector<ShardResult> shards;

    std::uint64_t arbitrationRounds = 0;
    std::uint64_t quotaClips = 0;
    std::uint64_t rebalanceMoves = 0;
    /** Requests of the shared run, summed over tenants. */
    std::uint64_t totalRequests = 0;
    std::uint64_t totalInstructions = 0;

    /** Requests the solo baselines replayed (0 without them). */
    std::uint64_t soloRequests = 0;

    /** Jain index over per-tenant mean HBM pages (1 = fair). */
    double fairnessIndex = 1.0;

    /** p99 over per-tenant slowdowns (NaN without solos). */
    double p99Slowdown = 0;

    /** @{ @name Per-global-epoch trajectory (health timeline) */
    /** Jain index over per-tenant resident pages at each epoch. */
    std::vector<double> fairnessByEpoch;
    /** p99 per-epoch slowdown vs solo (NaN without solos). */
    std::vector<double> p99ByEpoch;
    /** @} */
};

/**
 * The sharded multi-tenant placement service front-end.
 *
 * Usage: admit() every tenant stream, then run() once. admit()
 * validates the spec, routes the tenant to its home shard, and
 * counts it in service.streams_admitted; run() executes the global
 * epoch loop — arbitrate, rebalance under budgets, replay every
 * tenant's epoch slice on its shard — and returns per-tenant and
 * per-shard outcomes that are invariant under the pool's --jobs
 * width.
 */
class PlacementService
{
  public:
    /** Opaque per-tenant / per-shard run state (defined in the cc). */
    struct Tenant;
    struct Shard;

    /** A tenant's ranking entries' handles in one map, in order. */
    using RankHandles = std::vector<PlacementMap::Handle>;

    PlacementService(const SystemConfig &system, ServiceConfig config);

    /** Out-of-line: Tenant is incomplete at the class definition. */
    ~PlacementService();

    /**
     * Admit one tenant stream. Returns false (and counts the
     * rejection) when the spec is invalid: zero/duplicate id, empty
     * footprint or request stream, more cores than the system has,
     * or a quota fraction outside (0, 1].
     */
    bool admit(TenantSpec spec);

    /** Admitted tenant count (out-of-line: Tenant is incomplete). */
    std::size_t tenantCount() const;

    /** Run the service campaign on the pool. */
    ServiceResult run(runner::ThreadPool &pool);

  private:
    SystemConfig system_;
    ServiceConfig config_;
    std::vector<Tenant> tenants_;

    std::uint64_t shardCapacity() const;

    /** Run one shard's full epoch loop (one pool task). */
    void runShard(Shard &shard, unsigned shard_index);

    /** Run one tenant alone at full shard capacity (solo baseline). */
    void runSolo(Tenant &tenant);

    /**
     * Land the epoch's composed faults on the struck shard's map;
     * `handles` holds each shard tenant's ranking handles in `map`.
     */
    void applyShardFaults(Shard &shard, PlacementMap &map,
                          const std::vector<RankHandles> &handles,
                          unsigned shard_index, unsigned global_epoch);
};

} // namespace ramp::service

#endif // RAMP_SERVICE_SERVICE_HH
