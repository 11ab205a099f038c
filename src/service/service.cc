#include "service/service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <string>

#include "common/rng.hh"
#include "eventlog/eventlog.hh"
#include "health/health.hh"
#include "prof/prof.hh"
#include "telemetry/telemetry.hh"

namespace ramp::service
{

namespace
{

/** Telemetry handles of the service layer (one lookup ever). */
struct ServiceTelemetry
{
    telemetry::Counter &admitted =
        telemetry::metrics().counter("service.streams_admitted");
    telemetry::Counter &rejected =
        telemetry::metrics().counter("service.streams_rejected");
    telemetry::Counter &rounds =
        telemetry::metrics().counter("service.arbitration_rounds");
    telemetry::Counter &clips =
        telemetry::metrics().counter("service.quota_clips");
    telemetry::Counter &epochs =
        telemetry::metrics().counter("service.epochs");
    telemetry::Counter &moves =
        telemetry::metrics().counter("service.rebalance_moves");
    telemetry::Counter &faults =
        telemetry::metrics().counter("service.faults_applied");
    telemetry::Counter &solos =
        telemetry::metrics().counter("service.solo_runs");
    telemetry::Counter &requests =
        telemetry::metrics().counter("service.requests_served");
};

/** Pages one tenant may promote, and separately demote, in one epoch
 * rebalance. */
constexpr std::uint64_t moveBudgetPages = 512;

ServiceTelemetry &
serviceTelemetry()
{
    static ServiceTelemetry telemetry;
    return telemetry;
}

double
next01(std::uint64_t &state)
{
    return static_cast<double>(splitMix64(state) >> 11) * 0x1.0p-53;
}

/** One core's slice [len*e/E, len*(e+1)/E) of every trace. */
std::vector<CoreTrace>
epochSlice(const std::vector<CoreTrace> &traces, unsigned epoch,
           unsigned epochs)
{
    std::vector<CoreTrace> slice(traces.size());
    for (std::size_t c = 0; c < traces.size(); ++c) {
        const CoreTrace &full = traces[c];
        const std::size_t lo = full.size() * epoch / epochs;
        const std::size_t hi = full.size() * (epoch + 1) / epochs;
        slice[c].assign(full.begin() + static_cast<std::ptrdiff_t>(lo),
                        full.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    return slice;
}

std::uint64_t
sliceRequests(const std::vector<CoreTrace> &slice)
{
    std::uint64_t total = 0;
    for (const CoreTrace &trace : slice)
        total += trace.size();
    return total;
}

} // namespace

const char *
reliabilityClassName(ReliabilityClass cls)
{
    switch (cls) {
      case ReliabilityClass::Tolerant:
        return "tolerant";
      case ReliabilityClass::Standard:
        return "standard";
      case ReliabilityClass::Critical:
        return "critical";
    }
    return "standard";
}

double
reliabilityClassWeight(ReliabilityClass cls)
{
    switch (cls) {
      case ReliabilityClass::Tolerant:
        return 0.5;
      case ReliabilityClass::Standard:
        return 1.0;
      case ReliabilityClass::Critical:
        return 2.0;
    }
    return 1.0;
}

const char *
arbiterPolicyName(ArbiterPolicy policy)
{
    switch (policy) {
      case ArbiterPolicy::FairShare:
        return "fair-share";
      case ArbiterPolicy::ReliabilityWeighted:
        return "reliability-weighted";
    }
    return "fair-share";
}

std::vector<std::uint64_t>
arbitrate(ArbiterPolicy policy, std::uint64_t capacity_pages,
          const std::vector<TenantDemand> &demands,
          std::uint64_t *clips)
{
    std::vector<std::uint64_t> grants(demands.size(), 0);
    if (demands.empty())
        return grants;

    if (policy == ArbiterPolicy::FairShare) {
        // Strict quotas: quota_t = floor(capacity * qf_t), with the
        // fractions renormalised when oversubscribed so the quotas
        // themselves can never exceed the shard.
        double sum_qf = 0;
        for (const TenantDemand &d : demands)
            sum_qf += std::max(0.0, d.quotaFraction);
        const double scale = sum_qf > 1.0 ? 1.0 / sum_qf : 1.0;
        for (std::size_t i = 0; i < demands.size(); ++i) {
            const double qf =
                std::max(0.0, demands[i].quotaFraction) * scale;
            const auto quota = static_cast<std::uint64_t>(
                static_cast<double>(capacity_pages) * qf);
            grants[i] = std::min(demands[i].demandPages, quota);
        }
    } else {
        // Credit_t = qf_t * classWeight_t * (1 + meanAvf_t): a
        // critical or high-AVF tenant's pages carry more expected
        // failure cost in the risky tier (Equation 2), so they buy
        // proportionally more of the reliable one.
        std::vector<double> credits(demands.size(), 0);
        double sum_credit = 0;
        for (std::size_t i = 0; i < demands.size(); ++i) {
            const TenantDemand &d = demands[i];
            credits[i] = std::max(0.0, d.quotaFraction) *
                         std::max(0.0, d.classWeight) *
                         (1.0 + std::max(0.0, d.meanAvf));
            sum_credit += credits[i];
        }
        if (sum_credit > 0) {
            for (std::size_t i = 0; i < demands.size(); ++i) {
                const auto quota = static_cast<std::uint64_t>(
                    static_cast<double>(capacity_pages) *
                    credits[i] / sum_credit);
                grants[i] =
                    std::min(demands[i].demandPages, quota);
            }
            // Water-fill the slack left by under-demanding tenants
            // into clipped ones, highest credit first.
            std::uint64_t granted = std::accumulate(
                grants.begin(), grants.end(), std::uint64_t{0});
            std::uint64_t leftover =
                capacity_pages > granted ? capacity_pages - granted
                                         : 0;
            std::vector<std::size_t> order(demands.size());
            std::iota(order.begin(), order.end(), std::size_t{0});
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (credits[a] != credits[b])
                              return credits[a] > credits[b];
                          if (demands[a].priority !=
                              demands[b].priority)
                              return demands[a].priority >
                                     demands[b].priority;
                          return demands[a].id < demands[b].id;
                      });
            for (const std::size_t i : order) {
                if (leftover == 0)
                    break;
                const std::uint64_t want =
                    demands[i].demandPages - grants[i];
                const std::uint64_t extra =
                    std::min(leftover, want);
                grants[i] += extra;
                leftover -= extra;
            }
        }
    }

    if (clips != nullptr)
        for (std::size_t i = 0; i < demands.size(); ++i)
            if (grants[i] < demands[i].demandPages)
                ++*clips;
    return grants;
}

unsigned
shardOf(std::uint32_t tenant_id, unsigned shards, std::uint64_t salt)
{
    if (shards <= 1)
        return 0;
    std::uint64_t state = tenant_id ^ salt;
    return static_cast<unsigned>(splitMix64(state) % shards);
}

PageId
tenantBasePage(std::uint32_t tenant_id)
{
    return static_cast<PageId>(tenant_id) << 24;
}

std::uint32_t
tenantOfPage(PageId page)
{
    return static_cast<std::uint32_t>(page >> 24);
}

std::vector<CoreTrace>
buildTenantTrace(const TenantSpec &spec)
{
    const std::uint32_t cores = std::max<std::uint32_t>(1, spec.cores);
    std::vector<CoreTrace> traces(cores);
    for (CoreTrace &trace : traces)
        trace.reserve(spec.requests / cores + 1);

    const std::uint64_t footprint =
        std::max<std::uint64_t>(1, spec.footprintPages);
    const double skew = std::clamp(spec.zipfSkew, 0.0, 0.99);
    // u^k rank mapping: k = 1 is uniform; higher k concentrates the
    // mass on low ranks (a cheap deterministic Zipf stand-in).
    const double k = 1.0 + 9.0 * skew;
    const PageId base = tenantBasePage(spec.id);
    // The stream's state starts at the first SplitMix64 draw from
    // the seed mixed with the tenant id.
    std::uint64_t state =
        spec.seed ^ (static_cast<std::uint64_t>(spec.id) << 32);
    state = splitMix64(state);

    for (std::uint64_t r = 0; r < spec.requests; ++r) {
        const double u = next01(state);
        auto rank = static_cast<std::uint64_t>(
            std::pow(u, k) * static_cast<double>(footprint));
        if (rank >= footprint)
            rank = footprint - 1;
        const std::uint64_t line = splitMix64(state) % linesPerPage;
        const bool is_write = next01(state) < spec.writeFraction;
        MemRequest req;
        req.addr = (base + rank) * pageSize + line * lineSize;
        req.gap = static_cast<std::uint32_t>(splitMix64(state) % 8);
        req.core = static_cast<CoreId>(r % cores);
        req.isWrite = is_write;
        traces[r % cores].push_back(req);
    }
    return traces;
}

PageProfile
profileTenantTrace(const std::vector<CoreTrace> &traces)
{
    PageProfile profile;
    for (const CoreTrace &trace : traces)
        for (const MemRequest &req : trace)
            profile.recordAccess(pageOf(req.addr), req.isWrite);
    // Pseudo-AVF rises with the page's write share — the Figure 9
    // Wr-AVF correlation — so risk ranking needs no simulation pass.
    for (const auto &[page, stats] : profile.entries()) {
        const auto hot = static_cast<double>(stats.hotness());
        const double write_share =
            hot > 0 ? static_cast<double>(stats.writes) / hot : 0.0;
        profile.setAvf(page, 0.1 + 0.8 * write_share);
    }
    return profile;
}

/**
 * Per-tenant state. The prepare task writes the prepared stream once;
 * after it the home shard's task and the tenant's solo task run side
 * by side, both reading the prepared stream, each writing only its
 * own fields.
 */
struct PlacementService::Tenant
{
    TenantSpec spec;
    unsigned shard = 0;

    // Prepared stream: written by the prepare task, then read-only.
    /** The trace cut into its global epochs' slices. */
    std::vector<std::vector<CoreTrace>> slices;
    std::vector<std::pair<PageId, PageStats>> ranking;
    double meanAvf = 0;
    double meanHotness = 0;

    // Shared run: written by the home shard's task only.
    /** Demand of the next arbitration round (previous working set). */
    std::uint64_t demand = 0;
    std::uint64_t grant = 0;

    std::uint64_t requests = 0;
    std::uint64_t instructions = 0;
    Cycle makespan = 0;
    double ser = 0;
    double hbmPagesSum = 0;
    double hbmShareSum = 0;
    std::uint64_t clips = 0;
    std::uint64_t moved = 0;
    std::uint64_t retired = 0;
    bool degraded = false;

    /** @{ @name Per-epoch history, folded into the health timeline */
    std::vector<std::uint64_t> residentByEpoch;
    std::vector<std::uint64_t> grantByEpoch;
    std::vector<double> shareByEpoch;
    std::vector<Cycle> makespanByEpoch;
    /** @} */

    // Solo baseline: written by the tenant's solo task only.
    std::uint64_t soloRequests = 0;
    Cycle soloMakespan = 0;
    std::vector<Cycle> soloMakespanByEpoch;
};

/**
 * Per-shard state; owned by exactly one pool task for the run. The
 * shard's PlacementMap lives inside that task; the fold reads only
 * the snapshot the task leaves here.
 */
struct PlacementService::Shard
{
    explicit Shard(std::uint64_t capacity_pages)
        : hbmCapacityPages(capacity_pages)
    {
    }

    std::vector<std::size_t> tenantIdx;
    /** The map's surviving capacity and occupancy at the run's end. */
    std::uint64_t hbmCapacityPages;
    std::uint64_t hbmUsedPages = 0;
    std::uint64_t rounds = 0;
    std::uint64_t clips = 0;
    std::uint64_t faults = 0;
    std::uint64_t retired = 0;
    std::uint64_t capacityLost = 0;
    bool degraded = false;

    /** @{ @name Per-epoch history (cumulative at each boundary) */
    std::vector<std::uint64_t> usedByEpoch;
    std::vector<std::uint64_t> capacityByEpoch;
    std::vector<std::uint64_t> backlogByEpoch;
    std::vector<std::uint64_t> retiredByEpoch;
    std::vector<std::uint64_t> faultsByEpoch;
    std::vector<std::uint64_t> lostByEpoch;
    std::vector<std::uint64_t> movedByEpoch;
    std::vector<std::uint8_t> degradedByEpoch;
    /** @} */
};

namespace
{

using Tenant = PlacementService::Tenant;
using RankHandles = PlacementService::RankHandles;

/** The tenant's hot set: pages at or above the mean hotness. */
std::uint64_t
hotSetPages(const Tenant &tenant)
{
    const double mean = tenant.meanHotness;
    std::uint64_t hot = 0;
    for (const auto &entry : tenant.ranking) {
        if (static_cast<double>(entry.second.hotness()) < mean)
            break; // ranking is hotness-descending
        ++hot;
    }
    return std::max<std::uint64_t>(1, hot);
}

void
emitMoveRecord(eventlog::EventKind kind, PageId page,
               const PageStats &stats, unsigned epoch)
{
    RAMP_OBS(Events, {
        eventlog::EventRecord record;
        record.kind = kind;
        record.policy = eventlog::PolicyId::Service;
        record.epoch = epoch;
        record.page = page;
        record.partner = invalidPage;
        record.src = kind == eventlog::EventKind::Promote
                         ? eventlog::Tier::Ddr
                         : eventlog::Tier::Hbm;
        record.dst = kind == eventlog::EventKind::Promote
                         ? eventlog::Tier::Hbm
                         : eventlog::Tier::Ddr;
        record.hotness = static_cast<float>(stats.hotness());
        record.wrRatio = static_cast<float>(stats.wrRatio());
        record.avf = static_cast<float>(stats.avf);
        eventlog::emit(record);
    });
}

/**
 * The map's handle of every ranking entry, in ranking order. Taking
 * them inserts every ranked page up front, which changes only the
 * map's hbmPages() order; the service sorts what it reads from there.
 */
RankHandles
rankHandles(PlacementMap &map, const Tenant &tenant)
{
    RankHandles handles;
    handles.reserve(tenant.ranking.size());
    for (const auto &entry : tenant.ranking)
        handles.push_back(map.handleOf(entry.first));
    return handles;
}

/**
 * Drive one tenant's HBM set toward the first `grant` entries of its
 * hotness ranking, demotions (coldest first, freeing frames) before
 * promotions (hottest first), each capped by moveBudgetPages.
 */
std::uint64_t
rebalanceTenant(PlacementMap &map, const Tenant &tenant,
                const RankHandles &handles, std::uint64_t grant,
                unsigned epoch)
{
    const std::size_t target = std::min<std::size_t>(
        grant, tenant.ranking.size());
    std::uint64_t moved = 0;

    std::uint64_t demotes = 0;
    for (std::size_t i = tenant.ranking.size();
         i-- > target && demotes < moveBudgetPages;) {
        const PageId page = tenant.ranking[i].first;
        if (map.memoryOf(handles[i]) != MemoryId::HBM ||
            map.isPinned(page))
            continue;
        if (map.moveRange(page, 1, MemoryId::DDR) == 1) {
            ++demotes;
            ++moved;
            emitMoveRecord(eventlog::EventKind::Evict, page,
                           tenant.ranking[i].second, epoch);
        }
    }

    std::uint64_t promotes = 0;
    for (std::size_t i = 0;
         i < target && promotes < moveBudgetPages; ++i) {
        const PageId page = tenant.ranking[i].first;
        if (map.memoryOf(handles[i]) == MemoryId::HBM ||
            map.isRetired(page))
            continue;
        if (map.hbmFreePages() == 0)
            break;
        if (map.moveRange(page, 1, MemoryId::HBM) == 1) {
            ++promotes;
            ++moved;
            emitMoveRecord(eventlog::EventKind::Promote, page,
                           tenant.ranking[i].second, epoch);
        }
    }
    return moved;
}

/** Initial placement: the grant prefix of the ranking goes to HBM. */
void
placeTenantInitial(PlacementMap &map, const Tenant &tenant,
                   std::uint64_t grant)
{
    const std::size_t target = std::min<std::size_t>(
        grant, tenant.ranking.size());
    for (std::size_t i = 0; i < target; ++i) {
        if (map.hbmFreePages() == 0)
            break;
        const auto &[page, stats] = tenant.ranking[i];
        map.place(page, MemoryId::HBM);
        RAMP_OBS(Events, {
            eventlog::EventRecord record;
            record.kind = eventlog::EventKind::Place;
            record.policy = eventlog::PolicyId::Service;
            record.dst = eventlog::Tier::Hbm;
            record.page = page;
            record.hotness = static_cast<float>(stats.hotness());
            record.wrRatio = static_cast<float>(stats.wrRatio());
            record.avf = static_cast<float>(stats.avf);
            eventlog::emit(record);
        });
    }
}

/** The tenant's currently HBM-resident page count. */
std::uint64_t
residentHbmPages(const PlacementMap &map, const RankHandles &handles)
{
    std::uint64_t resident = 0;
    for (const PlacementMap::Handle handle : handles)
        if (map.memoryOf(handle) == MemoryId::HBM)
            ++resident;
    return resident;
}

/**
 * Build a tenant's stream, cut it into `epochs` slices, and rank its
 * pages (one task). Only the slices, the ranking and two means
 * outlive the task.
 */
void
prepareTenant(Tenant &tenant, unsigned epochs)
{
    RAMP_PROF_SCOPE(prepare_prof, "service.prepare");
    eventlog::TenantScope tenant_scope(tenant.spec.id);
    eventlog::RunScope scope("svc/" + tenant.spec.name + "/prepare");
    const std::vector<CoreTrace> traces = buildTenantTrace(tenant.spec);
    const PageProfile profile = profileTenantTrace(traces);
    tenant.ranking = profile.sortedByDescending(
        [](const PageStats &stats) { return stats.hotness(); });
    tenant.meanAvf = profile.meanAvf();
    tenant.meanHotness = profile.meanHotness();
    tenant.demand = hotSetPages(tenant);
    tenant.slices.reserve(epochs);
    for (unsigned epoch = 0; epoch < epochs; ++epoch)
        tenant.slices.push_back(epochSlice(traces, epoch, epochs));
}

double
jainIndex(const std::vector<double> &xs)
{
    double sum = 0;
    double sum_sq = 0;
    for (const double x : xs) {
        sum += x;
        sum_sq += x * x;
    }
    if (sum_sq <= 0 || xs.empty())
        return 1.0;
    return sum * sum /
           (static_cast<double>(xs.size()) * sum_sq);
}

/** p99 of a sample set (NaN when empty). */
double
p99Of(std::vector<double> xs)
{
    if (xs.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(xs.begin(), xs.end());
    const std::size_t idx = std::min(
        xs.size() - 1,
        static_cast<std::size_t>(std::ceil(
            0.99 * static_cast<double>(xs.size()))) -
            1);
    return xs[idx];
}

} // namespace

PlacementService::PlacementService(const SystemConfig &system,
                                   ServiceConfig config)
    : system_(system), config_(std::move(config))
{
    if (config_.shards == 0)
        config_.shards = 1;
    if (config_.epochs == 0)
        config_.epochs = 1;
}

PlacementService::~PlacementService() = default;

std::size_t
PlacementService::tenantCount() const
{
    return tenants_.size();
}

std::uint64_t
PlacementService::shardCapacity() const
{
    return std::max<std::uint64_t>(
        1, system_.hbmPages() / config_.shards);
}

bool
PlacementService::admit(TenantSpec spec)
{
    const bool duplicate =
        std::any_of(tenants_.begin(), tenants_.end(),
                    [&](const Tenant &t) {
                        return t.spec.id == spec.id;
                    });
    if (spec.id == 0 || duplicate || spec.footprintPages == 0 ||
        spec.requests == 0 || spec.cores == 0 ||
        spec.cores > static_cast<std::uint32_t>(system_.cores) ||
        !(spec.hbmQuotaFraction > 0.0) ||
        spec.hbmQuotaFraction > 1.0) {
        RAMP_OBS(Telemetry, serviceTelemetry().rejected.add(1));
        return false;
    }
    if (spec.name.empty())
        spec.name = "t" + std::to_string(spec.id);
    Tenant tenant;
    tenant.shard =
        shardOf(spec.id, config_.shards, config_.routingSalt);
    tenant.spec = std::move(spec);
    tenants_.push_back(std::move(tenant));
    RAMP_OBS(Telemetry, serviceTelemetry().admitted.add(1));
    return true;
}

ServiceResult
PlacementService::run(runner::ThreadPool &pool)
{
    const auto started = std::chrono::steady_clock::now();
    ServiceResult result;
    if (tenants_.empty())
        return result;

    // Results are published in tenant-id order regardless of the
    // admission order; within a shard this is also the arbitration
    // and rebalance order, so the whole run is schedule-independent.
    std::sort(tenants_.begin(), tenants_.end(),
              [](const Tenant &a, const Tenant &b) {
                  return a.spec.id < b.spec.id;
              });

    std::vector<Shard> shards;
    shards.reserve(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s)
        shards.emplace_back(shardCapacity());
    for (std::size_t i = 0; i < tenants_.size(); ++i)
        shards[tenants_[i].shard].tenantIdx.push_back(i);

    // Prepare every tenant stream: trace, epoch slices, ranking.
    pool.runIndexed(tenants_.size(), [&](std::size_t i) {
        prepareTenant(tenants_[i], config_.epochs);
    });

    // Then one batch with no barrier inside: the shard tasks, longest
    // first (most tenants; ties by shard index), then one solo task
    // per tenant filling the workers the shorter shards free. One
    // shard task owns the shard's map and its tenants' shared-run
    // state for the whole run (DAOS-style single-threaded shards); a
    // solo task reads only its tenant's prepared stream and writes
    // only the solo fields.
    std::vector<std::size_t> order(shards.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return shards[a].tenantIdx.size() >
                                shards[b].tenantIdx.size();
                     });
    const std::size_t solos =
        config_.soloBaselines ? tenants_.size() : 0;
    pool.runIndexed(order.size() + solos, [&](std::size_t k) {
        if (k < order.size())
            runShard(shards[order[k]],
                     static_cast<unsigned>(order[k]));
        else
            runSolo(tenants_[k - order.size()]);
    });

    // Fold the per-shard and per-tenant state into the result (the
    // pool has drained; everything below is single-threaded).
    std::vector<double> hbm_means;
    std::vector<double> slowdowns;
    hbm_means.reserve(tenants_.size());
    for (Tenant &tenant : tenants_) {
        TenantResult tr;
        tr.name = tenant.spec.name;
        tr.id = tenant.spec.id;
        tr.shard = tenant.shard;
        tr.requests = tenant.requests;
        tr.instructions = tenant.instructions;
        tr.makespan = tenant.makespan;
        tr.soloMakespan = tenant.soloMakespan;
        tr.slowdown =
            tenant.soloMakespan > 0
                ? static_cast<double>(tenant.makespan) /
                      static_cast<double>(tenant.soloMakespan)
                : std::numeric_limits<double>::quiet_NaN();
        tr.ipc = tenant.makespan > 0
                     ? static_cast<double>(tenant.instructions) /
                           static_cast<double>(tenant.makespan)
                     : 0.0;
        tr.meanHbmShare =
            tenant.hbmShareSum / config_.epochs;
        tr.meanHbmPages =
            tenant.hbmPagesSum / config_.epochs;
        tr.grantedPages = tenant.grant;
        tr.demandPages = tenant.demand;
        tr.quotaClips = tenant.clips;
        tr.movedPages = tenant.moved;
        tr.pagesRetired = tenant.retired;
        tr.ser = tenant.ser;
        tr.meanAvf = tenant.meanAvf;
        tr.degraded = tenant.degraded;
        result.totalRequests += tenant.requests;
        result.soloRequests += tenant.soloRequests;
        result.totalInstructions += tenant.instructions;
        result.quotaClips += tenant.clips;
        result.rebalanceMoves += tenant.moved;
        hbm_means.push_back(tr.meanHbmPages);
        if (tenant.soloMakespan > 0)
            slowdowns.push_back(tr.slowdown);
        result.tenants.push_back(std::move(tr));
    }
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const Shard &shard = shards[s];
        ShardResult sr;
        sr.shard = static_cast<unsigned>(s);
        sr.tenants = shard.tenantIdx.size();
        sr.hbmCapacityPages = shard.hbmCapacityPages;
        sr.hbmUsedPages = shard.hbmUsedPages;
        sr.faultsApplied = shard.faults;
        sr.capacityLostPages = shard.capacityLost;
        sr.pagesRetired = shard.retired;
        sr.degraded = shard.degraded;
        result.arbitrationRounds += shard.rounds;
        result.shards.push_back(sr);
        RAMP_OBS(Telemetry, {
            const std::string prefix =
                "service.shard" + std::to_string(s);
            telemetry::metrics()
                .gauge(prefix + ".hbm_used")
                .set(static_cast<double>(sr.hbmUsedPages));
            telemetry::metrics()
                .gauge(prefix + ".hbm_capacity")
                .set(static_cast<double>(sr.hbmCapacityPages));
        });
    }

    result.fairnessIndex = jainIndex(hbm_means);
    result.p99Slowdown = p99Of(std::move(slowdowns));

    // Per-global-epoch trajectory, folded from the histories the
    // (single-threaded) shard tasks recorded — schedule-independent
    // by construction. The gauges walk the trajectory epoch by
    // epoch; the run-level values set below win as the last write.
    for (unsigned e = 0; e < config_.epochs; ++e) {
        std::vector<double> epoch_pages;
        std::vector<double> epoch_slowdowns;
        for (const Tenant &tenant : tenants_) {
            if (e < tenant.residentByEpoch.size())
                epoch_pages.push_back(static_cast<double>(
                    tenant.residentByEpoch[e]));
            if (e < tenant.makespanByEpoch.size() &&
                e < tenant.soloMakespanByEpoch.size() &&
                tenant.soloMakespanByEpoch[e] > 0)
                epoch_slowdowns.push_back(
                    static_cast<double>(
                        tenant.makespanByEpoch[e]) /
                    static_cast<double>(
                        tenant.soloMakespanByEpoch[e]));
        }
        result.fairnessByEpoch.push_back(jainIndex(epoch_pages));
        result.p99ByEpoch.push_back(
            p99Of(std::move(epoch_slowdowns)));
        RAMP_OBS(Telemetry, {
            telemetry::metrics()
                .gauge("service.fairness_index")
                .set(result.fairnessByEpoch.back());
            telemetry::metrics()
                .gauge("service.p99_slowdown")
                .set(result.p99ByEpoch.back());
        });
    }

    // Health timeline: one service-source sample per global epoch,
    // assembled from the same fold so it is jobs-invariant.
    [[maybe_unused]] auto epoch_sample = [&](unsigned e) {
        health::TimelineSample sample;
        sample.source = "service";
        sample.epoch = e + 1;
        sample.fairness = result.fairnessByEpoch[e];
        sample.p99Slowdown = result.p99ByEpoch[e];
        for (const Tenant &tenant : tenants_) {
            if (e >= tenant.residentByEpoch.size())
                continue;
            health::TenantSample ts;
            ts.id = tenant.spec.id;
            ts.shard = tenant.shard;
            ts.resident = tenant.residentByEpoch[e];
            ts.grant = tenant.grantByEpoch[e];
            ts.hbmShare = tenant.shareByEpoch[e];
            if (e < tenant.makespanByEpoch.size() &&
                e < tenant.soloMakespanByEpoch.size() &&
                tenant.soloMakespanByEpoch[e] > 0)
                ts.slowdown =
                    static_cast<double>(
                        tenant.makespanByEpoch[e]) /
                    static_cast<double>(
                        tenant.soloMakespanByEpoch[e]);
            sample.tenants.push_back(ts);
        }
        double backlog = 0;
        for (std::size_t s = 0; s < shards.size(); ++s) {
            const Shard &shard = shards[s];
            if (e >= shard.usedByEpoch.size())
                continue;
            health::ShardSample ss;
            ss.shard = static_cast<std::uint32_t>(s);
            ss.capacityPages = shard.capacityByEpoch[e];
            ss.usedPages = shard.usedByEpoch[e];
            ss.occupancy =
                ss.capacityPages == 0
                    ? health::unmeasured
                    : static_cast<double>(ss.usedPages) /
                          static_cast<double>(ss.capacityPages);
            ss.degraded = shard.degradedByEpoch[e] != 0;
            ss.retired = shard.retiredByEpoch[e];
            sample.shards.push_back(ss);
            backlog +=
                static_cast<double>(shard.backlogByEpoch[e]);
            sample.degraded = sample.degraded || ss.degraded;
            const auto delta = [&](const auto &history) {
                return history[e] - (e > 0 ? history[e - 1] : 0);
            };
            sample.faultsInjected += delta(shard.faultsByEpoch);
            sample.pagesRetired += delta(shard.retiredByEpoch);
            sample.capacityLost += delta(shard.lostByEpoch);
            sample.moves += delta(shard.movedByEpoch);
        }
        sample.backlog = backlog;
        return sample;
    };
    RAMP_OBS(Health, {
        eventlog::RunScope health_scope("svc/health");
        for (unsigned e = 0; e < config_.epochs; ++e)
            health::record(epoch_sample(e));
    });

    RAMP_OBS(Telemetry, {
        auto &tel = serviceTelemetry();
        tel.requests.add(result.totalRequests);
        telemetry::metrics()
            .gauge("service.tenants")
            .set(static_cast<double>(result.tenants.size()));
        telemetry::metrics()
            .gauge("service.shards")
            .set(static_cast<double>(result.shards.size()));
        telemetry::metrics()
            .gauge("service.fairness_index")
            .set(result.fairnessIndex);
        // Set even when NaN (no solo baselines): the non-finite
        // path renders null instead of leaking a stale value.
        telemetry::metrics()
            .gauge("service.p99_slowdown")
            .set(result.p99Slowdown);
        // Host time: the denominator of the BENCH document's
        // aggregate service throughput.
        telemetry::metrics()
            .gauge("service.run_seconds")
            .set(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - started)
                     .count());
    });
    return result;
}

void
PlacementService::applyShardFaults(
    Shard &shard, PlacementMap &map,
    const std::vector<RankHandles> &handles, unsigned shard_index,
    unsigned global_epoch)
{
    if (shard_index != config_.faultShard)
        return;
    eventlog::RunScope scope("svc/shard" +
                             std::to_string(shard_index) + "/storm");
    for (const FaultEvent &event : config_.faultPlan) {
        const std::uint64_t fire_epoch =
            std::max<std::uint64_t>(1, event.epoch);
        if (fire_epoch != global_epoch)
            continue;
        ++shard.faults;
        RAMP_OBS(Telemetry, serviceTelemetry().faults.add(1));
        switch (event.kind) {
          case FaultEventKind::Correctable: {
            RAMP_OBS(Events, {
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Inject;
                record.policy = eventlog::PolicyId::Service;
                record.epoch = global_epoch;
                record.page = event.page;
                record.partner = invalidPage;
                record.detail =
                    static_cast<std::uint8_t>(event.kind);
                record.src = eventlog::Tier::Hbm;
                record.dst = eventlog::Tier::Hbm;
                eventlog::emit(record);
            });
            break;
          }
          case FaultEventKind::Uncorrected: {
            const std::uint64_t strikes =
                std::max<std::uint64_t>(1, event.count);
            for (std::uint64_t c = 0; c < strikes; ++c) {
                // Strike a live frame: the plan's page indexes the
                // shard's current (sorted) HBM population, so a plan
                // written without knowledge of the routing still
                // lands on resident pages.
                auto population = map.hbmPages();
                if (population.empty())
                    break;
                std::sort(population.begin(), population.end());
                const PageId victim =
                    population[(event.page + c) %
                               population.size()];
                const std::uint32_t owner = tenantOfPage(victim);
                eventlog::TenantScope tenant_scope(owner);
                const RetireOutcome outcome =
                    map.retirePage(victim);
                if (!outcome.retired)
                    continue;
                ++shard.retired;
                for (const std::size_t idx : shard.tenantIdx) {
                    if (tenants_[idx].spec.id == owner) {
                        ++tenants_[idx].retired;
                        break;
                    }
                }
                RAMP_OBS(Events, {
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Retire;
                    record.policy = eventlog::PolicyId::Service;
                    record.epoch = global_epoch;
                    record.page = victim;
                    record.partner = invalidPage;
                    record.src = eventlog::tierOf(outcome.from);
                    record.dst = eventlog::tierOf(outcome.to);
                    eventlog::emit(record);
                });
            }
            break;
          }
          case FaultEventKind::CapacityLoss: {
            std::uint64_t pages = event.pages;
            if (pages == 0 && event.pct > 0)
                pages = static_cast<std::uint64_t>(
                    static_cast<double>(map.hbmCapacityPages()) *
                    event.pct / 100.0);
            const std::uint64_t lost =
                map.loseCapacity(MemoryId::HBM, pages);
            shard.capacityLost += lost;
            if (lost > 0)
                shard.degraded = true;
            RAMP_OBS(Events, {
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Degrade;
                record.policy = eventlog::PolicyId::Service;
                record.epoch = global_epoch;
                record.page = invalidPage;
                record.partner = invalidPage;
                record.span = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(lost, UINT32_MAX));
                record.hotness =
                    static_cast<float>(map.overfullHbmPages());
                eventlog::emit(record);
            });
            // Emergency sweep: demote the coldest residents across
            // the shard's tenants (id order) until within budget.
            for (std::size_t t = shard.tenantIdx.size();
                 t-- > 0 && map.overfullHbmPages() > 0;) {
                Tenant &tenant = tenants_[shard.tenantIdx[t]];
                eventlog::TenantScope tenant_scope(
                    tenant.spec.id);
                for (std::size_t i = tenant.ranking.size();
                     i-- > 0 && map.overfullHbmPages() > 0;) {
                    const PageId page = tenant.ranking[i].first;
                    if (map.memoryOf(handles[t][i]) !=
                            MemoryId::HBM ||
                        map.isPinned(page))
                        continue;
                    if (map.moveRange(page, 1, MemoryId::DDR) == 1) {
                        ++tenant.moved;
                        emitMoveRecord(eventlog::EventKind::Evict,
                                       page,
                                       tenant.ranking[i].second,
                                       global_epoch);
                    }
                }
            }
            break;
          }
        }
    }
}

void
PlacementService::runShard(Shard &shard, unsigned shard_index)
{
    if (shard.tenantIdx.empty())
        return;

    // The map lives for this task only; it is freed here, on this
    // worker, not after the pool drains.
    PlacementMap map(shardCapacity());
    std::vector<RankHandles> handles;
    handles.reserve(shard.tenantIdx.size());
    for (const std::size_t idx : shard.tenantIdx)
        handles.push_back(rankHandles(map, tenants_[idx]));

    for (unsigned epoch = 0; epoch < config_.epochs; ++epoch) {
        RAMP_PROF_SCOPE_PMU(epoch_prof, "service.global_epoch");
        RAMP_OBS(Telemetry, serviceTelemetry().epochs.add(1));
        applyShardFaults(shard, map, handles, shard_index, epoch + 1);

        // Arbitrate the surviving capacity across the shard's
        // tenants, then steer each tenant's HBM set toward its
        // grant under the per-epoch move budgets.
        std::vector<TenantDemand> demands;
        demands.reserve(shard.tenantIdx.size());
        for (const std::size_t idx : shard.tenantIdx) {
            const Tenant &tenant = tenants_[idx];
            TenantDemand demand;
            demand.id = tenant.spec.id;
            demand.demandPages = tenant.demand;
            demand.quotaFraction = tenant.spec.hbmQuotaFraction;
            demand.classWeight =
                reliabilityClassWeight(tenant.spec.relClass);
            demand.meanAvf = tenant.meanAvf;
            demand.priority = tenant.spec.priority;
            demands.push_back(demand);
        }
        std::uint64_t clipped = 0;
        const std::vector<std::uint64_t> grants =
            arbitrate(config_.arbiter, map.hbmCapacityPages(),
                      demands, &clipped);
        ++shard.rounds;
        shard.clips += clipped;
        RAMP_OBS(Telemetry, {
            serviceTelemetry().rounds.add(1);
            serviceTelemetry().clips.add(clipped);
        });

        for (std::size_t t = 0; t < shard.tenantIdx.size(); ++t) {
            Tenant &tenant = tenants_[shard.tenantIdx[t]];
            eventlog::TenantScope tenant_scope(tenant.spec.id);
            tenant.grant = grants[t];
            if (grants[t] < demands[t].demandPages)
                ++tenant.clips;

            {
                eventlog::RunScope scope(
                    "svc/" + tenant.spec.name + "/epoch" +
                    std::to_string(epoch));
                std::uint64_t moved = 0;
                if (epoch == 0) {
                    placeTenantInitial(map, tenant, tenant.grant);
                } else {
                    moved = rebalanceTenant(map, tenant, handles[t],
                                            tenant.grant, epoch);
                }
                tenant.moved += moved;
                RAMP_OBS(Telemetry, serviceTelemetry().moves.add(moved));

                const std::uint64_t resident =
                    residentHbmPages(map, handles[t]);
                const double share =
                    tenant.ranking.empty()
                        ? 0.0
                        : static_cast<double>(resident) /
                              static_cast<double>(
                                  tenant.ranking.size());
                tenant.hbmPagesSum +=
                    static_cast<double>(resident);
                tenant.hbmShareSum += share;
                tenant.residentByEpoch.push_back(resident);
                tenant.grantByEpoch.push_back(tenant.grant);
                tenant.shareByEpoch.push_back(share);
                RAMP_OBS(Events, {
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Tenant;
                    record.policy = eventlog::PolicyId::Service;
                    record.epoch = epoch;
                    record.page = invalidPage;
                    record.partner = invalidPage;
                    record.region = shard_index;
                    record.span = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(tenant.grant,
                                                UINT32_MAX));
                    record.moved = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(resident,
                                                UINT32_MAX));
                    record.hotness = static_cast<float>(
                        tenant.ranking.empty()
                            ? 0.0
                            : static_cast<double>(resident) /
                                  static_cast<double>(
                                      tenant.ranking.size()));
                    record.avf =
                        static_cast<float>(tenant.meanAvf);
                    eventlog::emit(record);
                });

                const std::vector<CoreTrace> &slice =
                    tenant.slices[epoch];
                Cycle epoch_makespan = 0;
                if (sliceRequests(slice) > 0) {
                    HmaSystem system(system_);
                    const SimResult epoch_result =
                        system.runInPlace(slice, map, nullptr,
                                          nullptr);
                    epoch_makespan = epoch_result.makespan;
                    tenant.makespan += epoch_result.makespan;
                    tenant.requests += epoch_result.requests;
                    tenant.instructions +=
                        epoch_result.instructions;
                    tenant.ser += epoch_result.ser;
                    tenant.demand = std::max<std::uint64_t>(
                        1,
                        epoch_result.profile.footprintPages());
                }
                tenant.makespanByEpoch.push_back(epoch_makespan);
            }
            tenant.degraded =
                tenant.degraded || shard.degraded;
        }

        // Epoch-boundary shard history: cumulative counts that the
        // post-drain fold differences into the health timeline.
        std::uint64_t shard_moved = 0;
        for (const std::size_t idx : shard.tenantIdx)
            shard_moved += tenants_[idx].moved;
        shard.usedByEpoch.push_back(map.hbmUsedPages());
        shard.capacityByEpoch.push_back(map.hbmCapacityPages());
        shard.backlogByEpoch.push_back(map.overfullHbmPages());
        shard.retiredByEpoch.push_back(shard.retired);
        shard.faultsByEpoch.push_back(shard.faults);
        shard.lostByEpoch.push_back(shard.capacityLost);
        shard.movedByEpoch.push_back(shard_moved);
        shard.degradedByEpoch.push_back(shard.degraded ? 1 : 0);
    }
    shard.hbmCapacityPages = map.hbmCapacityPages();
    shard.hbmUsedPages = map.hbmUsedPages();
}

void
PlacementService::runSolo(Tenant &tenant)
{
    RAMP_OBS(Telemetry, serviceTelemetry().solos.add(1));
    eventlog::TenantScope tenant_scope(tenant.spec.id);
    PlacementMap map(shardCapacity());
    const RankHandles handles = rankHandles(map, tenant);
    std::uint64_t demand = hotSetPages(tenant);
    for (unsigned epoch = 0; epoch < config_.epochs; ++epoch) {
        eventlog::RunScope scope("svc-solo/" + tenant.spec.name +
                                 "/epoch" + std::to_string(epoch));
        const std::uint64_t grant =
            std::min(demand, map.hbmCapacityPages());
        if (epoch == 0)
            placeTenantInitial(map, tenant, grant);
        else
            rebalanceTenant(map, tenant, handles, grant, epoch);
        const std::vector<CoreTrace> &slice = tenant.slices[epoch];
        if (sliceRequests(slice) == 0) {
            tenant.soloMakespanByEpoch.push_back(0);
            continue;
        }
        HmaSystem system(system_);
        const SimResult epoch_result =
            system.runInPlace(slice, map, nullptr, nullptr);
        tenant.soloRequests += epoch_result.requests;
        tenant.soloMakespan += epoch_result.makespan;
        tenant.soloMakespanByEpoch.push_back(epoch_result.makespan);
        demand = std::max<std::uint64_t>(
            1, epoch_result.profile.footprintPages());
    }
}

} // namespace ramp::service
