#include "cache/hierarchy.hh"

#include "common/logging.hh"
#include "prof/prof.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{

namespace
{

/** Hot-path hit/miss counters, looked up once per process. */
struct HierarchyCounters
{
    telemetry::Counter &l1dHits =
        telemetry::metrics().counter("cache.l1d.hits");
    telemetry::Counter &l1dMisses =
        telemetry::metrics().counter("cache.l1d.misses");
    telemetry::Counter &l1iHits =
        telemetry::metrics().counter("cache.l1i.hits");
    telemetry::Counter &l1iMisses =
        telemetry::metrics().counter("cache.l1i.misses");
    telemetry::Counter &l2Hits =
        telemetry::metrics().counter("cache.l2.hits");
    telemetry::Counter &l2Misses =
        telemetry::metrics().counter("cache.l2.misses");
};

HierarchyCounters &
hierarchyCounters()
{
    static HierarchyCounters counters;
    return counters;
}

/** Record one access outcome into the L1/L2 telemetry counters. */
void
countAccess(const CacheHierarchy::Result &result,
            telemetry::Counter &l1_hits,
            telemetry::Counter &l1_misses)
{
    auto &c = hierarchyCounters();
    if (result.l1Hit) {
        l1_hits.add(1);
        return;
    }
    l1_misses.add(1);
    if (result.l2Hit)
        c.l2Hits.add(1);
    else
        c.l2Misses.add(1);
}

} // namespace

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config), l2_(config.l2)
{
    if (config.cores <= 0)
        ramp_fatal("hierarchy needs at least one core");
    l1i_.reserve(static_cast<std::size_t>(config.cores));
    l1d_.reserve(static_cast<std::size_t>(config.cores));
    for (int i = 0; i < config.cores; ++i) {
        l1i_.emplace_back(config.l1i);
        l1d_.emplace_back(config.l1d);
    }
}

CacheHierarchy::Result
CacheHierarchy::accessThroughL2(SetAssocCache &l1, Addr addr,
                                bool is_write)
{
    Result result;
    const auto l1_result = l1.access(addr, is_write);
    if (l1_result.hit) {
        result.l1Hit = true;
        // A dirty L1 victim can't exist on a hit; nothing reaches L2.
        return result;
    }

    // Install the L1 victim's dirty data into the L2 (it was fetched
    // through the L2 earlier, so this is an update, not an allocate
    // in the common case).
    if (l1_result.writeback) {
        const auto wb = l2_.access(l1_result.writebackAddr, true);
        if (wb.writeback) {
            result.accesses[result.numAccesses++] =
                {wb.writebackAddr, true};
        }
    }

    const auto l2_result = l2_.access(addr, false);
    result.l2Hit = l2_result.hit;
    if (!l2_result.hit) {
        result.accesses[result.numAccesses++] = {addr, false};
    }
    if (l2_result.writeback) {
        if (result.numAccesses >= 3)
            ramp_panic("more than three memory accesses in one fill");
        result.accesses[result.numAccesses++] =
            {l2_result.writebackAddr, true};
    }
    return result;
}

CacheHierarchy::Result
CacheHierarchy::accessData(CoreId core, Addr addr, bool is_write)
{
    if (core >= l1d_.size())
        ramp_panic("data access from unknown core ", core);
    // TSC-only: this is a per-access path, too hot for a PMU read.
    RAMP_PROF_SCOPE(access_prof, "cache.access");
    const Result result = accessThroughL2(l1d_[core], addr, is_write);
    RAMP_OBS(Telemetry,
             countAccess(result, hierarchyCounters().l1dHits,
                         hierarchyCounters().l1dMisses));
    return result;
}

CacheHierarchy::Result
CacheHierarchy::accessInst(CoreId core, Addr addr)
{
    if (core >= l1i_.size())
        ramp_panic("inst access from unknown core ", core);
    RAMP_PROF_SCOPE(access_prof, "cache.access");
    const Result result = accessThroughL2(l1i_[core], addr, false);
    RAMP_OBS(Telemetry,
             countAccess(result, hierarchyCounters().l1iHits,
                         hierarchyCounters().l1iMisses));
    return result;
}

std::vector<CacheHierarchy::MemAccess>
CacheHierarchy::drain()
{
    std::vector<MemAccess> accesses;
    // L1 dirty lines drain through the L2.
    for (auto &l1 : l1d_) {
        for (const Addr addr : l1.flush()) {
            const auto result = l2_.access(addr, true);
            if (result.writeback)
                accesses.push_back({result.writebackAddr, true});
        }
    }
    for (const Addr addr : l2_.flush())
        accesses.push_back({addr, true});
    return accesses;
}

const CacheStats &
CacheHierarchy::l1dStats(CoreId core) const
{
    return l1d_.at(core).stats();
}

const CacheStats &
CacheHierarchy::l1iStats(CoreId core) const
{
    return l1i_.at(core).stats();
}

} // namespace ramp
