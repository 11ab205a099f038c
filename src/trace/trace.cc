#include "trace/trace.hh"

namespace ramp
{

double
TraceStats::mpki() const
{
    if (instructions == 0)
        return 0.0;
    return static_cast<double>(requests) * 1000.0 /
           static_cast<double>(instructions);
}

double
TraceStats::writeFraction() const
{
    if (requests == 0)
        return 0.0;
    return static_cast<double>(writes) / static_cast<double>(requests);
}

TraceStats
computeStats(const CoreTrace &trace)
{
    TraceStats stats;
    std::unordered_set<PageId> pages;
    for (const auto &req : trace) {
        ++stats.requests;
        if (req.isWrite)
            ++stats.writes;
        else
            ++stats.reads;
        stats.instructions += req.instructions();
        pages.insert(pageOf(req.addr));
    }
    stats.footprintPages = pages.size();
    return stats;
}

TraceStats
computeStats(const std::vector<CoreTrace> &traces)
{
    TraceStats stats;
    std::unordered_set<PageId> pages;
    for (const auto &trace : traces) {
        for (const auto &req : trace) {
            ++stats.requests;
            if (req.isWrite)
                ++stats.writes;
            else
                ++stats.reads;
            stats.instructions += req.instructions();
            pages.insert(pageOf(req.addr));
        }
    }
    stats.footprintPages = pages.size();
    return stats;
}

std::unordered_set<PageId>
touchedPages(const std::vector<CoreTrace> &traces)
{
    std::unordered_set<PageId> pages;
    for (const auto &trace : traces)
        for (const auto &req : trace)
            pages.insert(pageOf(req.addr));
    return pages;
}

} // namespace ramp
