#include "trace/compiled.hh"

namespace ramp
{

void
CompiledTrace::compile(const std::vector<CoreTrace> &traces)
{
    index_.clear();
    base_.clear();
    slots_.clear();
    std::size_t requests = 0;
    for (const auto &trace : traces)
        requests += trace.size();
    slots_.reserve(requests);
    for (const auto &trace : traces) {
        base_.push_back(slots_.size());
        for (const MemRequest &req : trace)
            slots_.push_back(index_.intern(pageOf(req.addr)));
    }
    base_.push_back(slots_.size());
}

} // namespace ramp
