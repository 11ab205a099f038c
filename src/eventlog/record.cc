#include "eventlog/record.hh"

namespace ramp::eventlog
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Place: return "place";
      case EventKind::Promote: return "promote";
      case EventKind::Evict: return "evict";
      case EventKind::SwapIn: return "swap-in";
      case EventKind::SwapOut: return "swap-out";
      case EventKind::Epoch: return "epoch";
      case EventKind::Fault: return "fault";
      case EventKind::Inject: return "inject";
      case EventKind::Retire: return "retire";
      case EventKind::Remap: return "remap";
      case EventKind::Degrade: return "degrade";
      case EventKind::Tenant: return "tenant";
      case EventKind::Alert: return "alert";
    }
    return "?";
}

const char *
policyIdName(PolicyId policy)
{
    switch (policy) {
      case PolicyId::Unknown: return "unknown";
      case PolicyId::DdrOnly: return "ddr-only";
      case PolicyId::PerfFocused: return "perf-focused";
      case PolicyId::RelFocused: return "rel-focused";
      case PolicyId::Balanced: return "balanced";
      case PolicyId::WrRatio: return "wr-ratio";
      case PolicyId::Wr2Ratio: return "wr2-ratio";
      case PolicyId::HotFraction: return "hot-fraction";
      case PolicyId::Annotated: return "annotated";
      case PolicyId::PerfMigration: return "perf-migration";
      case PolicyId::FcMigration: return "fc-migration";
      case PolicyId::CcMigration: return "cc-migration";
      case PolicyId::FaultSim: return "faultsim";
      case PolicyId::FaultInject: return "fault-inject";
      case PolicyId::Service: return "service";
    }
    return "?";
}

PolicyId
policyIdFromName(std::string_view name)
{
    // Every known id round-trips through its own name; novel
    // policy strings degrade to Unknown rather than erroring so
    // third-party engines can still be logged.
    for (int i = 0;
         i <= static_cast<int>(PolicyId::Service); ++i) {
        const auto id = static_cast<PolicyId>(i);
        if (name == policyIdName(id))
            return id;
    }
    return PolicyId::Unknown;
}

const char *
tierName(Tier tier)
{
    switch (tier) {
      case Tier::None: return "none";
      case Tier::Hbm: return "hbm";
      case Tier::Ddr: return "ddr";
    }
    return "?";
}

const char *
quadrantName(Quadrant quadrant)
{
    switch (quadrant) {
      case Quadrant::Unknown: return "unknown";
      case Quadrant::HotLowRisk: return "hot-low";
      case Quadrant::HotHighRisk: return "hot-high";
      case Quadrant::ColdLowRisk: return "cold-low";
      case Quadrant::ColdHighRisk: return "cold-high";
    }
    return "?";
}

} // namespace ramp::eventlog
