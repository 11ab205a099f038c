#include "prof/prof.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "prof/tsc.hh"
#include "common/json.hh"
#include "telemetry/trace.hh"

namespace ramp::prof
{

namespace detail
{

/** One phase in a thread's call tree; owned by its parent. */
struct PhaseNode
{
    const char *name = "";
    PhaseNode *parent = nullptr;
    std::vector<std::unique_ptr<PhaseNode>> children;

    std::uint64_t calls = 0;
    std::uint64_t totalCycles = 0;

    std::uint64_t pmuCalls = 0;
    std::uint64_t pmuCycles = 0;
    std::uint64_t pmuInstructions = 0;
    std::uint64_t pmuLlcMisses = 0;
    std::uint64_t pmuBranchMisses = 0;
};

/**
 * One thread's tree and cursor. The owner mutates under the mutex;
 * snapshot() and reset() read/zero from other threads under it.
 */
struct ThreadProf
{
    std::mutex mutex;
    PhaseNode root;
    PhaseNode *current = &root;
};

} // namespace detail

namespace
{

struct Collector
{
    std::mutex mutex;
    std::vector<std::shared_ptr<detail::ThreadProf>> states;
};

Collector &
collector()
{
    static Collector instance;
    return instance;
}

/**
 * The calling thread's tree, registered on first use. Only enabled
 * scopes call this, so a disabled run registers nothing.
 */
detail::ThreadProf &
threadState()
{
    thread_local std::shared_ptr<detail::ThreadProf> state = [] {
        auto fresh = std::make_shared<detail::ThreadProf>();
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        c.states.push_back(fresh);
        return fresh;
    }();
    return *state;
}

/** One B or E event of a phase scope (caller checked obs::Trace). */
void
traceEvent(char phase, const char *name, std::string args_json = {})
{
    telemetry::TraceEvent event;
    event.name = name;
    event.cat = "phase";
    event.phase = phase;
    event.tsMicros = telemetry::nowMicros();
    event.argsJson = std::move(args_json);
    telemetry::emitEvent(std::move(event));
}

std::uint64_t
saturatingDelta(std::uint64_t start, std::uint64_t stop)
{
    return stop >= start ? stop - start : 0;
}

/** Merged (cross-thread) tree, keyed by phase-name content. */
struct MergeNode
{
    std::uint64_t calls = 0;
    std::uint64_t totalCycles = 0;
    std::uint64_t pmuCalls = 0;
    std::uint64_t pmuCycles = 0;
    std::uint64_t pmuInstructions = 0;
    std::uint64_t pmuLlcMisses = 0;
    std::uint64_t pmuBranchMisses = 0;

    /** std::map keeps children name-sorted for determinism. */
    std::map<std::string, MergeNode> children;
};

void
mergeInto(MergeNode &dst, const detail::PhaseNode &src)
{
    dst.calls += src.calls;
    dst.totalCycles += src.totalCycles;
    dst.pmuCalls += src.pmuCalls;
    dst.pmuCycles += src.pmuCycles;
    dst.pmuInstructions += src.pmuInstructions;
    dst.pmuLlcMisses += src.pmuLlcMisses;
    dst.pmuBranchMisses += src.pmuBranchMisses;
    for (const auto &child : src.children)
        mergeInto(dst.children[child->name], *child);
}

bool
subtreeRan(const MergeNode &node)
{
    if (node.calls > 0)
        return true;
    for (const auto &[name, child] : node.children)
        if (subtreeRan(child))
            return true;
    return false;
}

void
flatten(const MergeNode &node, const std::string &prefix,
        unsigned depth, std::vector<PhaseStat> &out)
{
    for (const auto &[name, child] : node.children) {
        if (!subtreeRan(child))
            continue;
        // Local copy: `out` reallocates as the recursion appends, so
        // a reference into it would dangle.
        const std::string path =
            prefix.empty() ? name : prefix + ";" + name;
        PhaseStat stat;
        stat.path = path;
        stat.name = name;
        stat.depth = depth;
        stat.calls = child.calls;
        stat.totalCycles = child.totalCycles;
        std::uint64_t children_total = 0;
        for (const auto &[cname, grandchild] : child.children)
            children_total += grandchild.totalCycles;
        stat.selfCycles =
            saturatingDelta(children_total, child.totalCycles);
        stat.pmuCalls = child.pmuCalls;
        stat.pmuCycles = child.pmuCycles;
        stat.pmuInstructions = child.pmuInstructions;
        stat.pmuLlcMisses = child.pmuLlcMisses;
        stat.pmuBranchMisses = child.pmuBranchMisses;
        out.push_back(std::move(stat));
        flatten(child, path, depth + 1, out);
    }
}

void
zeroTree(detail::PhaseNode &node)
{
    node.calls = 0;
    node.totalCycles = 0;
    node.pmuCalls = 0;
    node.pmuCycles = 0;
    node.pmuInstructions = 0;
    node.pmuLlcMisses = 0;
    node.pmuBranchMisses = 0;
    for (auto &child : node.children)
        zeroTree(*child);
}

} // namespace

const char *
internName(std::string_view name)
{
    static std::mutex mutex;
    // std::set nodes are stable, so the c_str pointers live for
    // the process lifetime.
    static std::set<std::string> names;
    std::lock_guard<std::mutex> lock(mutex);
    return names.emplace(name).first->c_str();
}

void
ScopedPhase::begin(const char *name, bool with_pmu, const char *arg_key,
                   std::string_view arg_value)
{
    modes_ = obs::mask.load(std::memory_order_relaxed) &
             (obs::Prof | obs::Trace);
    name_ = name;
    if ((modes_ & obs::Trace) != 0)
        traceEvent('B', name,
                   arg_key == nullptr
                       ? std::string()
                       : telemetry::traceArg(arg_key,
                                             std::string(arg_value)));
    if ((modes_ & obs::Prof) == 0)
        return;
    pmuActive_ = false;
    state_ = &threadState();
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        detail::PhaseNode *parent = state_->current;
        detail::PhaseNode *child = nullptr;
        for (const auto &candidate : parent->children) {
            if (candidate->name == name ||
                std::strcmp(candidate->name, name) == 0) {
                child = candidate.get();
                break;
            }
        }
        if (child == nullptr) {
            parent->children.push_back(
                std::make_unique<detail::PhaseNode>());
            child = parent->children.back().get();
            child->name = name;
            child->parent = parent;
        }
        state_->current = child;
        node_ = child;
    }
    if (with_pmu) {
        const PmuSample start = pmuRead();
        pmuActive_ = start.valid;
        pmuStartCycles_ = start.cycles;
        pmuStartInstructions_ = start.instructions;
        pmuStartLlcMisses_ = start.llcMisses;
        pmuStartBranchMisses_ = start.branchMisses;
    }
    // Last, so the phase never charges itself for its own setup or
    // for the trace's B event above.
    startCycles_ = readCycles();
}

void
ScopedPhase::end()
{
    if ((modes_ & obs::Prof) != 0) {
        // First, so the phase never charges itself for its own exit
        // or for the trace's E event below.
        const std::uint64_t stop = readCycles();
        PmuSample pmu_stop;
        if (pmuActive_)
            pmu_stop = pmuRead();

        std::lock_guard<std::mutex> lock(state_->mutex);
        node_->calls += 1;
        node_->totalCycles += saturatingDelta(startCycles_, stop);
        if (pmuActive_ && pmu_stop.valid) {
            node_->pmuCalls += 1;
            node_->pmuCycles +=
                saturatingDelta(pmuStartCycles_, pmu_stop.cycles);
            node_->pmuInstructions += saturatingDelta(
                pmuStartInstructions_, pmu_stop.instructions);
            node_->pmuLlcMisses += saturatingDelta(
                pmuStartLlcMisses_, pmu_stop.llcMisses);
            node_->pmuBranchMisses += saturatingDelta(
                pmuStartBranchMisses_, pmu_stop.branchMisses);
        }
        state_->current = node_->parent;
    }
    if ((modes_ & obs::Trace) != 0)
        traceEvent('E', name_);
}

ProfileSnapshot
snapshot()
{
    std::vector<std::shared_ptr<detail::ThreadProf>> states;
    {
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        states = c.states;
    }
    MergeNode merged;
    for (const auto &state : states) {
        std::lock_guard<std::mutex> lock(state->mutex);
        for (const auto &child : state->root.children)
            mergeInto(merged.children[child->name], *child);
    }
    ProfileSnapshot result;
    result.pmuAvailable = pmuAvailable();
    flatten(merged, "", 0, result.phases);
    return result;
}

std::string
profileJson(const std::string &tool, unsigned jobs)
{

    const ProfileSnapshot snap = snapshot();
    const double hz = tscHz();

    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"" << profileSchema << "\",\n";
    out << "  \"tool\": \"" << jsonEscape(tool) << "\",\n";
    out << "  \"jobs\": " << jobs << ",\n";
    out << "  \"host\": {\"cpu_model\": \""
        << jsonEscape(cpuModelName())
        << "\", \"tsc_hz\": " << jsonNumber(hz) << "},\n";
    out << "  \"pmu\": {\"available\": "
        << (snap.pmuAvailable ? "true" : "false")
        << ", \"counters\": [\"cycles\", \"instructions\", "
           "\"llc_misses\", \"branch_misses\"]},\n";
    out << "  \"phases\": [\n";
    for (std::size_t i = 0; i < snap.phases.size(); ++i) {
        const PhaseStat &phase = snap.phases[i];
        out << "    {\"path\": \"" << jsonEscape(phase.path)
            << "\", \"name\": \"" << jsonEscape(phase.name)
            << "\", \"depth\": " << phase.depth
            << ", \"calls\": " << phase.calls
            << ", \"total_cycles\": " << phase.totalCycles
            << ", \"self_cycles\": " << phase.selfCycles
            << ", \"total_seconds\": "
            << jsonNumber(static_cast<double>(phase.totalCycles) /
                          hz)
            << ", \"self_seconds\": "
            << jsonNumber(static_cast<double>(phase.selfCycles) /
                          hz);
        if (phase.pmuCalls > 0) {
            const double instructions =
                static_cast<double>(phase.pmuInstructions);
            const double ipc =
                phase.pmuCycles > 0
                    ? instructions /
                          static_cast<double>(phase.pmuCycles)
                    : 0.0;
            const double per_kilo = instructions > 0
                                        ? 1000.0 / instructions
                                        : 0.0;
            out << ", \"pmu\": {\"calls\": " << phase.pmuCalls
                << ", \"cycles\": " << phase.pmuCycles
                << ", \"instructions\": " << phase.pmuInstructions
                << ", \"llc_misses\": " << phase.pmuLlcMisses
                << ", \"branch_misses\": " << phase.pmuBranchMisses
                << ", \"ipc\": " << jsonNumber(ipc)
                << ", \"llc_misses_per_kilo_instruction\": "
                << jsonNumber(
                       static_cast<double>(phase.pmuLlcMisses) *
                       per_kilo)
                << ", \"branch_misses_per_kilo_instruction\": "
                << jsonNumber(
                       static_cast<double>(phase.pmuBranchMisses) *
                       per_kilo)
                << "}";
        }
        out << "}" << (i + 1 < snap.phases.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

std::string
foldedStacks()
{
    const ProfileSnapshot snap = snapshot();
    std::ostringstream out;
    for (const PhaseStat &phase : snap.phases)
        if (phase.selfCycles > 0)
            out << phase.path << " " << phase.selfCycles << "\n";
    return out.str();
}

std::string
profileBlockJson()
{

    const ProfileSnapshot snap = snapshot();
    if (snap.phases.empty())
        return "";

    std::uint64_t total = 0;
    for (const PhaseStat &phase : snap.phases)
        if (phase.depth == 0)
            total += phase.totalCycles;

    // Top self-cycle phases, path-sorted within equal cycles so
    // the block is deterministic.
    std::vector<const PhaseStat *> top;
    for (const PhaseStat &phase : snap.phases)
        top.push_back(&phase);
    std::sort(top.begin(), top.end(),
              [](const PhaseStat *a, const PhaseStat *b) {
                  if (a->selfCycles != b->selfCycles)
                      return a->selfCycles > b->selfCycles;
                  return a->path < b->path;
              });
    if (top.size() > 5)
        top.resize(5);

    std::ostringstream out;
    out << "{\n";
    out << "    \"schema\": \"" << profileSchema << "\",\n";
    out << "    \"pmu_available\": "
        << (snap.pmuAvailable ? "true" : "false") << ",\n";
    out << "    \"phases\": " << snap.phases.size() << ",\n";
    out << "    \"total_cycles\": " << total << ",\n";
    out << "    \"top_self\": [\n";
    for (std::size_t i = 0; i < top.size(); ++i) {
        out << "      {\"path\": \"" << jsonEscape(top[i]->path)
            << "\", \"self_cycles\": " << top[i]->selfCycles
            << ", \"calls\": " << top[i]->calls << "}"
            << (i + 1 < top.size() ? "," : "") << "\n";
    }
    out << "    ]\n";
    out << "  }";
    return out.str();
}

void
reset()
{
    std::vector<std::shared_ptr<detail::ThreadProf>> states;
    {
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        states = c.states;
    }
    // Zero counters but keep the nodes: live threads hold cursor
    // pointers into their trees, and those must stay valid.
    for (const auto &state : states) {
        std::lock_guard<std::mutex> lock(state->mutex);
        zeroTree(state->root);
    }
}

std::size_t
threadStateCountForTest()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    return c.states.size();
}

} // namespace ramp::prof
