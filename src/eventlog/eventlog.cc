#include "eventlog/eventlog.hh"

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/json.hh"
#include "common/parse.hh"

namespace ramp::eventlog
{

namespace
{

/**
 * Process-wide ledger: drained ring batches in arrival order plus
 * the run-label table. Run ids are assigned in registration order,
 * which depends on pool scheduling — that is fine because the JSONL
 * writer denormalizes the *label* into every line and analyzers
 * order by (label, seq), never by id or file position.
 */
struct Store
{
    std::mutex mutex;
    std::vector<EventRecord> records;
    std::vector<std::string> runLabels{"unattributed"};
    std::unordered_map<std::string, std::uint32_t> runIds;

    /** Records accepted (admission ticket; includes ring-pending). */
    std::atomic<std::uint64_t> recorded{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> capacity{0}; ///< 0 = unlimited

    /** Sequence source for records emitted outside any RunScope. */
    std::atomic<std::uint32_t> unscopedSeq{0};
};

Store &
store()
{
    static Store instance;
    return instance;
}

/** Ring buffer of one thread; appended only by its owner. */
struct ThreadRing
{
    std::mutex mutex; ///< Owner appends, collect()/reset() drain.
    std::vector<EventRecord> records;
};

struct Registry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadRing>> rings;
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

/** The calling thread's ring, registered on first use. */
ThreadRing &
threadRing()
{
    thread_local std::shared_ptr<ThreadRing> ring = [] {
        auto fresh = std::make_shared<ThreadRing>();
        fresh->records.reserve(ringCapacity);
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.rings.push_back(fresh);
        return fresh;
    }();
    return *ring;
}

/** Move a full (or draining) ring's batch into the central store. */
void
drainRing(ThreadRing &ring)
{
    std::vector<EventRecord> batch;
    {
        std::lock_guard<std::mutex> lock(ring.mutex);
        if (ring.records.empty())
            return;
        batch.swap(ring.records);
        ring.records.reserve(ringCapacity);
    }
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.records.insert(s.records.end(), batch.begin(), batch.end());
}

/** Innermost RunScope context of the calling thread. */
thread_local detail::RunContext *currentContext = nullptr;

/** Innermost TenantScope tenant of the calling thread (0 = none). */
thread_local std::uint32_t currentTenant = 0;

/** Score value as JSON: null when unmeasured, else shortest-ish. */
std::string
number(float value)
{
    return std::isfinite(value) ? formatNumber(value) : "null";
}

/** FaultMode spellings (reliability/fault.hh order). */
const char *
faultDetailName(std::uint8_t detail)
{
    static const char *const names[] = {"bit",  "word", "column",
                                        "row",  "bank", "rank"};
    if (detail < sizeof(names) / sizeof(names[0]))
        return names[detail];
    return "?";
}

/** Injected-fault kind spellings (faults/plan.hh order). */
const char *
injectKindName(std::uint8_t detail)
{
    static const char *const names[] = {"correctable",
                                        "uncorrected", "capacity"};
    if (detail < sizeof(names) / sizeof(names[0]))
        return names[detail];
    return "?";
}

/** Injected-fault source spellings (faults/injector.hh order). */
const char *
injectSourceName(std::uint32_t source)
{
    static const char *const names[] = {"script", "poisson",
                                        "hammer"};
    if (source < sizeof(names) / sizeof(names[0]))
        return names[source];
    return "?";
}

/** Why a Remap record moved its page. */
const char *
remapReasonName(std::uint8_t detail)
{
    static const char *const names[] = {"retire", "sweep", "retry"};
    if (detail < sizeof(names) / sizeof(names[0]))
        return names[detail];
    return "?";
}

/** Why a Degrade record fired. */
const char *
degradeReasonName(std::uint8_t detail)
{
    static const char *const names[] = {"capacity-backlog",
                                        "remap-failed"};
    if (detail < sizeof(names) / sizeof(names[0]))
        return names[detail];
    return "?";
}

/** Alert severity spellings (health/rules.hh order). */
const char *
alertSeverityName(std::uint8_t detail)
{
    static const char *const names[] = {"warn", "alert"};
    if (detail < sizeof(names) / sizeof(names[0]))
        return names[detail];
    return "?";
}

/** Alert signal spellings (health/rules.hh order). */
const char *
alertSignalName(std::uint32_t signal)
{
    static const char *const names[] = {
        "p99_slowdown", "fairness",  "fault_backlog",
        "churn",        "degraded",  "slowdown",
        "hbm_share",    "shard_occupancy", "shard_degraded"};
    if (signal < sizeof(names) / sizeof(names[0]))
        return names[signal];
    return "?";
}

std::string
headerJson(const std::string &tool, std::uint64_t records,
           std::uint64_t dropped)
{
    std::ostringstream out;
    out << "{\"schema\": \"" << eventsSchema << "\", \"tool\": \""
        << jsonEscape(tool) << "\", \"records\": " << records
        << ", \"dropped\": " << dropped << "}";
    return out.str();
}

std::string
renderJsonl(const std::string &tool,
            const std::vector<EventRecord> &records,
            std::uint64_t dropped)
{
    std::ostringstream out;
    out << headerJson(tool, records.size(), dropped) << "\n";
    for (const EventRecord &record : records)
        out << recordJson(record) << "\n";
    return out.str();
}

} // namespace

LogStats
stats()
{
    Store &s = store();
    LogStats out;
    out.recorded = s.recorded.load(std::memory_order_relaxed);
    out.dropped = s.dropped.load(std::memory_order_relaxed);
    return out;
}

void
setCapacity(std::uint64_t max_records)
{
    store().capacity.store(max_records, std::memory_order_relaxed);
}

RunScope::RunScope(const std::string &label)
    : active_(obs::on(obs::Events))
{
    if (!active_)
        return;
    Store &s = store();
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        auto [it, inserted] = s.runIds.try_emplace(
            label,
            static_cast<std::uint32_t>(s.runLabels.size()));
        if (inserted)
            s.runLabels.push_back(label);
        context_.run = it->second;
    }
    previous_ = currentContext;
    currentContext = &context_;
}

RunScope::~RunScope()
{
    if (!active_)
        return;
    currentContext = previous_;
}

TenantScope::TenantScope(std::uint32_t tenant)
    : previous_(currentTenant)
{
    currentTenant = tenant;
}

TenantScope::~TenantScope()
{
    currentTenant = previous_;
}

void
emit(EventRecord record)
{
    if (!obs::on(obs::Events))
        return;
    Store &s = store();
    const std::uint64_t cap =
        s.capacity.load(std::memory_order_relaxed);
    if (cap != 0) {
        // Admission ticket: accepted records keep their slot even
        // if they are still sitting in a ring; late arrivals are
        // dropped-newest and counted for the JSONL header.
        std::uint64_t seen =
            s.recorded.load(std::memory_order_relaxed);
        while (true) {
            if (seen >= cap) {
                s.dropped.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            if (s.recorded.compare_exchange_weak(
                    seen, seen + 1, std::memory_order_relaxed))
                break;
        }
    } else {
        s.recorded.fetch_add(1, std::memory_order_relaxed);
    }

    record.tenant = currentTenant;
    detail::RunContext *context = currentContext;
    if (context != nullptr) {
        record.run = context->run;
        record.seq = context->seq++;
    } else {
        record.run = 0;
        record.seq =
            s.unscopedSeq.fetch_add(1, std::memory_order_relaxed);
    }

    ThreadRing &ring = threadRing();
    bool full = false;
    {
        std::lock_guard<std::mutex> lock(ring.mutex);
        ring.records.push_back(record);
        full = ring.records.size() >= ringCapacity;
    }
    if (full)
        drainRing(ring);
}

std::string
currentRunLabel()
{
    detail::RunContext *context = currentContext;
    return runLabel(context != nullptr ? context->run : 0);
}

std::string
runLabel(std::uint32_t run)
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (run < s.runLabels.size())
        return s.runLabels[run];
    return s.runLabels[0];
}

std::vector<EventRecord>
collect()
{
    std::vector<std::shared_ptr<ThreadRing>> rings;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        rings = r.rings;
    }
    for (const auto &ring : rings)
        drainRing(*ring);
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.records;
}

std::string
recordJson(const EventRecord &record)
{
    std::ostringstream out;
    out << "{\"run\": \"" << jsonEscape(runLabel(record.run))
        << "\", \"seq\": " << record.seq << ", \"kind\": \""
        << eventKindName(record.kind) << "\", \"policy\": \""
        << policyIdName(record.policy)
        << "\", \"epoch\": " << record.epoch;
    // v2 addition; omitted when 0 so v1-era output is unchanged.
    if (record.tenant != 0)
        out << ", \"tenant\": " << record.tenant;
    switch (record.kind) {
      case EventKind::Epoch:
        // Score fields carry the boundary's move counts.
        out << ", \"promoted\": " << number(record.hotness)
            << ", \"evicted\": " << number(record.wrRatio)
            << ", \"swapped\": " << number(record.avf)
            << ", \"moved\": "
            << number(record.hotness + record.wrRatio +
                      2.0F * record.avf);
        break;
      case EventKind::Fault:
        out << ", \"page\": " << record.page << ", \"tier\": \""
            << tierName(record.dst) << "\", \"mode\": \""
            << faultDetailName(record.detail) << "\"";
        break;
      case EventKind::Region:
        out << ", \"region\": " << record.region
            << ", \"page\": " << record.page
            << ", \"span\": " << record.span
            << ", \"moved\": " << record.moved
            << ", \"action\": \""
            << regionActionName(record.detail) << "\", \"src\": \""
            << tierName(record.src) << "\", \"dst\": \""
            << tierName(record.dst)
            << "\", \"density\": " << number(record.hotness)
            << ", \"avf\": " << number(record.avf)
            << ", \"thresh_hot\": " << number(record.threshHot)
            << ", \"thresh_risk\": " << number(record.threshRisk);
        break;
      case EventKind::RegionMerge:
      case EventKind::RegionSplit:
        out << ", \"region\": " << record.region
            << ", \"page\": " << record.page
            << ", \"span\": " << record.span
            << ", \"partner\": " << record.partner
            << ", \"density\": " << number(record.hotness)
            << ", \"avf\": " << number(record.avf);
        break;
      case EventKind::Inject:
        // `detail` is the injected FaultEventKind, `region` the
        // FaultSource, `span` the capacity pages lost (0 for page
        // strikes), `moved` the correctable burst count.
        out << ", \"page\": " << record.page << ", \"tier\": \""
            << tierName(record.dst) << "\", \"fault\": \""
            << injectKindName(record.detail) << "\", \"source\": \""
            << injectSourceName(record.region)
            << "\", \"span\": " << record.span
            << ", \"count\": " << record.moved;
        break;
      case EventKind::Retire:
        out << ", \"page\": " << record.page << ", \"src\": \""
            << tierName(record.src) << "\", \"dst\": \""
            << tierName(record.dst)
            << "\", \"hotness\": " << number(record.hotness)
            << ", \"avf\": " << number(record.avf);
        break;
      case EventKind::Remap:
        out << ", \"page\": " << record.page << ", \"src\": \""
            << tierName(record.src) << "\", \"dst\": \""
            << tierName(record.dst) << "\", \"reason\": \""
            << remapReasonName(record.detail) << "\"";
        break;
      case EventKind::Tenant:
        // Per-tenant epoch summary from the placement service:
        // `region` = home shard, `span` = arbiter grant pages,
        // `moved` = HBM-resident pages, `hotness` = resident share.
        out << ", \"shard\": " << record.region
            << ", \"grant\": " << record.span
            << ", \"resident\": " << record.moved
            << ", \"hbm_share\": " << number(record.hotness)
            << ", \"avf\": " << number(record.avf);
        break;
      case EventKind::Alert:
        // `span` = rule index, `region` = signal index, `detail` =
        // severity, `moved` = shard index + 1 (0 = run-wide),
        // `hotness` = measured value, `threshHot` = threshold.
        out << ", \"severity\": \""
            << alertSeverityName(record.detail)
            << "\", \"rule\": " << record.span
            << ", \"signal\": \"" << alertSignalName(record.region)
            << "\"";
        if (record.moved != 0)
            out << ", \"shard\": " << record.moved - 1;
        out << ", \"value\": " << number(record.hotness)
            << ", \"threshold\": " << number(record.threshHot);
        break;
      case EventKind::Degrade:
        // `span` = capacity pages lost so far, `moved` = pages
        // evacuated by sweeps, `hotness` = remaining backlog.
        out << ", \"reason\": \""
            << degradeReasonName(record.detail)
            << "\", \"span\": " << record.span
            << ", \"moved\": " << record.moved
            << ", \"backlog\": " << number(record.hotness);
        break;
      default:
        out << ", \"page\": " << record.page;
        if (record.partner != invalidPage)
            out << ", \"partner\": " << record.partner;
        out << ", \"src\": \"" << tierName(record.src)
            << "\", \"dst\": \"" << tierName(record.dst)
            << "\", \"quadrant\": \""
            << quadrantName(record.quadrant)
            << "\", \"hotness\": " << number(record.hotness)
            << ", \"wr_ratio\": " << number(record.wrRatio)
            << ", \"avf\": " << number(record.avf)
            << ", \"thresh_hot\": " << number(record.threshHot)
            << ", \"thresh_risk\": " << number(record.threshRisk);
        break;
    }
    out << "}";
    return out.str();
}

std::string
toJsonl(const std::string &tool)
{
    const auto records = collect();
    return renderJsonl(tool, records,
                       stats().dropped);
}

std::string
postMortemJsonl(const std::string &tool, std::size_t n)
{
    std::vector<EventRecord> records = collect();
    if (records.size() > n)
        records.erase(records.begin(),
                      records.end() - static_cast<long>(n));
    return renderJsonl(tool, records, stats().dropped);
}

void
reset()
{
    std::vector<std::shared_ptr<ThreadRing>> rings;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        rings = r.rings;
    }
    for (const auto &ring : rings) {
        std::lock_guard<std::mutex> lock(ring->mutex);
        ring->records.clear();
    }
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.records.clear();
    s.runLabels.assign(1, "unattributed");
    s.runIds.clear();
    s.recorded.store(0, std::memory_order_relaxed);
    s.dropped.store(0, std::memory_order_relaxed);
    s.unscopedSeq.store(0, std::memory_order_relaxed);
    s.capacity.store(0, std::memory_order_relaxed);
}

} // namespace ramp::eventlog
