/**
 * @file
 * Decision ledger: the event-log subsystem front door.
 *
 * Every placement and migration decision (and every attributed
 * fault landing) can be recorded as a compact EventRecord
 * (record.hh). Instrumentation sites gate on the obs::Events bit
 * (common/obs.hh) through RAMP_OBS(Events, ...): while the ledger
 * is off a site costs one relaxed atomic load and branch.
 *
 * Records land in per-thread ring buffers (one short uncontended
 * lock per record on the owning thread). A full ring drains into
 * the process-wide store in one batch, so the central mutex is
 * touched once per `ringCapacity` records, not once per record.
 * Within one thread — and therefore within one RunScope, since a
 * run never migrates threads — drain order preserves emission
 * order, and each record carries a per-run sequence number, so a
 * run's stream can always be totally ordered regardless of how
 * passes were scheduled across the pool.
 *
 * RunScope attributes records to a labelled run (one simulation
 * pass, one FaultSim shard). Scopes nest per thread; emit() stamps
 * the innermost scope's run id and next sequence number. Records
 * emitted outside any scope belong to the reserved "unattributed"
 * run 0.
 *
 * Draining: toJsonl() renders everything collected so far as a
 * self-describing JSONL document (a header line, then one record
 * per line grouped by run label in emission (seq) order, so the
 * file is the same at any --jobs — see DESIGN.md §10 for the
 * schema);
 * postMortemJsonl() renders only the trailing `n` records in drain
 * order (the most recent ones), which
 * the harness writes on SIGINT/SIGTERM so an interrupted campaign
 * leaves its final decisions behind for inspection.
 */

#ifndef RAMP_EVENTLOG_EVENTLOG_HH
#define RAMP_EVENTLOG_EVENTLOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/obs.hh"
#include "eventlog/record.hh"

namespace ramp::eventlog
{

/** Records one full per-thread ring holds before draining. */
inline constexpr std::size_t ringCapacity = 4096;

/** Ledger volume counters. */
struct LogStats
{
    /** Records accepted into the ledger. */
    std::uint64_t recorded = 0;

    /** Records dropped at the capacity limit. */
    std::uint64_t dropped = 0;
};

LogStats stats();

namespace detail
{

/** Per-thread run attribution state (RunScope implementation). */
struct RunContext
{
    std::uint32_t run = 0;
    std::uint32_t seq = 0;
};

} // namespace detail

/**
 * Cap the ledger at `max_records` (0 = unlimited, the default).
 * Past the cap new records are dropped and counted, never silently:
 * the JSONL header reports the drop count. The harness sets it from
 * RAMP_EVENTS_LIMIT.
 */
void setCapacity(std::uint64_t max_records);

/**
 * Attribute this thread's records to a labelled run until the scope
 * closes. Labels should be unique and deterministic per run (the
 * harness uses "<workload>/<pass label>", FaultSim uses
 * "<config>/shard<index>") — analyzers order runs by label, which
 * keeps timelines independent of pool scheduling. A label opened
 * again by a later scope continues its seq where the last one closed,
 * so (label, seq) is a key; scopes under one label must not overlap.
 * Scopes nest; the innermost wins. Inert (and free) when recording
 * is disabled at construction, mirroring prof::ScopedPhase.
 */
class RunScope
{
  public:
    explicit RunScope(const std::string &label);
    ~RunScope();

    RunScope(const RunScope &) = delete;
    RunScope &operator=(const RunScope &) = delete;

  private:
    bool active_;
    detail::RunContext context_;
    detail::RunContext *previous_ = nullptr;
};

/**
 * Attribute this thread's records to a tenant until the scope
 * closes (the multi-tenant placement service wraps each tenant's
 * work in one). Scopes nest; the innermost wins; records emitted
 * outside any scope carry tenant 0 and render exactly as before,
 * so single-tenant tools never see the field.
 */
class TenantScope
{
  public:
    explicit TenantScope(std::uint32_t tenant);
    ~TenantScope();

    TenantScope(const TenantScope &) = delete;
    TenantScope &operator=(const TenantScope &) = delete;

  private:
    std::uint32_t previous_;
};

/**
 * Record one event (when enabled): stamps the calling thread's run
 * scope and sequence number, then appends to the thread's ring.
 */
void emit(EventRecord record);

/** The label of a run id ("unattributed" for 0 / unknown ids). */
std::string runLabel(std::uint32_t run);

/**
 * The label of the calling thread's innermost RunScope
 * ("unattributed" outside any scope). The health timeline stamps
 * its samples with this, keying them to the same run streams as the
 * ledger.
 */
std::string currentRunLabel();

/** Every record collected so far, in drain order (tests). */
std::vector<EventRecord> collect();

/** One record rendered as a single JSONL line (no newline). */
std::string recordJson(const EventRecord &record);

/**
 * The full ledger as a JSONL document: one header object line
 * ({"schema": "ramp-events-v1", "tool": ..., "records": N,
 * "dropped": D}) followed by one record object per line, sorted by
 * run label and in emission order within a label.
 */
std::string toJsonl(const std::string &tool);

/** The trailing `n` records as a JSONL document (post-mortem). */
std::string postMortemJsonl(const std::string &tool, std::size_t n);

/**
 * Schema identifier stamped into (and checked in) the header. v2
 * adds the optional per-record `tenant` key (absent when 0); every
 * v1 key is unchanged, so v1 readers that ignore unknown keys parse
 * v2 documents unmodified.
 */
inline constexpr const char *eventsSchema = "ramp-events-v2";

/** Drop all records, run labels, stats, and the cap (tests). */
void reset();

} // namespace ramp::eventlog

#endif // RAMP_EVENTLOG_EVENTLOG_HH
