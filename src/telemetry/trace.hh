/**
 * @file
 * Chrome trace-event collection: scoped spans and instant events.
 *
 * Events accumulate in per-thread buffers (one short lock on the
 * owning thread per event, no cross-thread contention on the hot
 * path) registered with a process-wide collector. traceJson()
 * merges every buffer into one Chrome trace-event document that
 * chrome://tracing and Perfetto load directly: B/E duration pairs
 * for spans, "i" events for instants, timestamps in microseconds
 * since the first telemetry use.
 *
 * Spans are scoped objects, so B/E pairs are well-nested per thread
 * by construction. All emission is gated on the obs::Telemetry
 * bit: while it is off nothing records and a site pays one branch.
 */

#ifndef RAMP_TELEMETRY_TRACE_HH
#define RAMP_TELEMETRY_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ramp::telemetry
{

/** One Chrome trace event ("B", "E", "i", or "C"). */
struct TraceEvent
{
    std::string name;

    /** Category string shown in the viewer's filter UI. */
    std::string cat;

    /** Chrome phase: 'B' begin, 'E' end, 'i' instant, 'C' counter. */
    char phase = 'i';

    /** Microseconds since the process's telemetry epoch. */
    std::int64_t tsMicros = 0;

    /** Small stable id of the emitting thread. */
    std::uint32_t tid = 0;

    /**
     * Pre-rendered JSON object for the "args" field ("" = none).
     * Use traceArg() to build escaped single-entry objects.
     */
    std::string argsJson;
};

/** Microseconds since the telemetry epoch (steady clock). */
std::int64_t nowMicros();

/** Render one {"key": "value"} args object with escaping. */
std::string traceArg(const std::string &key,
                     const std::string &value);

/** Render one {"key": number} args object (null when non-finite). */
std::string traceArgNumber(const std::string &key, double value);

/** Append an event to the calling thread's buffer (when enabled). */
void emitEvent(TraceEvent event);

/** Emit an instant event (thread scope) when enabled. */
void instant(const std::string &name, const std::string &cat,
             const std::string &args_json = "");

/**
 * Emit a Chrome counter event ('C' phase) when enabled: the viewer
 * plots the named series as a value-over-time track. The resource
 * sampler emits one per sample (RSS over time).
 */
void counterEvent(const std::string &name, const std::string &cat,
                  const std::string &series, double value);

/**
 * RAII span: emits a B event at construction and the matching E at
 * destruction. When telemetry is disabled at construction the span
 * is inert (and stays inert even if telemetry is enabled before it
 * closes, so pairs never go unmatched).
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *cat,
               std::string args_json = "");
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool active_;
    const char *name_;
    const char *cat_;
};

/** Every event collected so far, across all thread buffers. */
std::vector<TraceEvent> collectEvents();

/**
 * The merged Chrome trace-event JSON document
 * ({"traceEvents": [...]}) of everything collected so far.
 */
std::string traceJson();

/** Drop every collected event (tests, campaign boundaries). */
void clearEvents();

} // namespace ramp::telemetry

#endif // RAMP_TELEMETRY_TRACE_HH
