/**
 * @file
 * Chrome trace-event collection: the sink behind --trace-out.
 *
 * Events accumulate in per-thread buffers (one short lock on the
 * owning thread per event, no cross-thread contention on the hot
 * path) registered with a process-wide collector. traceJson()
 * merges every buffer into one Chrome trace-event document that
 * chrome://tracing and Perfetto load directly: B/E duration pairs
 * for phase scopes, "i" events for instants, "C" events for
 * counters, timestamps in microseconds since the first trace use.
 *
 * The B/E pairs come from prof::ScopedPhase (prof/prof.hh), the
 * one scope type, so they are well-nested per thread by
 * construction. Recording is gated on the obs::Trace bit, which
 * only --trace-out sets: while it is off nothing is buffered and a
 * site pays one branch.
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

    /** Microseconds since the process's trace epoch. */
    std::int64_t tsMicros = 0;

    /** Small stable id of the emitting thread. */
    std::uint32_t tid = 0;

    /**
     * Pre-rendered JSON object for the "args" field ("" = none).
     * Use traceArg() to build escaped single-entry objects.
     */
    std::string argsJson;
};

/** Microseconds since the trace epoch (steady clock). */
std::int64_t nowMicros();

/** Render one {"key": "value"} args object with escaping. */
std::string traceArg(const std::string &key,
                     const std::string &value);

/** Render one {"key": number} args object (null when non-finite). */
std::string traceArgNumber(const std::string &key, double value);

/**
 * Append an event to the calling thread's buffer. Unconditional:
 * producers test obs::Trace first. instant() and counterEvent() do;
 * a phase scope samples the bit at entry and always closes the B it
 * opened.
 */
void emitEvent(TraceEvent event);

/** Emit an instant event (thread scope) while obs::Trace is on. */
void instant(const std::string &name, const std::string &cat,
             const std::string &args_json = "");

/**
 * Emit a Chrome counter event ('C' phase) while obs::Trace is on:
 * the viewer
 * plots the named series as a value-over-time track. The resource
 * sampler emits one per sample (RSS over time).
 */
void counterEvent(const std::string &name, const std::string &cat,
                  const std::string &series, double value);

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
