/**
 * @file
 * Telemetry subsystem front door: the span macro and log capture.
 *
 * Instrumentation sites gate on the obs::Telemetry bit of the
 * observability mask (common/obs.hh), through RAMP_OBS(Telemetry,
 * ...) or RAMP_TELEM_SPAN, so a site costs one relaxed atomic load
 * and branch while telemetry is off.
 *
 * Everything is process-global and thread-safe: metrics() is the
 * shared registry (registry.hh), spans and instants land in
 * per-thread buffers (trace.hh), and captureLogEvents() tees
 * warn()/inform() lines into the trace as instant events without
 * touching their stderr output.
 */

#ifndef RAMP_TELEMETRY_TELEMETRY_HH
#define RAMP_TELEMETRY_TELEMETRY_HH

#include "common/obs.hh"
#include "telemetry/histogram.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"

namespace ramp::telemetry
{

/**
 * Tee warn()/inform() lines into the trace buffer as instant
 * events (category "log") on top of the current log sink.
 * Idempotent; stderr output is unchanged.
 */
void captureLogEvents();

/** Reset every metric value and drop all trace events (tests). */
void resetAll();

} // namespace ramp::telemetry

/**
 * Scoped trace span covering the rest of the enclosing block:
 * RAMP_TELEM_SPAN(span, "hma.run", "sim"); the named variable can
 * be ignored or used to keep the span alive explicitly. Inert (one
 * branch) while telemetry is disabled.
 */
#define RAMP_TELEM_SPAN(var, ...) \
    ::ramp::telemetry::ScopedSpan var(__VA_ARGS__)

#endif // RAMP_TELEMETRY_TELEMETRY_HH
