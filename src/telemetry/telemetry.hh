/**
 * @file
 * Telemetry subsystem front door: the metrics registry, the trace
 * sink, and log capture.
 *
 * Metric sites gate on the obs::Telemetry bit of the observability
 * mask (common/obs.hh) through RAMP_OBS(Telemetry, ...), so a site
 * costs one relaxed atomic load and branch while telemetry is off.
 * Trace events gate on the separate obs::Trace bit (trace.hh); their
 * B/E pairs come from prof::ScopedPhase.
 *
 * Everything is process-global and thread-safe: metrics() is the
 * shared registry (registry.hh), trace events land in per-thread
 * buffers (trace.hh), and captureLogEvents() tees warn()/inform()
 * lines into the trace as instant events without touching their
 * stderr output.
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

#endif // RAMP_TELEMETRY_TELEMETRY_HH
