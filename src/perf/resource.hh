/**
 * @file
 * Process resource accounting: one-shot readings and a background
 * sampler.
 *
 * readResourceUsage() combines getrusage(RUSAGE_SELF) with
 * /proc/self/status (VmRSS/VmHWM), so it reports both the CPU split
 * and the live/peak resident set. ResourceSampler runs a background
 * thread that takes a reading every period, publishes it as
 * telemetry gauges (proc.rss_bytes, proc.peak_rss_bytes,
 * proc.cpu_user_seconds, proc.cpu_sys_seconds), records a Chrome
 * counter event while tracing (an RSS-over-time track in the trace
 * viewer), and folds the RSS series into a RunningStat for the
 * BENCH report. stop() is idempotent and joins the thread promptly
 * (condition-variable sleep, not a busy wait), so a SIGINT-cancelled
 * campaign still winds the sampler down cleanly before the harness
 * flushes its BENCH file.
 */

#ifndef RAMP_PERF_RESOURCE_HH
#define RAMP_PERF_RESOURCE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/stats.hh"

namespace ramp::perf
{

/** One point-in-time reading of the process's resource usage. */
struct ResourceUsage
{
    /** Live resident set in bytes (0 when /proc is unavailable). */
    std::uint64_t rssBytes = 0;

    /** Peak resident set in bytes (VmHWM, ru_maxrss fallback). */
    std::uint64_t peakRssBytes = 0;

    /** User-mode CPU time consumed so far, in seconds. */
    double userCpuSeconds = 0;

    /** Kernel-mode CPU time consumed so far, in seconds. */
    double sysCpuSeconds = 0;

    /** Major page faults (required I/O) so far. */
    std::uint64_t majorFaults = 0;

    /** Minor page faults (no I/O) so far. */
    std::uint64_t minorFaults = 0;
};

/** Read the calling process's usage (getrusage + /proc). */
ResourceUsage readResourceUsage();

/** What a sampling window observed, for the BENCH report. */
struct ResourceSummary
{
    /** Readings taken (>= 1 once the sampler stopped). */
    std::size_t samples = 0;

    /** Largest peak-RSS reading seen, in bytes. */
    std::uint64_t peakRssBytes = 0;

    /** Mean/min/max of the live-RSS series, in bytes. */
    RunningStat rssSeries;

    /** CPU split of the final reading. */
    double userCpuSeconds = 0;
    double sysCpuSeconds = 0;
    std::uint64_t majorFaults = 0;
    std::uint64_t minorFaults = 0;
};

/** Background thread sampling the process at a fixed period. */
class ResourceSampler
{
  public:
    /** Start sampling immediately. @param period time between reads. */
    explicit ResourceSampler(std::chrono::milliseconds period =
                                 std::chrono::milliseconds(50));

    /** Stops and joins (idempotent). */
    ~ResourceSampler();

    ResourceSampler(const ResourceSampler &) = delete;
    ResourceSampler &operator=(const ResourceSampler &) = delete;

    /**
     * Stop the sampling thread and join it. Takes one final reading
     * so the summary is never empty, even when the campaign ended
     * inside the first period. Idempotent; safe after SIGINT.
     */
    void stop();

    /** The window observed so far (final once stop() returned). */
    ResourceSummary summary() const;

  private:
    void loop();

    /** Take one reading and fold it into the summary. */
    void sampleOnce();

    std::chrono::milliseconds period_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    ResourceSummary summary_;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace ramp::perf

#endif // RAMP_PERF_RESOURCE_HH
