#include "perf/resource.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include <sys/resource.h>

#include "telemetry/telemetry.hh"

namespace ramp::perf
{

namespace
{

/**
 * Parse one "VmRSS:   12345 kB" style line of /proc/self/status.
 * Returns 0 when the key is absent (non-Linux hosts).
 */
std::uint64_t
procStatusKb(const char *key)
{
    std::FILE *file = std::fopen("/proc/self/status", "r");
    if (file == nullptr)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    const std::size_t key_len = std::strlen(key);
    while (std::fgets(line, sizeof(line), file) != nullptr) {
        if (std::strncmp(line, key, key_len) != 0 ||
            line[key_len] != ':')
            continue;
        unsigned long long value = 0;
        if (std::sscanf(line + key_len + 1, "%llu", &value) == 1)
            kb = value;
        break;
    }
    std::fclose(file);
    return kb;
}

double
timevalSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

ResourceUsage
readResourceUsage()
{
    ResourceUsage usage;
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
        usage.userCpuSeconds = timevalSeconds(ru.ru_utime);
        usage.sysCpuSeconds = timevalSeconds(ru.ru_stime);
        usage.majorFaults = static_cast<std::uint64_t>(ru.ru_majflt);
        usage.minorFaults = static_cast<std::uint64_t>(ru.ru_minflt);
        // ru_maxrss is kilobytes on Linux; the /proc VmHWM reading
        // below overrides it when available (same unit, finer
        // update cadence on some kernels).
        usage.peakRssBytes =
            static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
    }
    if (const std::uint64_t rss_kb = procStatusKb("VmRSS"))
        usage.rssBytes = rss_kb * 1024;
    if (const std::uint64_t hwm_kb = procStatusKb("VmHWM"))
        usage.peakRssBytes = hwm_kb * 1024;
    if (usage.rssBytes == 0)
        usage.rssBytes = usage.peakRssBytes;
    return usage;
}

ResourceSampler::ResourceSampler(std::chrono::milliseconds period)
    : period_(period), thread_([this] { loop(); })
{
}

ResourceSampler::~ResourceSampler()
{
    stop();
}

void
ResourceSampler::sampleOnce()
{
    const ResourceUsage usage = readResourceUsage();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++summary_.samples;
        summary_.peakRssBytes =
            std::max(summary_.peakRssBytes, usage.peakRssBytes);
        summary_.rssSeries.add(
            static_cast<double>(usage.rssBytes));
        summary_.userCpuSeconds = usage.userCpuSeconds;
        summary_.sysCpuSeconds = usage.sysCpuSeconds;
        summary_.majorFaults = usage.majorFaults;
        summary_.minorFaults = usage.minorFaults;
    }
    RAMP_OBS(Telemetry, {
        auto &registry = telemetry::metrics();
        registry.gauge("proc.rss_bytes")
            .set(static_cast<double>(usage.rssBytes));
        registry.gauge("proc.peak_rss_bytes")
            .set(static_cast<double>(usage.peakRssBytes));
        registry.gauge("proc.cpu_user_seconds")
            .set(usage.userCpuSeconds);
        registry.gauge("proc.cpu_sys_seconds")
            .set(usage.sysCpuSeconds);
        telemetry::counterEvent(
            "proc.rss", "resource", "mb",
            static_cast<double>(usage.rssBytes) / (1024.0 * 1024.0));
    });
}

void
ResourceSampler::loop()
{
    sampleOnce(); // A first reading even for sub-period campaigns.
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        wake_.wait_for(lock, period_, [this] { return stop_; });
        if (stop_)
            break;
        lock.unlock();
        sampleOnce();
        lock.lock();
    }
}

void
ResourceSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_)
            return;
        stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
    sampleOnce(); // Final reading: the summary covers the full run.
}

ResourceSummary
ResourceSampler::summary() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return summary_;
}

} // namespace ramp::perf
