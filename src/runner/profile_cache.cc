#include "runner/profile_cache.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "runner/checkpoint.hh"
#include "runner/codec.hh"
#include "telemetry/telemetry.hh"

namespace ramp::runner
{

namespace
{

/** Mirror of ProfileCacheStats in the telemetry registry. */
struct CacheTelemetry
{
    telemetry::Counter &memoryHits =
        telemetry::metrics().counter("profile_cache.memory_hits");
    telemetry::Counter &diskHits =
        telemetry::metrics().counter("profile_cache.disk_hits");
    telemetry::Counter &misses =
        telemetry::metrics().counter("profile_cache.misses");
    telemetry::Counter &diskWrites =
        telemetry::metrics().counter("profile_cache.disk_writes");
    telemetry::Counter &quarantined =
        telemetry::metrics().counter("profile_cache.quarantined");
};

CacheTelemetry &
cacheTelemetry()
{
    static CacheTelemetry telemetry;
    return telemetry;
}

// Version 2 appends a trailing FNV-1a checksum of the payload.
constexpr char diskMagic[8] = {'R', 'A', 'M', 'P',
                               'P', 'R', 'F', '2'};

/** Exact textual form of a double (round-trips via hexfloat). */
std::string
exact(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    return buffer;
}

void
appendDramConfig(std::ostringstream &out, const DramConfig &config)
{
    out << config.name << ',' << static_cast<int>(config.id) << ','
        << config.capacityBytes << ',' << config.channels << ','
        << config.ranksPerChannel << ',' << config.banksPerRank
        << ',' << config.rowBytes << ',' << config.timing.tRCD
        << ',' << config.timing.tRP << ',' << config.timing.tCL
        << ',' << config.timing.tCWL << ',' << config.timing.tRAS
        << ',' << config.timing.tBURST;
}

} // namespace

void
ProfileCache::setDiskDir(std::string dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    disk_dir_ = std::move(dir);
}

std::string
ProfileCache::fingerprint(const SystemConfig &config,
                          const WorkloadSpec &spec,
                          const GeneratorOptions &options)
{
    std::ostringstream out;
    out << "spec=" << spec.name << ";benchmarks=";
    for (const auto &bench : spec.coreBenchmarks)
        out << bench << ',';
    out << ";gen=" << options.seed << ','
        << exact(options.traceScale) << ',' << options.cpuLevel
        << ',' << options.hitBurst;
    out << ";cpu=" << config.cores << ',' << config.issueWidth
        << ',' << config.robSize << ','
        << config.maxOutstandingReads;
    out << ";hbm=";
    appendDramConfig(out, config.hbm);
    out << ";ddr=";
    appendDramConfig(out, config.ddr);
    out << ";ser=" << exact(config.ser.fitUncHbmPerGB) << ','
        << exact(config.ser.fitUncDdrPerGB);
    return out.str();
}

std::vector<std::uint8_t>
ProfileCache::serializeBaseline(const std::string &fingerprint,
                                const SimResult &base)
{
    codec::Writer out;
    out.bytes.assign(diskMagic, diskMagic + sizeof(diskMagic));
    out.str(fingerprint);
    out.result(base);

    // Per-page profile, sorted for a canonical byte stream.
    auto pages = base.profile.entries();
    std::sort(pages.begin(), pages.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    out.u64(pages.size());
    for (const auto &[page, stats] : pages) {
        out.u64(page);
        out.u64(stats.reads);
        out.u64(stats.writes);
        out.f64(stats.avf);
    }

    // Trailing checksum over everything before it; a torn or
    // bit-flipped file fails verification instead of being loaded.
    const std::uint64_t crc = fnv1a64(std::string_view(
        reinterpret_cast<const char *>(out.bytes.data()),
        out.bytes.size()));
    out.u64(crc);
    return std::move(out.bytes);
}

bool
ProfileCache::deserializeBaseline(
    const std::vector<std::uint8_t> &bytes,
    const std::string &fingerprint, SimResult &base)
{
    if (bytes.size() < sizeof(diskMagic) + 8 ||
        std::memcmp(bytes.data(), diskMagic, sizeof(diskMagic)) != 0)
        return false;

    const std::size_t payload = bytes.size() - 8;
    codec::Reader crc_in{bytes, payload};
    if (crc_in.u64() !=
        fnv1a64(std::string_view(
            reinterpret_cast<const char *>(bytes.data()), payload)))
        return false;

    codec::Reader in{bytes, sizeof(diskMagic)};
    if (in.str() != fingerprint || !in.ok)
        return false;

    SimResult result = in.result();
    const std::uint64_t page_count = in.u64();
    result.profile.reserve(page_count);
    for (std::uint64_t i = 0; i < page_count && in.ok; ++i) {
        const PageId page = in.u64();
        PageStats stats;
        stats.reads = in.u64();
        stats.writes = in.u64();
        stats.avf = in.f64();
        result.profile.setStats(page, stats);
    }
    if (!in.ok)
        return false;
    base = std::move(result);
    return true;
}

std::string
ProfileCache::diskPathFor(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.profile",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return disk_dir_ + "/" + name;
}

ProfiledWorkloadPtr
ProfileCache::compute(const SystemConfig &config,
                      const WorkloadSpec &spec,
                      const GeneratorOptions &options,
                      const std::string &key)
{
    RAMP_TELEM_SPAN(compute_span, "profile.compute", "runner",
                    telemetry::traceArg("workload", spec.name));
    auto profiled = std::make_shared<ProfiledWorkload>();
    profiled->data = prepareWorkload(spec, options);
    profiled->fingerprint = key;

    std::string disk_path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!disk_dir_.empty())
            disk_path = diskPathFor(key);
    }

    if (!disk_path.empty()) {
        std::ifstream in(disk_path, std::ios::binary);
        if (in) {
            std::vector<std::uint8_t> bytes(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
            if (deserializeBaseline(bytes, key, profiled->base)) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.diskHits;
                RAMP_OBS(Telemetry, cacheTelemetry().diskHits.add(1));
                return profiled;
            }
            // Never trust a damaged entry: move it aside so it can
            // be inspected, then recompute and rewrite it.
            std::error_code ec;
            std::filesystem::rename(disk_path,
                                    disk_path + ".corrupt", ec);
            ramp_warn("profile cache entry ", disk_path,
                      " failed its checksum; quarantined as "
                      ".corrupt and recomputing");
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.quarantined;
            RAMP_OBS(Telemetry, cacheTelemetry().quarantined.add(1));
        }
    }

    profiled->base = runDdrOnly(config, profiled->data);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        RAMP_OBS(Telemetry, cacheTelemetry().misses.add(1));
    }

    if (!disk_path.empty()) {
        const auto bytes = serializeBaseline(key, profiled->base);
        std::string error;
        if (atomicWriteFile(
                disk_path,
                std::string_view(
                    reinterpret_cast<const char *>(bytes.data()),
                    bytes.size()),
                &error)) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.diskWrites;
            RAMP_OBS(Telemetry, cacheTelemetry().diskWrites.add(1));
        } else {
            ramp_warn("profile cache write failed: ", error);
        }
    }
    return profiled;
}

ProfiledWorkloadPtr
ProfileCache::get(const SystemConfig &config,
                  const WorkloadSpec &spec,
                  const GeneratorOptions &options)
{
    const std::string key = fingerprint(config, spec, options);

    std::shared_future<ProfiledWorkloadPtr> future;
    std::promise<ProfiledWorkloadPtr> promise;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            future = it->second;
            ++stats_.memoryHits;
            RAMP_OBS(Telemetry, cacheTelemetry().memoryHits.add(1));
        } else {
            future = promise.get_future().share();
            entries_.emplace(key, future);
            owner = true;
        }
    }

    if (owner)
        promise.set_value(compute(config, spec, options, key));
    return future.get();
}

ProfileCacheStats
ProfileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace ramp::runner
