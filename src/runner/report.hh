/**
 * @file
 * Result sink of the experiment runner.
 *
 * Collects every simulation pass a harness binary executes and
 * emits two views: the paper-style TextTable rows the binary prints
 * itself, and a machine-readable JSON document (--json <path>) with
 * per-pass IPC, MPKI, SER, AVF, and migration counters plus the
 * profile-cache hit counters — the repo's first structured
 * perf-trajectory output.
 *
 * The summary-row helpers (meanRatio, RatioColumn) live here so that
 * every figure binary computes its trailing "average" row the same
 * way instead of hand-rolling ratio vectors.
 */

#ifndef RAMP_RUNNER_REPORT_HH
#define RAMP_RUNNER_REPORT_HH

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "hma/system.hh"
#include "runner/error.hh"
#include "runner/profile_cache.hh"

namespace ramp::runner
{

/** Arithmetic mean of a ratio series (0 when empty). */
double meanRatio(std::span<const double> ratios);

/**
 * One ratio column of a figure table, accumulated per workload and
 * summarised in the trailing "average" row.
 */
class RatioColumn
{
  public:
    /** Append one workload's ratio; returns it for chaining. */
    double add(double ratio)
    {
        values_.push_back(ratio);
        return ratio;
    }

    /** Arithmetic mean of the column (0 when empty). */
    double mean() const;

    /** Average cell formatted as a ratio, e.g. "1.62x". */
    std::string averageCell(int precision = 2) const;

    /** Average cell formatted as a loss, e.g. "14.1%". */
    std::string lossCell(int precision = 1) const;

    const std::vector<double> &values() const { return values_; }

  private:
    std::vector<double> values_;
};

/** One recorded simulation pass. */
struct PassRecord
{
    std::string workload;
    SimResult result;

    /** Terminal state; non-Ok records carry error/message. */
    PassStatus status = PassStatus::Ok;

    /** Error-code name (passErrorCodeName) when not Ok. */
    std::string error;

    /** Human-readable failure description when not Ok. */
    std::string message;

    /** Wall-clock duration of the pass (0 = not measured). */
    double seconds = 0;
};

/** Thread-safe collector of pass results; writes the JSON view. */
class Report
{
  public:
    /** @param tool binary name stamped into the JSON document. */
    explicit Report(std::string tool);

    /** Record one pass (label taken from result.label). */
    void add(const std::string &workload, const SimResult &result,
             double seconds = 0);

    /** Record one pass with an explicit terminal status. */
    void add(const std::string &workload, const SimResult &result,
             PassStatus status, const std::string &error,
             const std::string &message, double seconds = 0);

    /** Recorded passes, in recording order. */
    std::vector<PassRecord> passes() const;

    /** Recorded passes whose status is not Ok, in order. */
    std::vector<PassRecord> failures() const;

    /**
     * Write the JSON document: tool, jobs, per-pass metrics and
     * status, the profile-cache counters, the decision-ledger
     * summary when `events_path` names the written events file, and
     * the health-monitor summary when `timeline_path` is given (the
     * monitor is on; "" when no timeline file was requested). The
     * write is atomic (unique temp file + rename), so a crash never
     * leaves a torn report. Returns false when the file cannot be
     * written.
     */
    bool writeJson(const std::string &path, unsigned jobs,
                   const ProfileCacheStats &cache_stats,
                   const std::string *events_path = nullptr,
                   const std::string *timeline_path = nullptr) const;

  private:
    std::string tool_;
    mutable std::mutex mutex_;
    std::vector<PassRecord> passes_;
};

} // namespace ramp::runner

#endif // RAMP_RUNNER_REPORT_HH
