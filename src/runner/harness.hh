/**
 * @file
 * The experiment harness every figure/table binary runs on.
 *
 * One Harness per binary: it parses the shared runner flags
 * (--jobs, --json, --metrics-out, --trace-out, --bench-out,
 * --cache-dir, --checkpoint, --pass-timeout), owns the thread pool,
 * the profile cache, the checkpoint journal, the watchdog, the
 * resource sampler, and the result sink, and provides the two
 * operations the paper's methodology repeats everywhere: profile a
 * workload set (cached, parallel) and fan policy passes out over it
 * with runPasses().
 *
 * runPasses() is the one pass path: every simulated pass a binary
 * records runs through it, so every pass gets the same timing,
 * ledger labelling, failure containment, watchdog and
 * checkpoint/resume. A pass that throws becomes a FAILED row
 * instead of killing the campaign, completed passes are journaled
 * to the checkpoint directory the moment they finish, journaled
 * passes are replayed on resume (bit-identical to an uninterrupted
 * run), passes overstaying --pass-timeout are flagged TIMEOUT, and
 * SIGINT/SIGTERM winds the campaign down at a pass boundary with
 * the partial report flushed. A pass is named by its workload and a
 * label; the harness alone derives the report row, checkpoint key
 * and ledger run label from that pair.
 */

#ifndef RAMP_RUNNER_HARNESS_HH
#define RAMP_RUNNER_HARNESS_HH

#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perf/bench_report.hh"
#include "perf/microbench.hh"
#include "perf/resource.hh"
#include "runner/checkpoint.hh"
#include "runner/pool.hh"
#include "runner/profile_cache.hh"
#include "runner/report.hh"
#include "runner/watchdog.hh"

namespace ramp::runner
{

/** One planned pass of a campaign. */
struct PassDesc
{
    /** Profiled input (non-null); its name() fills the report's
     * "workload" column. */
    ProfiledWorkloadPtr workload;

    /**
     * Pass label, unique per workload within the binary (sweep
     * binaries fold the sweep point, and any of their own flags
     * that shape the pass, into it; it may contain '/').
     * The checkpoint key is Harness::passKey(workload, label) and
     * the ledger run label is "<workload name>/<label>".
     */
    std::string label;
};

/** Terminal state of one runPasses() pass. */
struct PassOutcome
{
    /** Valid when ok(); value-initialised otherwise. */
    SimResult result;

    PassStatus status = PassStatus::Skipped;

    /** Classified failure cause when status is Failed. */
    PassErrorCode error = PassErrorCode::Unknown;

    /** Human-readable failure description when not Ok. */
    std::string message;

    /** Replayed from the checkpoint journal (not recomputed). */
    bool fromCheckpoint = false;

    /** Wall-clock duration of the pass (0 when replayed). */
    double seconds = 0;

    /** True when `result` holds usable metrics (Ok or Timeout). */
    bool ok() const
    {
        return status == PassStatus::Ok ||
               status == PassStatus::Timeout;
    }
};

/** Shared execution context of one harness binary. */
class Harness
{
  public:
    /** Parse runner flags from the command line. */
    Harness(std::string tool, int argc, char **argv);

    /** Construct from pre-parsed options (tests, embedding). */
    Harness(std::string tool, RunnerOptions options);

    const RunnerOptions &options() const { return options_; }

    /** The system under experiment (Table 1, scaled). */
    const SystemConfig &config() const { return config_; }

    /** Mutable access for sweep binaries that adjust knobs. */
    SystemConfig &config() { return config_; }

    ThreadPool &pool() { return pool_; }
    ProfileCache &cache() { return cache_; }
    Report &report() { return report_; }

    /** Profile one workload through the cache (recorded). */
    ProfiledWorkloadPtr profile(const WorkloadSpec &spec,
                                const GeneratorOptions &options = {});

    /**
     * Profile a workload set: cache lookups fan out across the
     * pool, results come back in spec order, and each baseline pass
     * is recorded once.
     */
    std::vector<ProfiledWorkloadPtr>
    profileAll(const std::vector<WorkloadSpec> &specs,
               const GeneratorOptions &options = {});

    /**
     * Checkpoint key of one pass: hash of the workload's profiling
     * fingerprint plus the pass label. The label must be unique per
     * (workload, pass) pair within the binary — sweep binaries
     * embed the sweep point in it.
     */
    static std::string passKey(const ProfiledWorkloadPtr &wl,
                               const std::string &label);

    /**
     * Run one pass per desc, fault-contained: fn(i) computes pass
     * i's result. Passes present in the checkpoint journal are
     * replayed without running fn; the rest fan out on the pool. A
     * pass that throws yields a Failed outcome (value-initialised
     * result, classified error) and the sweep continues; a pass
     * exceeding --pass-timeout is flagged Timeout (and re-runs on
     * resume). Every outcome is recorded in the report in desc
     * order regardless of scheduling. On SIGINT/SIGTERM remaining
     * passes become Skipped, the report is flushed, and
     * PassError(Cancelled) is thrown.
     */
    template <typename Fn>
    std::vector<PassOutcome>
    runPasses(const std::vector<PassDesc> &descs, Fn fn)
    {
        return runPassesImpl(
            descs, std::function<SimResult(std::size_t)>(fn));
    }

    /**
     * Fold microbenchmark rows into the --bench-out document
     * (perf_suite registers its kernel suite this way).
     */
    void addMicrobenchResults(std::vector<perf::BenchResult> rows);

    /**
     * The resource sampler started for --bench-out (nullptr
     * otherwise); tests assert on its summary.
     */
    const perf::ResourceSampler *sampler() const
    {
        return sampler_.get();
    }

    /**
     * Finish the run: write the JSON report, telemetry metrics
     * snapshot (--metrics-out), Chrome trace (--trace-out), and
     * BENCH performance report (--bench-out; the resource sampler
     * is stopped and joined first) when requested (each atomic
     * tmp+rename) and print a failure summary to stderr when any
     * pass is not Ok. Exit code: 0 on full success, 1 when any
     * output file cannot be written, 3 when any pass failed or
     * timed out.
     */
    int finish();

  private:
    std::vector<PassOutcome>
    runPassesImpl(const std::vector<PassDesc> &descs,
                  const std::function<SimResult(std::size_t)> &fn);

    /**
     * Write every requested output artifact (--events-out, --json,
     * --metrics-out, --trace-out, --bench-out), each atomic
     * tmp+rename. Returns 0, or 1 when any file cannot be written.
     * Idempotent: called early when a pass times out (so a campaign
     * an operator then kills still leaves artifacts behind, like
     * the SIGINT path) and again by finish(), which atomically
     * replaces the early flush with the complete campaign.
     */
    int flushOutputs();

    /** Render the --bench-out document from the run's state. */
    std::string benchJson();

    std::string tool_;
    RunnerOptions options_;
    SystemConfig config_;
    ThreadPool pool_;
    ProfileCache cache_;
    Report report_;
    std::unique_ptr<CheckpointJournal> journal_;
    std::unique_ptr<Watchdog> watchdog_;
    std::unique_ptr<perf::ResourceSampler> sampler_;
    std::vector<perf::BenchResult> microResults_;
    std::chrono::steady_clock::time_point startTime_;
};

/**
 * Standard main() wrapper of a harness binary: installs the
 * SIGINT/SIGTERM handlers, runs the body (which constructs the
 * Harness and returns finish()), and maps errors onto exit codes —
 * Usage 2, Cancelled 128+signal, any other failure 1.
 */
template <typename Body>
int
benchMain(const char *tool, Body body)
{
    installSignalHandlers();
    try {
        return body();
    } catch (const PassError &error) {
        if (error.code() == PassErrorCode::Usage) {
            std::fprintf(stderr, "%s: %s\n", tool, error.what());
            return 2;
        }
        if (error.code() == PassErrorCode::Cancelled) {
            std::fprintf(stderr,
                         "%s: cancelled; partial results flushed\n",
                         tool);
            const int sig = cancellationSignal();
            return 128 + (sig != 0 ? sig : SIGINT);
        }
        std::fprintf(stderr, "%s: %s: %s\n", tool,
                     passErrorCodeName(error.code()), error.what());
        return 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "%s: %s\n", tool, error.what());
        return 1;
    }
}

} // namespace ramp::runner

#endif // RAMP_RUNNER_HARNESS_HH
