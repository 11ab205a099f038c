/**
 * @file
 * The experiment harness every figure/table binary runs on.
 *
 * One Harness per binary: it parses the shared runner flags
 * (--jobs, the output flags of its output table, --cache-dir,
 * --checkpoint, --pass-timeout), owns the thread pool,
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
 *
 * Every output flag (--json, --bench-out, ...) is one row of
 * Harness::outputs(): its environment variable, help line, options
 * field, the observability layers it switches on, and the files
 * flushOutputs() writes for it. Option parsing, the help text, the
 * constructor and the flush all iterate that table.
 */

#ifndef RAMP_RUNNER_HARNESS_HH
#define RAMP_RUNNER_HARNESS_HH

#include <array>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
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

/** Command-line/environment knobs shared by harness binaries. */
struct RunnerOptions
{
    /** Simulation-pass parallelism; 0 = hardware concurrency. */
    unsigned jobs = 0;

    /** @{ @name Output targets ("" = off; see Harness::outputs()) */
    std::string jsonPath;
    std::string tracePath;
    std::string benchPath;
    std::string eventsPath;
    std::string timelinePath;

    /** Cycle profile; the folded flamegraph stacks land next to
     * it at PATH.folded. */
    std::string profilePath;

    /** Health rule set ("" = defaults when the timeline is on). */
    std::string healthRules;
    /** @} */

    /** Decision-ledger cap in records (RAMP_EVENTS_LIMIT; 0 =
     * unlimited). */
    std::uint64_t eventsLimit = 0;

    /** On-disk profile-cache directory ("" = memory-only). */
    std::string cacheDir;

    /** Checkpoint-journal directory ("" = no checkpointing). */
    std::string checkpointDir;

    /** Watchdog threshold in seconds (0 = no watchdog). */
    double passTimeout = 0;

    /** Arguments not consumed by the runner, in order. */
    std::vector<std::string> positional;

    /**
     * Parse --jobs N, every output flag of Harness::outputs(),
     * --cache-dir PATH, --checkpoint DIR, and --pass-timeout S from
     * argv, with environment fallbacks (RAMP_JOBS, each output's
     * variable, RAMP_CACHE_DIR, RAMP_CHECKPOINT, RAMP_PASS_TIMEOUT;
     * a flag wins over its variable) plus RAMP_EVENTS_LIMIT;
     * everything else lands in positional.
     * Throws PassError(Usage) on a malformed flag or variable — the
     * binary decides the exit code.
     */
    static RunnerOptions parse(int argc, char **argv);

    /** Usage text of the flags parse() consumes. */
    static const char *flagsHelp();
};

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

    /** One file an output writes. */
    struct OutputFile
    {
        /** Appended to the output's path. */
        const char *suffix;

        /** Stderr noun: "<tool>: cannot write <noun> to <path>". */
        const char *noun;

        /** Write the file; false when it cannot be written. */
        bool (*write)(Harness &, const std::string &path);
    };

    /** One output flag and everything it drives. */
    struct Output
    {
        const char *flag;
        const char *env;

        /** Its flagsHelp() text. */
        const char *help;

        /** The option the flag and the variable fill. */
        std::string RunnerOptions::*value;

        /** obs:: layers the output switches on. */
        std::uint8_t layers;

        /** Setup beyond the layers (nullptr = none). */
        void (*start)(Harness &);

        /** Position in the flush order. */
        int flushRank;

        /** Files the flush writes, in order (write == nullptr ends
         * the list). */
        std::array<OutputFile, 2> files;
    };

    /** The output table, in flagsHelp() order. */
    static std::span<const Output> outputs();

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
     * Finish the run: stop and join the resource sampler, print a
     * failure summary to stderr when any pass is not Ok, and write
     * every requested output (flushOutputs()). Exit code: 0 on full
     * success, 1 when any output file cannot be written, 3 when any
     * pass failed or timed out.
     */
    int finish();

  private:
    std::vector<PassOutcome>
    runPassesImpl(const std::vector<PassDesc> &descs,
                  const std::function<SimResult(std::size_t)> &fn);

    /**
     * Write every requested output's files in flush order (the
     * ledger and the timeline before --json, which embeds both),
     * each atomic tmp+rename, plus the post-mortem ledger window
     * when the campaign was cancelled. Returns 0, or 1 when any
     * file cannot be written.
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

    /** This flush wrote the events file (--json then embeds the
     * ledger summary). */
    bool eventsWritten_ = false;
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
