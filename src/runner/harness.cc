#include "runner/harness.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "eventlog/eventlog.hh"
#include "health/health.hh"
#include "health/rules.hh"
#include "prof/prof.hh"
#include "telemetry/telemetry.hh"

namespace ramp::runner
{

namespace
{

/** Positive double for --pass-timeout; throws PassError(Usage). */
double
parseTimeout(const std::string &text)
{
    const auto parsed = readFinite(text);
    if (!parsed || !(*parsed > 0))
        throw PassError(PassErrorCode::Usage,
                        "--pass-timeout needs a positive number of "
                        "seconds, got '" +
                            text + "'");
    return *parsed;
}

/** A T of at least `min`; throws PassError(Usage) with
 * "<need>, got '<text>'" otherwise. */
template <typename T>
T
parseInteger(const std::string &text, T min, const char *need)
{
    const auto parsed = readCount(text, std::numeric_limits<T>::max());
    if (!parsed || *parsed < min)
        throw PassError(PassErrorCode::Usage,
                        std::string(need) + ", got '" + text + "'");
    return static_cast<T>(*parsed);
}

unsigned
parseJobs(const std::string &text)
{
    return parseInteger(text, 1u, "--jobs needs a positive integer");
}

/** Records of the ledger's trailing window that a cancelled
 * campaign leaves next to its events file. */
constexpr std::size_t postMortemRecords = 256;

} // namespace

RunnerOptions
RunnerOptions::parse(int argc, char **argv)
{
    RunnerOptions options;
    for (const Harness::Output &out : Harness::outputs())
        if (const char *env = std::getenv(out.env))
            options.*out.value = env;
    if (const char *env = std::getenv("RAMP_JOBS"))
        options.jobs = parseJobs(env);
    if (const char *env = std::getenv("RAMP_EVENTS_LIMIT"))
        options.eventsLimit = parseInteger<std::uint64_t>(
            env, 0, "RAMP_EVENTS_LIMIT needs a non-negative integer");
    if (const char *env = std::getenv("RAMP_CACHE_DIR"))
        options.cacheDir = env;
    if (const char *env = std::getenv("RAMP_CHECKPOINT"))
        options.checkpointDir = env;
    if (const char *env = std::getenv("RAMP_PASS_TIMEOUT"))
        options.passTimeout = parseTimeout(env);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                throw PassError(PassErrorCode::Usage,
                                std::string(flag) +
                                    " needs a value");
            return argv[++i];
        };
        const auto outputs = Harness::outputs();
        const auto out = std::ranges::find(outputs, arg,
                                           &Harness::Output::flag);
        if (out != outputs.end()) {
            options.*out->value = value(out->flag);
        } else if (arg == "--jobs" || arg == "-j") {
            options.jobs = parseJobs(value("--jobs"));
        } else if (arg == "--cache-dir") {
            options.cacheDir = value("--cache-dir");
        } else if (arg == "--checkpoint") {
            options.checkpointDir = value("--checkpoint");
        } else if (arg == "--pass-timeout") {
            options.passTimeout =
                parseTimeout(value("--pass-timeout"));
        } else {
            options.positional.push_back(arg);
        }
    }
    return options;
}

const char *
RunnerOptions::flagsHelp()
{
    static const std::string text = [] {
        std::string help = "  --jobs N        parallel simulation passes "
                           "(default: all cores; env RAMP_JOBS)\n";
        for (const Harness::Output &out : Harness::outputs())
            help += out.help;
        return help +
               "  --cache-dir D   persist profiling passes on disk "
               "(env RAMP_CACHE_DIR)\n"
               "  --checkpoint D  journal completed passes; resume a "
               "killed campaign (env RAMP_CHECKPOINT)\n"
               "  --pass-timeout S  flag passes running longer than S "
               "seconds (env RAMP_PASS_TIMEOUT)\n";
    }();
    return text.c_str();
}

std::span<const Harness::Output>
Harness::outputs()
{
    using Path = const std::string &;
    constexpr std::uint8_t monitor =
        obs::Telemetry | obs::Events | obs::Health;
    // Installs --health-rules, or the defaults when only the
    // timeline is on.
    static constexpr auto install_rules = [](Harness &h) {
        auto rules = health::defaultRules();
        if (!h.options_.healthRules.empty()) {
            std::string error;
            rules = health::parseHealthRules(h.options_.healthRules,
                                             error);
            if (!error.empty())
                throw PassError(PassErrorCode::Usage, error);
        }
        health::setRules(std::move(rules));
    };
    // Help order. The flush ranks put the events file and the
    // timeline before --json, which embeds both summaries.
    static const Output table[] = {
        {"--json", "RAMP_JSON",
         "  --json PATH     write machine-readable results "
         "(env RAMP_JSON)\n",
         &RunnerOptions::jsonPath, 0, nullptr, 2,
         {{{"", "JSON report",
            [](Harness &h, Path path) {
                return h.report_.writeJson(
                    path, h.pool_.jobs(), h.cache_.stats(),
                    h.eventsWritten_ ? &h.options_.eventsPath : nullptr,
                    obs::on(obs::Health) ? &h.options_.timelinePath
                                         : nullptr);
            }}}}},
        {"--trace-out", "RAMP_TRACE_OUT",
         "  --trace-out PATH  write a Chrome trace-event file "
         "(env RAMP_TRACE_OUT)\n",
         &RunnerOptions::tracePath, obs::Trace,
         [](Harness &) { telemetry::captureLogEvents(); }, 3,
         {{{"", "trace",
            [](Harness &, Path path) {
                return atomicWriteFile(path, telemetry::traceJson());
            }}}}},
        // The bench report derives its throughput quotes from the
        // telemetry counters and carries their snapshot, so it
        // switches telemetry on too.
        {"--bench-out", "RAMP_BENCH_OUT",
         "  --bench-out PATH  write a BENCH_<tool>.json "
         "performance report (env RAMP_BENCH_OUT)\n",
         &RunnerOptions::benchPath, obs::Telemetry,
         [](Harness &h) {
             h.sampler_ = std::make_unique<perf::ResourceSampler>();
         },
         5,
         {{{"", "bench report",
            [](Harness &h, Path path) {
                return atomicWriteFile(path, h.benchJson());
            }}}}},
        {"--events-out", "RAMP_EVENTS_OUT",
         "  --events-out PATH  write the decision ledger as "
         "JSONL (env RAMP_EVENTS_OUT)\n",
         &RunnerOptions::eventsPath, obs::Events,
         [](Harness &h) {
             eventlog::setCapacity(h.options_.eventsLimit);
         },
         0,
         {{{"", "events file",
            [](Harness &h, Path path) {
                h.eventsWritten_ =
                    atomicWriteFile(path, eventlog::toJsonl(h.tool_));
                return h.eventsWritten_;
            }}}}},
        // Health alerts are stamped into the decision ledger and
        // sample attribution needs the ledger's run label, so the
        // monitor switches telemetry and the ledger on with it.
        {"--timeline-out", "RAMP_TIMELINE_OUT",
         "  --timeline-out PATH  write the epoch health timeline "
         "as JSONL (env RAMP_TIMELINE_OUT)\n",
         &RunnerOptions::timelinePath, monitor, install_rules, 1,
         {{{"", "health timeline",
            [](Harness &h, Path path) {
                return atomicWriteFile(path,
                                       health::timelineJsonl(h.tool_));
            }}}}},
        {"--profile-out", "RAMP_PROF_OUT",
         "  --profile-out PATH  write a ramp-profile-v1 cycle "
         "profile (+PATH.folded flamegraph stacks; env "
         "RAMP_PROF_OUT)\n",
         &RunnerOptions::profilePath, obs::Prof, nullptr, 4,
         {{{"", "cycle profile",
            [](Harness &h, Path path) {
                return atomicWriteFile(
                    path, prof::profileJson(h.tool_, h.pool_.jobs()));
            }},
           {".folded", "folded stacks",
            [](Harness &, Path path) {
                return atomicWriteFile(path, prof::foldedStacks());
            }}}}},
        {"--health-rules", "RAMP_HEALTH_RULES",
         "  --health-rules R  SLO rules evaluated per epoch, e.g. "
         "alert:p99_slowdown>2,for=3 (env RAMP_HEALTH_RULES)\n",
         &RunnerOptions::healthRules, monitor, install_rules, 6,
         {}},
    };
    return table;
}

Harness::Harness(std::string tool, int argc, char **argv)
    : Harness(std::move(tool), RunnerOptions::parse(argc, argv))
{
}

Harness::Harness(std::string tool, RunnerOptions options)
    : tool_(std::move(tool)),
      options_(std::move(options)),
      config_(SystemConfig::scaledDefault()),
      pool_(options_.jobs),
      report_(tool_),
      startTime_(std::chrono::steady_clock::now())
{
    validateSystemConfig(config_);
    for (const Output &out : outputs()) {
        if ((options_.*out.value).empty())
            continue;
        obs::set(out.layers, true);
        if (out.start != nullptr)
            out.start(*this);
    }
    if (!options_.cacheDir.empty())
        cache_.setDiskDir(options_.cacheDir);
    if (!options_.checkpointDir.empty())
        journal_ = std::make_unique<CheckpointJournal>(
            options_.checkpointDir, tool_);
    if (options_.passTimeout > 0)
        watchdog_ = std::make_unique<Watchdog>(options_.passTimeout);
}

ProfiledWorkloadPtr
Harness::profile(const WorkloadSpec &spec,
                 const GeneratorOptions &options)
{
    validateSystemConfig(config_);
    throwIfCancelled("profiling");
    auto profiled = cache_.get(config_, spec, options);
    report_.add(profiled->name(), profiled->base);
    return profiled;
}

std::vector<ProfiledWorkloadPtr>
Harness::profileAll(const std::vector<WorkloadSpec> &specs,
                    const GeneratorOptions &options)
{
    validateSystemConfig(config_);
    throwIfCancelled("profiling");
    auto profiled = pool_.map(specs, [&](const WorkloadSpec &spec) {
        return cache_.get(config_, spec, options);
    });
    throwIfCancelled("profiling");
    // Record baselines after the fan-out so the JSON pass order is
    // the spec order, not the scheduling order.
    for (const auto &wl : profiled)
        report_.add(wl->name(), wl->base);
    return profiled;
}

std::string
Harness::passKey(const ProfiledWorkloadPtr &wl,
                 const std::string &label)
{
    const std::string fp = wl ? wl->fingerprint : std::string();
    return hashHex(fnv1a64(fp)) + "/" + label;
}

std::vector<PassOutcome>
Harness::runPassesImpl(const std::vector<PassDesc> &descs,
                       const std::function<SimResult(std::size_t)> &fn)
{
    const std::size_t count = descs.size();
    std::vector<PassOutcome> outcomes(count);

    // The pass identity, derived here and nowhere else: the
    // report's workload column, the checkpoint key, and the ledger
    // run label "<workload>/<label>". The label is unique per
    // (workload, pass) and schedule-independent, so analyzers can
    // sort runs deterministically at any --jobs width.
    std::vector<std::string> names(count), keys(count);
    for (std::size_t i = 0; i < count; ++i) {
        names[i] = descs[i].workload->name();
        keys[i] = passKey(descs[i].workload, descs[i].label);
    }

    // Replay journaled passes; only the rest fan out.
    std::vector<std::size_t> missing;
    missing.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto &out = outcomes[i];
        std::string workload;
        if (journal_ != nullptr &&
            journal_->lookup(keys[i], workload, out.result)) {
            out.status = PassStatus::Ok;
            out.fromCheckpoint = true;
        } else {
            missing.push_back(i);
        }
    }
    if (missing.size() < count)
        ramp_inform("resumed ", count - missing.size(), " of ",
                    count, " pass(es) from checkpoint journal ",
                    journal_->path());

    pool_.runIndexed(missing.size(), [&](std::size_t task) {
        const std::size_t index = missing[task];
        const std::string &name = names[index];
        const std::string &key = keys[index];
        PassOutcome &out = outcomes[index];

        RAMP_PROF_SCOPE(pass_prof, "runner.pass", "workload", name);
        eventlog::RunScope events_scope(name + "/" +
                                        descs[index].label);
        std::optional<Watchdog::Scope> scope;
        if (watchdog_ != nullptr)
            scope.emplace(watchdog_->watch(key));
        const auto start = std::chrono::steady_clock::now();
        try {
            out.result = fn(index);
            out.status = PassStatus::Ok;
        } catch (...) {
            const ErrorInfo info =
                describeException(std::current_exception());
            out.result = SimResult{};
            out.error = info.code;
            out.message = info.message;
            if (info.code == PassErrorCode::Cancelled) {
                out.status = PassStatus::Skipped;
            } else {
                out.status = PassStatus::Failed;
                ramp_warn("pass '", key, "' (", name, ") failed [",
                          passErrorCodeName(info.code),
                          "]: ", info.message);
            }
        }
        scope.reset();
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        out.seconds = elapsed;

        if (out.status == PassStatus::Ok &&
            cancellationRequested()) {
            // A nested fan-out inside the pass may have been cut
            // short by the cancellation flag; never trust (or
            // journal) a result finished after the request.
            out.result = SimResult{};
            out.status = PassStatus::Skipped;
            out.error = PassErrorCode::Cancelled;
            out.message = "cancelled while the pass was running";
            return;
        }
        if (out.status == PassStatus::Ok && options_.passTimeout > 0 &&
            elapsed > options_.passTimeout) {
            out.status = PassStatus::Timeout;
            out.error = PassErrorCode::Timeout;
            out.message =
                "pass took " + std::to_string(elapsed) +
                " s (limit " +
                std::to_string(options_.passTimeout) + " s)";
            return; // Not journaled: a resume re-runs it.
        }
        if (out.status == PassStatus::Ok && journal_ != nullptr)
            journal_->append(key, name, out.result);
    });

    // Record in desc order, so the report never depends on the
    // scheduling and a resumed run matches an uninterrupted one.
    for (std::size_t i = 0; i < count; ++i) {
        auto &out = outcomes[i];
        if (out.status == PassStatus::Skipped && out.message.empty()) {
            out.error = PassErrorCode::Cancelled;
            out.message = "campaign cancelled before this pass ran";
        }
        if (out.status == PassStatus::Ok)
            report_.add(names[i], out.result, out.seconds);
        else
            report_.add(names[i], out.result, out.status,
                        passErrorCodeName(out.error), out.message,
                        out.seconds);
    }

    bool timed_out = false;
    for (const auto &out : outcomes)
        if (out.status == PassStatus::Timeout)
            timed_out = true;
    if (timed_out && !cancellationRequested()) {
        // A timed-out pass is a campaign an operator may kill next;
        // leave the artifacts behind now (finish() atomically
        // rewrites them with the complete campaign later).
        flushOutputs();
    }

    if (cancellationRequested()) {
        finish(); // Flush what completed before winding down.
        const int sig = cancellationSignal();
        throw PassError(PassErrorCode::Cancelled,
                        sig != 0 ? "campaign cancelled by signal " +
                                       std::to_string(sig)
                                 : "campaign cancelled");
    }
    return outcomes;
}

void
Harness::addMicrobenchResults(std::vector<perf::BenchResult> rows)
{
    microResults_.insert(microResults_.end(),
                         std::make_move_iterator(rows.begin()),
                         std::make_move_iterator(rows.end()));
}

std::string
Harness::benchJson()
{
    perf::BenchReportSpec spec;
    spec.tool = tool_;
    spec.jobs = pool_.jobs();
    spec.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - startTime_)
            .count();
    if (sampler_ != nullptr)
        spec.resources = sampler_->summary();
    spec.metrics = telemetry::metrics().snapshot();
    for (const PassRecord &pass : report_.passes()) {
        ++spec.passes.count;
        if (pass.status == PassStatus::Ok)
            ++spec.passes.ok;
        // Replayed checkpoint passes record 0 s; folding them in
        // would fake an impossibly fast campaign.
        if (pass.seconds > 0)
            spec.passes.seconds.add(pass.seconds);
    }
    spec.eventRecords = eventlog::stats().recorded;
    spec.microbenchmarks = microResults_;
    return perf::renderBenchReport(spec);
}

int
Harness::finish()
{
    // Join the sampler before snapshotting, so the final RSS/CPU
    // readings cover the whole campaign (idempotent: a cancelled
    // campaign finishes once from the cancellation path).
    if (sampler_ != nullptr)
        sampler_->stop();
    const auto failures = report_.failures();
    if (!failures.empty()) {
        TextTable table({"workload", "label", "status", "error",
                         "message"});
        for (const auto &pass : failures)
            table.addRow({pass.workload, pass.result.label,
                          passStatusName(pass.status), pass.error,
                          pass.message});
        table.print(std::cerr,
                    tool_ + ": " + std::to_string(failures.size()) +
                        " pass(es) did not complete");
    }

    const int flush = flushOutputs();
    return flush != 0 ? flush : (failures.empty() ? 0 : 3);
}

int
Harness::flushOutputs()
{
    int code = 0;
    auto cannot_write = [&](const char *noun, const std::string &path) {
        std::fprintf(stderr, "%s: cannot write %s to %s\n",
                     tool_.c_str(), noun, path.c_str());
        code = 1;
    };
    if (cancellationRequested() && obs::on(obs::Events)) {
        // Post-mortem: park the trailing window of the ledger next
        // to the events file (or under the tool's name when none
        // was requested) so an interrupted campaign leaves its
        // final decisions behind for inspection.
        const std::string path =
            options_.eventsPath.empty()
                ? tool_ + ".postmortem.jsonl"
                : options_.eventsPath + ".postmortem";
        if (!atomicWriteFile(path, eventlog::postMortemJsonl(
                                       tool_, postMortemRecords)))
            cannot_write("post-mortem dump", path);
    }
    std::vector<const Output *> order;
    for (const Output &out : outputs())
        order.push_back(&out);
    std::ranges::sort(order, {}, &Output::flushRank);
    eventsWritten_ = false;
    for (const Output *out : order) {
        const std::string &path = options_.*out->value;
        if (path.empty())
            continue;
        for (const OutputFile &file : out->files) {
            if (file.write == nullptr)
                break;
            const std::string target = path + file.suffix;
            if (!file.write(*this, target))
                cannot_write(file.noun, target);
        }
    }
    return code;
}

} // namespace ramp::runner
