/**
 * @file
 * fault_storm: graceful degradation under online fault injection.
 *
 * Replays the motivation workloads under every placement policy —
 * the five profile-driven static placements and the three dynamic
 * migration schemes — twice each: once clean, once under a scripted
 * fault storm (correctable bursts, uncorrected strikes that retire
 * pages, and a 25% HBM capacity loss mid-run). The table reports
 * each policy's survival status (ok vs degraded), the slowdown the
 * storm cost it, pages retired, response moves (retirement remaps +
 * emergency sweeps), and the SER it ended at relative to its clean
 * run. Every run completes: capacity loss degrades, never aborts
 * (DESIGN.md §12).
 *
 * The storm is deterministic: the same plan and seed produce the
 * same fault schedule, ledger, and table at any --jobs width.
 *
 * Flags (in addition to the shared harness flags):
 *   --inject PLAN   scripted fault plan (plan.hh grammar; default
 *                   is the standard storm below)
 *   --fault-seed N  injector rng seed (default 7; only the Poisson
 *                   and hammer sources consume it)
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "faults/plan.hh"

using namespace ramp;
using namespace ramp::bench;

namespace
{

/**
 * The default storm: a correctable burst early, two uncorrected
 * strikes (one before, one after the capacity event), and a 25% HBM
 * capacity loss in the middle. Epochs are injector epochs (one MEA
 * interval each, set below), so the whole script lands within the
 * first FC interval of every workload.
 */
constexpr const char *defaultStorm =
    "correctable:page=64,count=8,epoch=2;"
    "uncorrected:page=128,epoch=3;"
    "capacity:tier=hbm,pct=25,epoch=5;"
    "uncorrected:page=512,epoch=6;"
    "correctable:page=256,count=4,epoch=8";

struct StormOptions
{
    std::vector<FaultEvent> plan;
    std::uint64_t seed = 7;
};

StormOptions
parseStormOptions(const std::vector<std::string> &positional)
{
    StormOptions options;
    std::string plan_text = defaultStorm;
    for (std::size_t i = 0; i < positional.size(); ++i) {
        const std::string &arg = positional[i];
        if (arg == "--inject") {
            plan_text =
                flagValue("fault_storm", "--inject", positional, i);
        } else if (arg == "--fault-seed") {
            options.seed = parseUnsignedFlag(
                "fault_storm", "--fault-seed",
                flagValue("fault_storm", "--fault-seed", positional,
                          i));
        } else {
            std::cerr << "fault_storm: unknown argument '" << arg
                      << "'\n";
            std::exit(2);
        }
    }
    std::string error;
    options.plan = parseFaultPlan(plan_text, error);
    if (!error.empty()) {
        std::cerr << "fault_storm: --inject: " << error << "\n";
        std::exit(2);
    }
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain("fault_storm", [&] {
        Harness harness("fault_storm", argc, argv);
        const SystemConfig &config = harness.config();
        const StormOptions options =
            parseStormOptions(harness.options().positional);

        InjectorConfig faults;
        faults.script = options.plan;
        faults.seed = options.seed;
        // One injector epoch per MEA interval: the scripted storm
        // lands inside every workload's first FC interval.
        faults.epochCycles = config.meaIntervalCycles;

        const auto cases = policyCases();
        const auto profiled =
            harness.profileAll(motivationWorkloads());

        // Two passes per (workload, case), in report order: even
        // index = the clean run, odd index = the same case under the
        // storm. --inject and --fault-seed tag the storm labels.
        const std::string storm = "/storm" + argumentsTag(harness);
        std::vector<PassDesc> descs;
        for (const auto &wl : profiled)
            for (const PolicyCase &pc : cases) {
                descs.push_back({wl, pc.label + "/clean"});
                descs.push_back({wl, pc.label + storm});
            }
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const auto &wl = *profiled[i / (2 * cases.size())];
                const PolicyCase &pc = cases[i / 2 % cases.size()];
                if (i % 2 == 0)
                    return runPolicyCase(config, wl.data, pc,
                                         wl.profile());
                SimResult storm = runPolicyCaseFaulted(
                    config, wl.data, pc, wl.profile(), faults);
                storm.label += "+storm";
                return storm;
            });

        TextTable table({"workload", "policy", "status", "slowdown",
                         "retired", "resp moves", "SER x"});
        RatioColumn slowdown_all;
        std::uint64_t retired_total = 0;
        std::uint64_t degraded_runs = 0;

        for (std::size_t i = 0; i < profiled.size(); ++i) {
            const auto &wl = *profiled[i];
            for (std::size_t c = 0; c < cases.size(); ++c) {
                const std::size_t pass = 2 * (i * cases.size() + c);
                const auto &clean_out = outcomes[pass];
                const auto &storm_out = outcomes[pass + 1];
                if (!clean_out.ok() || !storm_out.ok()) {
                    table.addRow({wl.name(), cases[c].label,
                                  statusCell(clean_out.ok()
                                                 ? storm_out
                                                 : clean_out),
                                  "-", "-", "-", "-"});
                    continue;
                }
                const auto &clean = clean_out.result;
                const auto &storm = storm_out.result;
                const double slowdown =
                    static_cast<double>(storm.makespan) /
                    static_cast<double>(clean.makespan);
                slowdown_all.add(slowdown);
                retired_total += storm.pagesRetired;
                if (storm.degraded)
                    ++degraded_runs;
                table.addRow({
                    wl.name(),
                    cases[c].label,
                    storm.degraded ? "degraded" : "ok",
                    TextTable::ratio(slowdown),
                    TextTable::num(storm.pagesRetired),
                    TextTable::num(storm.responseMoves),
                    TextTable::ratio(storm.ser / clean.ser, 1),
                });
            }
        }
        table.print(std::cout,
                    "Fault storm: every policy completes under "
                    "live faults (" +
                        TextTable::num(options.plan.size()) +
                        " scripted events, 25% HBM loss)");
        std::cout << "\nmean slowdown "
                  << TextTable::ratio(slowdown_all.mean())
                  << ", pages retired "
                  << TextTable::num(retired_total)
                  << ", degraded runs "
                  << TextTable::num(degraded_runs) << "/"
                  << TextTable::num(profiled.size() * cases.size())
                  << "\n";
        return harness.finish();
    });
}
