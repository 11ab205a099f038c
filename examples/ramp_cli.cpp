/**
 * @file
 * ramp_cli — command-line explorer for the RAMP library.
 *
 * Subcommands:
 *   workloads                      list the registered programs/mixes
 *   profile   <workload>           DDR-only profile: AVF, MPKI,
 *                                  quadrants, per-structure stats
 *   run       <workload> <policy>  one placement/migration pass
 *   sweep     <workload>           hot-fraction frontier (Fig 1 style)
 *   faultsim  [stacked-factor]     FaultSim campaign for both memories
 *   trace     <workload> <file>    generate + save traces, then verify
 *
 * Policies: ddr-only perf rel balanced wr wr2 annotated
 *           perf-mig fc-mig cc-mig
 *
 * Runner flags (--jobs, --json, --cache-dir, --checkpoint,
 * --pass-timeout) may appear anywhere; with --cache-dir the profile
 * pass is shared with the bench binaries, so `ramp_cli profile mix1`
 * after a bench run is free, and with --checkpoint an interrupted
 * `sweep` resumes from its journal.
 */

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "common/table.hh"
#include "hma/experiment.hh"
#include "placement/quadrant.hh"
#include "reliability/faultsim.hh"
#include "runner/harness.hh"

using namespace ramp;
using runner::Harness;

namespace
{

WorkloadSpec
specFor(const std::string &name)
{
    return name.rfind("mix", 0) == 0 ? mixWorkload(name)
                                     : homogeneousWorkload(name);
}

int
cmdWorkloads()
{
    TextTable table({"workload", "kind", "MPKI", "footprint pages"});
    for (const auto &spec : standardWorkloads()) {
        const auto layout = buildLayout(spec);
        const bool mix = spec.name.rfind("mix", 0) == 0;
        double mpki = 0;
        for (const auto &bench : spec.coreBenchmarks)
            mpki += benchmarkProfile(bench).mpki;
        table.addRow({spec.name, mix ? "mix" : "homogeneous",
                      TextTable::num(mpki / workloadCores, 1),
                      TextTable::num(layout.totalPages)});
    }
    table.print(std::cout, "registered workloads");
    return 0;
}

int
cmdProfile(Harness &harness, const std::string &workload)
{
    const auto wl = harness.profile(specFor(workload));
    const auto quadrants = analyzeQuadrants(wl->profile());

    std::cout << workload << ": AVF "
              << TextTable::percent(wl->base.memoryAvf) << ", MPKI "
              << TextTable::num(wl->base.mpki, 1) << ", IPC "
              << TextTable::num(wl->base.ipc, 2) << ", footprint "
              << wl->profile().footprintPages() << " pages\n"
              << "quadrants: hot&low "
              << TextTable::percent(quadrants.hotLowRiskFraction())
              << "\n\n";

    TextTable table({"program", "structure", "pages", "acc/page",
                     "avg AVF"});
    const auto structures =
        profileStructures(wl->data.layout, wl->profile());
    for (const auto &entry : structures)
        table.addRow({entry.benchmark, entry.structure,
                      TextTable::num(entry.pages),
                      TextTable::num(entry.hotnessPerPage(), 1),
                      TextTable::percent(entry.avgAvf)});
    table.print(std::cout, "structure profile");
    return 0;
}

int
cmdRun(Harness &harness, const std::string &workload,
       const std::string &policy)
{
    const std::map<std::string, StaticPolicy> statics = {
        {"perf", StaticPolicy::PerfFocused},
        {"rel", StaticPolicy::ReliabilityFocused},
        {"balanced", StaticPolicy::Balanced},
        {"wr", StaticPolicy::WrRatio},
        {"wr2", StaticPolicy::Wr2Ratio}};
    const std::map<std::string, DynamicScheme> dynamics = {
        {"perf-mig", DynamicScheme::PerfFocused},
        {"fc-mig", DynamicScheme::FcReliability},
        {"cc-mig", DynamicScheme::CrossCounter}};
    if (policy != "ddr-only" && policy != "annotated" &&
        !statics.contains(policy) && !dynamics.contains(policy)) {
        std::cerr << "unknown policy: " << policy << "\n";
        return 1;
    }

    const auto wl = harness.profile(specFor(workload));
    const SystemConfig &config = harness.config();
    const SimResult &base = wl->base;

    // ddr-only is the profiling baseline itself; every other policy
    // is one recorded pass.
    SimResult result = base;
    if (policy != "ddr-only") {
        const auto outcomes = harness.runPasses(
            std::vector<runner::PassDesc>{{wl, policy}},
            [&](std::size_t) {
                if (const auto it = statics.find(policy);
                    it != statics.end())
                    return runStaticPolicy(config, wl->data,
                                           it->second, wl->profile());
                if (const auto it = dynamics.find(policy);
                    it != dynamics.end())
                    return runDynamic(config, wl->data, it->second,
                                      wl->profile());
                return runAnnotated(config, wl->data, wl->profile());
            });
        if (!outcomes[0].ok()) {
            std::cout << workload << " / " << policy << ": "
                      << runner::passStatusName(outcomes[0].status)
                      << "\n";
            return 0; // finish() reports the failure and exits 3.
        }
        result = outcomes[0].result;
    }

    TextTable table({"metric", "value"});
    table.addRow({"IPC", TextTable::num(result.ipc, 3)});
    table.addRow({"IPC vs DDR-only",
                  TextTable::ratio(result.ipc / base.ipc)});
    table.addRow({"SER vs DDR-only",
                  TextTable::ratio(result.ser / base.ser, 1)});
    table.addRow({"HBM traffic share",
                  TextTable::percent(result.hbmAccessFraction)});
    table.addRow({"avg read latency (cycles)",
                  TextTable::num(result.avgReadLatency, 0)});
    table.addRow({"pages migrated",
                  TextTable::num(result.migratedPages)});
    table.print(std::cout, workload + " / " + result.label);
    return 0;
}

int
cmdSweep(Harness &harness, const std::string &workload)
{
    const auto wl = harness.profile(specFor(workload));
    const SystemConfig &config = harness.config();

    const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75,
                                           1.0};
    std::vector<runner::PassDesc> descs;
    for (const double fraction : fractions)
        descs.push_back({wl, "hot@" + TextTable::num(fraction, 2)});
    const auto outcomes = harness.runPasses(
        descs, [&](std::size_t i) {
            SimResult result = runHotFraction(
                config, wl->data, wl->profile(), fractions[i]);
            result.label += '@';
            result.label += TextTable::num(fractions[i], 2);
            return result;
        });

    TextTable table({"hot fraction", "IPC vs DDR-only",
                     "SER vs DDR-only"});
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        if (!outcomes[i].ok()) {
            table.addRow(
                {TextTable::num(fractions[i], 2),
                 runner::passStatusName(outcomes[i].status), "-"});
            continue;
        }
        const auto &result = outcomes[i].result;
        table.addRow(
            {TextTable::num(fractions[i], 2),
             TextTable::ratio(result.ipc / wl->base.ipc),
             TextTable::ratio(result.ser / wl->base.ser, 1)});
    }
    table.print(std::cout, workload + ": hot-fraction frontier");
    return 0;
}

int
cmdFaultsim(runner::ThreadPool &pool, double stacked_factor)
{
    TextTable table({"memory", "ECC", "P(UE)", "FIT_unc/GB"});
    const auto hbm =
        FaultSim(FaultSimConfig::hbmSecDed(stacked_factor))
            .run(100000, 42, &pool);
    auto ddr_config = FaultSimConfig::ddrChipKill();
    ddr_config.fitBoost = 30.0;
    const auto ddr = FaultSim(ddr_config).run(1000000, 42, &pool);
    table.addRow({"die-stacked", "SEC-DED",
                  TextTable::num(hbm.pUncorrected, 8),
                  TextTable::num(hbm.fitUncorrectedPerGB, 3)});
    table.addRow({"off-package", "ChipKill",
                  TextTable::num(ddr.pUncorrected, 8),
                  TextTable::num(ddr.fitUncorrectedPerGB, 5)});
    table.print(std::cout, "FaultSim campaign");
    return 0;
}

int
cmdTrace(const std::string &workload, const std::string &path)
{
    const auto data = prepareWorkload(specFor(workload));
    writeWorkloadTrace(path, data.traces);
    const auto restored = readWorkloadTrace(path);
    const auto stats = computeStats(restored);
    std::cout << "wrote " << stats.requests << " requests ("
              << restored.size() << " cores) to " << path
              << "; verified round-trip, MPKI "
              << TextTable::num(stats.mpki(), 1) << "\n";
    return 0;
}

void
usage()
{
    std::cout
        << "usage: ramp_cli [flags] <command> [...]\n"
        << "  workloads | profile <wl> | run <wl> <policy> |\n"
        << "  sweep <wl> | faultsim [factor] | trace <wl> <file>\n"
        << runner::RunnerOptions::flagsHelp();
}

} // namespace

int
main(int argc, char **argv)
{
    return runner::benchMain("ramp_cli", [&] {
        Harness harness("ramp_cli", argc, argv);
        const auto &args = harness.options().positional;
        if (args.empty()) {
            usage();
            return 1;
        }

        const std::string &command = args[0];
        int rc = -1;
        if (command == "workloads")
            rc = cmdWorkloads();
        else if (command == "profile" && args.size() >= 2)
            rc = cmdProfile(harness, args[1]);
        else if (command == "run" && args.size() >= 3)
            rc = cmdRun(harness, args[1], args[2]);
        else if (command == "sweep" && args.size() >= 2)
            rc = cmdSweep(harness, args[1]);
        else if (command == "faultsim") {
            if (const auto factor =
                    readFinite(args.size() >= 2 ? args[1] : "3"))
                rc = cmdFaultsim(harness.pool(), *factor);
        } else if (command == "trace" && args.size() >= 3)
            rc = cmdTrace(args[1], args[2]);

        if (rc < 0) {
            usage();
            return 1;
        }
        const int finish_rc = harness.finish();
        return rc != 0 ? rc : finish_rc;
    });
}
