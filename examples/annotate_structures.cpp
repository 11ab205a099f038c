/**
 * @file
 * Program-annotation walkthrough (paper Section 7).
 *
 * Shows the workflow a developer (or profile-guided compiler pass)
 * follows to pin hot & low-risk data structures in HBM:
 *   1. profile the program's structures (hotness density + AVF),
 *   2. inspect the ranked annotation candidates,
 *   3. apply the chosen annotations (loader pins the pages),
 *   4. verify pinned pages survive a reliability-aware migration
 *      scheme running on top.
 */

#include <exception>
#include <iostream>

#include "common/table.hh"
#include "hma/experiment.hh"

using namespace ramp;

int
main(int argc, char **argv)
try {
    const std::string program = argc > 1 ? argv[1] : "xsbench";
    const WorkloadData data =
        prepareWorkload(homogeneousWorkload(program));
    const SystemConfig config = SystemConfig::scaledDefault();

    // 1. Profile pass.
    const SimResult base = runDdrOnly(config, data);

    // 2. Structure-level view: what would a profiler report?
    const auto structures =
        profileStructures(data.layout, base.profile);
    TextTable view({"structure", "pages (16 copies)", "accesses/page",
                    "avg AVF", "verdict"});
    const double mean_avf = base.profile.meanAvf();
    for (const auto &entry : structures) {
        const bool low_risk = entry.avgAvf <= mean_avf;
        view.addRow({entry.structure, TextTable::num(entry.pages),
                     TextTable::num(entry.hotnessPerPage(), 1),
                     TextTable::percent(entry.avgAvf),
                     low_risk ? "annotation candidate"
                              : "high risk - leave in DDR"});
    }
    view.print(std::cout, program + ": structure profile");

    // 3. Selection: fill the HBM with the densest low-risk
    //    structures (what the pragma/attribute list would contain).
    const auto selection =
        annotationsFor(data, base.profile, config.hbmPages());
    std::cout << "\nannotations chosen (" << selection.count()
              << "):\n";
    for (const auto &annotation : selection.annotations)
        std::cout << "  ramp::pin(\"" << annotation.structure
                  << "\")  // " << annotation.pages << " pages\n";

    // 4. Run with pinned placement, then with FC migration layered
    //    on top: pinned pages are immune to migration (Section 7).
    const auto pinned = runAnnotated(config, data, base.profile);
    const auto perf = runStaticPolicy(
        config, data, StaticPolicy::PerfFocused, base.profile);

    auto engine = makeEngine(DynamicScheme::FcReliability, config);
    HmaSystem system(config);
    auto hybrid = system.run(
        data.traces, data.compiled(),
        buildAnnotatedPlacement(data.layout, selection,
                                config.hbmPages()),
        engine.get());
    hybrid.label = "annotated + fc-migration";

    TextTable table({"configuration", "IPC vs perf-focused",
                     "SER vs DDR-only"});
    auto row = [&](const SimResult &result) {
        table.addRow({result.label,
                      TextTable::ratio(result.ipc / perf.ipc),
                      TextTable::ratio(result.ser / base.ser, 1)});
    };
    row(perf);
    row(pinned);
    row(hybrid);
    std::cout << "\n";
    table.print(std::cout, "annotation outcomes");
    return 0;
} catch (const std::exception &error) {
    std::cerr << "annotate_structures: " << error.what() << "\n";
    return 1;
}
