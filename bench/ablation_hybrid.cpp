/**
 * @file
 * Ablation: annotation-pinned placement combined with a
 * reliability-aware migration engine.
 *
 * Section 7 closes with: "Supplementing such an annotation-driven
 * static data placement scheme with a reliability-aware migration
 * mechanism could potentially further improve the overall
 * reliability of the system." This bench quantifies that suggestion:
 * annotations pin half the HBM (pinning everything would leave the
 * engine nothing to manage), and the FC engine manages the remaining
 * capacity; evictions never touch pins.
 */

#include <iostream>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

int
main(int argc, char **argv)
{
    return benchMain("ablation_hybrid", [&] {
        Harness harness("ablation_hybrid", argc, argv);
        const SystemConfig &config = harness.config();

        const auto profiled = harness.profileAll(standardWorkloads());

        // Two passes per workload: even index = annotation-only
        // placement, odd index = annotations + the FC engine.
        std::vector<PassDesc> descs;
        for (const auto &wl : profiled) {
            descs.push_back({wl, "annotated"});
            descs.push_back({wl, "hybrid"});
        }
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const auto &wl = *profiled[i / 2];
                if (i % 2 == 0)
                    return runAnnotated(config, wl.data,
                                        wl.profile());

                const auto selection = annotationsFor(
                    wl.data, wl.profile(), config.hbmPages() / 2);
                auto pinned_half = buildAnnotatedPlacement(
                    wl.data.layout, selection, config.hbmPages() / 2);
                // Give the full HBM to the run: the other half is
                // the engine's to manage.
                PlacementMap placement(config.hbmPages());
                for (const PageId page : pinned_half.hbmPages())
                    placement.placePinned(page, MemoryId::HBM);
                const auto engine =
                    makeEngine(DynamicScheme::FcReliability, config);
                HmaSystem system(config);
                return system.run(wl.data.traces, wl.data.compiled(),
                                  std::move(placement), engine.get());
            });

        TextTable table({"workload", "annot IPC", "hybrid IPC",
                         "annot SER", "hybrid SER", "hybrid moved"});
        RatioColumn ipc_gain, ser_gain;

        for (std::size_t i = 0; i < profiled.size(); ++i) {
            const auto &wl = *profiled[i];
            const auto &annotated_out = outcomes[2 * i];
            const auto &hybrid_out = outcomes[2 * i + 1];
            if (!annotated_out.ok() || !hybrid_out.ok()) {
                table.addRow({wl.name(),
                              statusCell(annotated_out.ok()
                                             ? hybrid_out
                                             : annotated_out),
                              "-", "-", "-", "-"});
                continue;
            }
            const auto &annotated = annotated_out.result;
            const auto &hybrid = hybrid_out.result;

            ipc_gain.add(hybrid.ipc / annotated.ipc);
            ser_gain.add(annotated.ser / hybrid.ser);
            table.addRow({
                wl.name(),
                TextTable::ratio(annotated.ipc / wl.base.ipc),
                TextTable::ratio(hybrid.ipc / wl.base.ipc),
                TextTable::ratio(annotated.ser / wl.base.ser, 1),
                TextTable::ratio(hybrid.ser / wl.base.ser, 1),
                TextTable::num(hybrid.migratedPages),
            });
        }
        table.print(std::cout,
                    "Ablation: annotations + FC migration "
                    "(Section 7 future-work suggestion)");
        std::cout << "\nhybrid vs annotation-only: IPC "
                  << TextTable::ratio(ipc_gain.mean())
                  << ", SER reduction "
                  << TextTable::ratio(ser_gain.mean(), 2) << "\n";
        return harness.finish();
    });
}
