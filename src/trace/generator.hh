/**
 * @file
 * Synthetic trace generator (the PinPlay/SimPoints substitute).
 *
 * Produces deterministic per-core memory request streams from a
 * WorkloadSpec. The output is memory-level (post-L2) traffic,
 * calibrated directly by the benchmark profiles.
 */

#ifndef RAMP_TRACE_GENERATOR_HH
#define RAMP_TRACE_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "trace/trace.hh"
#include "trace/workload.hh"

namespace ramp
{

/** Knobs of a generation run. */
struct GeneratorOptions
{
    /** Master seed; identical options produce identical traces. */
    std::uint64_t seed = 1;

    /** Multiplies every profile's requestsPerCore (tests use < 1). */
    double traceScale = 1.0;
};

/**
 * Generate the per-core traces of a workload.
 *
 * @param spec workload (validated against the profile registry)
 * @param layout address layout from buildLayout(spec)
 * @param options generation knobs
 * @return one program-ordered trace per core
 */
std::vector<CoreTrace> generateTraces(const WorkloadSpec &spec,
                                      const WorkloadLayout &layout,
                                      const GeneratorOptions &options);

/** Convenience overload that builds the layout internally. */
std::vector<CoreTrace> generateTraces(const WorkloadSpec &spec,
                                      const GeneratorOptions &options);

} // namespace ramp

#endif // RAMP_TRACE_GENERATOR_HH
