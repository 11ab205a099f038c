#include "trace/generator.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "prof/prof.hh"

namespace ramp
{

namespace
{

/** Runtime state of one structure instance during generation. */
struct StructureState
{
    const StructureSpec *spec = nullptr;

    /** First page of the instance in the physical layout. */
    PageId firstPage = 0;

    /** @{ @name Zipf state */
    std::shared_ptr<const ZipfSampler> zipf;
    std::uint64_t phaseOffset = 0;
    /** @} */

    /** @{ @name Streaming state */
    std::uint64_t cursorLine = 0;
    std::uint32_t passIndex = 0; ///< 0 = write pass, 1.. = read passes
    /** @} */
};

/** Geometric-ish non-memory gap with the profile's mean. */
std::uint32_t
drawGap(Rng &rng, double mean_gap)
{
    if (mean_gap <= 0)
        return 0;
    const double draw = rng.nextExponential(1.0 / mean_gap);
    return static_cast<std::uint32_t>(
        std::min(draw, 1.0e9));
}

/** Produce the next access of a Zipf structure. */
MemRequest
nextZipfAccess(StructureState &state, Rng &rng)
{
    const auto &spec = *state.spec;
    const std::uint64_t rank = state.zipf->sample(rng);
    const PageId page =
        state.firstPage + (rank + state.phaseOffset) % spec.pages;
    const std::uint64_t line = rng.nextRange(linesPerPage);

    MemRequest req;
    req.addr = pageBase(page) + line * lineSize;
    req.isWrite = rng.nextBool(spec.writeFraction);
    if (spec.churn > 0 && rng.nextBool(spec.churn))
        ++state.phaseOffset;
    return req;
}

/** Produce the next access of a Streaming structure. */
MemRequest
nextStreamAccess(StructureState &state, Rng &rng)
{
    const auto &spec = *state.spec;
    const std::uint64_t total_lines = spec.pages * linesPerPage;
    if (spec.strideLines == 0 || spec.strideLines >= total_lines)
        ramp_fatal("structure ", spec.name,
                   " stride must be in [1, lines)");

    for (;;) {
        const std::uint64_t line = state.cursorLine;
        state.cursorLine += spec.strideLines;
        if (state.cursorLine >= total_lines) {
            // Wrap; a stride that does not divide the structure size
            // rotates the phase, spreading coverage across passes.
            state.cursorLine -= total_lines;
            state.passIndex =
                (state.passIndex + 1) % (spec.readPasses + 1);
        }

        const bool write_pass = state.passIndex == 0;
        if (!write_pass && !rng.nextBool(spec.readProbability))
            continue; // line skipped by this consumer pass

        MemRequest req;
        req.addr = state.firstPage * pageSize + line * lineSize;
        req.isWrite = write_pass;
        return req;
    }
}

} // namespace

std::vector<CoreTrace>
generateTraces(const WorkloadSpec &spec, const WorkloadLayout &layout,
               const GeneratorOptions &options)
{
    if (spec.coreBenchmarks.size() != workloadCores)
        ramp_fatal("workload ", spec.name, " must define ",
                   workloadCores, " cores");

    RAMP_PROF_SCOPE_PMU(gen_prof, "trace.generate", "workload",
                        spec.name);

    // Zipf CDF construction is the expensive part of setup; identical
    // (pages, alpha) samplers are shared across cores and structures.
    std::vector<std::shared_ptr<const ZipfSampler>> sampler_cache;
    auto shared_sampler = [&](std::uint64_t pages, double alpha) {
        for (const auto &sampler : sampler_cache)
            if (sampler->size() == pages && sampler->alpha() == alpha)
                return sampler;
        sampler_cache.push_back(
            std::make_shared<const ZipfSampler>(pages, alpha));
        return sampler_cache.back();
    };

    std::vector<CoreTrace> traces(workloadCores);

    for (int core = 0; core < workloadCores; ++core) {
        const auto &profile =
            benchmarkProfile(spec.coreBenchmarks[
                static_cast<std::size_t>(core)]);
        Rng rng(options.seed +
                0x9e3779b97f4a7c15ULL *
                    static_cast<std::uint64_t>(core + 1));

        // Collect this core's structure instances from the layout.
        std::vector<StructureState> states;
        std::vector<double> weight_cdf;
        double weight_sum = 0;
        for (const auto &range : layout.ranges) {
            if (range.core != core)
                continue;
            const auto &st =
                profile.structures[range.structureIndex];
            StructureState state;
            state.spec = &st;
            state.firstPage = range.firstPage;
            if (st.pattern == AccessPattern::Zipf)
                state.zipf = shared_sampler(st.pages, st.zipfAlpha);
            else
                state.cursorLine =
                    rng.nextRange(st.pages * linesPerPage);
            states.push_back(std::move(state));
            weight_sum += st.weight;
            weight_cdf.push_back(weight_sum);
        }
        if (states.empty())
            ramp_panic("core ", core, " has no structures in layout");
        for (auto &weight : weight_cdf)
            weight /= weight_sum;

        const auto requests = static_cast<std::uint64_t>(
            static_cast<double>(profile.requestsPerCore) *
            options.traceScale);
        const double mean_gap =
            std::max(0.0, 1000.0 / profile.mpki - 1.0);

        auto &trace = traces[static_cast<std::size_t>(core)];
        trace.reserve(requests);

        for (std::uint64_t i = 0; i < requests; ++i) {
            const double pick = rng.nextDouble();
            const auto it = std::lower_bound(weight_cdf.begin(),
                                             weight_cdf.end(), pick);
            auto &state = states[static_cast<std::size_t>(
                it - weight_cdf.begin())];

            MemRequest req =
                state.spec->pattern == AccessPattern::Zipf
                    ? nextZipfAccess(state, rng)
                    : nextStreamAccess(state, rng);
            req.core = static_cast<CoreId>(core);
            req.gap = drawGap(rng, mean_gap);
            trace.push_back(req);
        }
    }
    return traces;
}

std::vector<CoreTrace>
generateTraces(const WorkloadSpec &spec, const GeneratorOptions &options)
{
    return generateTraces(spec, buildLayout(spec), options);
}

} // namespace ramp
