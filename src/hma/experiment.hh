/**
 * @file
 * Experiment harness helpers shared by benches, examples, and tests.
 *
 * Encodes the paper's two-phase methodology: a DDR-only profiling
 * pass measures per-page hotness and AVF (Section 4), then policy
 * passes replay the same traces under a placement or migration
 * scheme. The helpers also build the paper-prescribed initial
 * placements for the dynamic schemes (Section 6: performance
 * migration starts from the hot-oracular placement, reliability-
 * aware migration from the hot & low-risk placement).
 */

#ifndef RAMP_HMA_EXPERIMENT_HH
#define RAMP_HMA_EXPERIMENT_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "annotation/annotation.hh"
#include "faults/injector.hh"
#include "hma/system.hh"
#include "placement/policies.hh"
#include "trace/compiled.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace ramp
{

/**
 * The compiled form of a WorkloadData's traces, built at most once, on
 * first use, by whichever thread asks first. A copy starts
 * uncompiled: it is derived data, rebuilt on demand.
 */
class LazyCompiledTrace
{
  public:
    LazyCompiledTrace() = default;
    LazyCompiledTrace(const LazyCompiledTrace &) {}
    LazyCompiledTrace &operator=(const LazyCompiledTrace &)
    {
        state_ = std::make_unique<State>();
        return *this;
    }

    /** `traces` compiled (they must not change after the first call). */
    const CompiledTrace &get(const std::vector<CoreTrace> &traces) const;

    /** True once get() has built the compiled form. */
    bool built() const { return state_->built.load(); }

  private:
    struct State
    {
        std::once_flag once;
        std::atomic<bool> built{false};
        CompiledTrace trace;
    };
    std::unique_ptr<State> state_ = std::make_unique<State>();
};

/** A workload's spec, layout, and generated traces, bundled. */
struct WorkloadData
{
    WorkloadSpec spec;
    WorkloadLayout layout;
    std::vector<CoreTrace> traces;

    /**
     * The traces' page-slot column, shared by every pass over them
     * (thread-safe; built on first call, never by prepareWorkload).
     */
    const CompiledTrace &compiled() const
    {
        return lazyCompiled.get(traces);
    }

    /** compiled()'s store; built() tells whether it has run yet. */
    LazyCompiledTrace lazyCompiled;
};

/** Generate a workload's traces (deterministic in the options). */
WorkloadData prepareWorkload(const WorkloadSpec &spec,
                             const GeneratorOptions &options = {});

/** The DDR-only profiling pass (also the IPC/SER baseline). */
SimResult runDdrOnly(const SystemConfig &config,
                     const WorkloadData &data);

/** One static placement pass driven by a prior profile. */
SimResult runStaticPolicy(const SystemConfig &config,
                          const WorkloadData &data, StaticPolicy policy,
                          const PageProfile &profile);

/** One Figure 1 sweep point (top fraction of hot pages in HBM). */
SimResult runHotFraction(const SystemConfig &config,
                         const WorkloadData &data,
                         const PageProfile &profile, double fraction);

/** The paper's three dynamic schemes. */
enum class DynamicScheme
{
    PerfFocused,   ///< Section 6.1
    FcReliability, ///< Section 6.2
    CrossCounter,  ///< Section 6.4
};

/** Name of a dynamic scheme. */
const char *dynamicSchemeName(DynamicScheme scheme);

/** Build the engine a scheme prescribes, with config intervals. */
std::unique_ptr<MigrationEngine>
makeEngine(DynamicScheme scheme, const SystemConfig &config);

/**
 * One dynamic migration pass. The initial placement follows the
 * paper: PerfFocused starts from the hot-oracular static placement;
 * the reliability-aware schemes start from the balanced (hot &
 * low-risk) oracular placement.
 */
SimResult runDynamic(const SystemConfig &config,
                     const WorkloadData &data, DynamicScheme scheme,
                     const PageProfile &profile);

/**
 * Run a custom engine (ablations): like runDynamic but with a
 * caller-built engine and explicit initial placement policy. The
 * run binds the engine to its page slots, so pass a fresh engine
 * to every call (a reused one panics).
 */
SimResult runWithEngine(const SystemConfig &config,
                        const WorkloadData &data,
                        MigrationEngine &engine,
                        StaticPolicy initial_policy,
                        const PageProfile &profile);

/**
 * runWithEngine starting from the reliability-aware schemes' initial
 * placement (balanced, filled to capacity).
 */
SimResult runWithEngine(const SystemConfig &config,
                        const WorkloadData &data,
                        MigrationEngine &engine,
                        const PageProfile &profile);

/**
 * runStaticPolicy under online fault injection: a fresh
 * FaultInjector is built from `faults` for the pass, so identical
 * configs reproduce identical fault schedules.
 */
SimResult runStaticFaulted(const SystemConfig &config,
                           const WorkloadData &data,
                           StaticPolicy policy,
                           const PageProfile &profile,
                           const InjectorConfig &faults);

/** runDynamic under online fault injection (fresh injector). */
SimResult runDynamicFaulted(const SystemConfig &config,
                            const WorkloadData &data,
                            DynamicScheme scheme,
                            const PageProfile &profile,
                            const InjectorConfig &faults);

/** Annotation selection for a profiled workload (Section 7). */
AnnotationSelection annotationsFor(const WorkloadData &data,
                                   const PageProfile &profile,
                                   std::uint64_t hbm_capacity_pages);

/** The annotation-pinned static placement pass. */
SimResult runAnnotated(const SystemConfig &config,
                       const WorkloadData &data,
                       const PageProfile &profile);

} // namespace ramp

#endif // RAMP_HMA_EXPERIMENT_HH
