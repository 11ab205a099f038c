#include "hma/experiment.hh"

#include "common/logging.hh"

namespace ramp
{

const CompiledTrace &
LazyCompiledTrace::get(const std::vector<CoreTrace> &traces) const
{
    std::call_once(state_->once, [&] {
        state_->trace.compile(traces);
        state_->built.store(true);
    });
    return state_->trace;
}

WorkloadData
prepareWorkload(const WorkloadSpec &spec,
                const GeneratorOptions &options)
{
    WorkloadData data;
    data.spec = spec;
    validateWorkloadSpec(spec);
    data.layout = buildLayout(spec);
    data.traces = generateTraces(spec, data.layout, options);
    return data;
}

SimResult
runDdrOnly(const SystemConfig &config, const WorkloadData &data)
{
    HmaSystem system(config);
    auto result = system.run(
        data.traces, data.compiled(),
        buildStaticPlacement(StaticPolicy::DdrOnly, PageProfile{},
                             config.hbmPages()));
    result.label = policyName(StaticPolicy::DdrOnly);
    return result;
}

SimResult
runStaticPolicy(const SystemConfig &config, const WorkloadData &data,
                StaticPolicy policy, const PageProfile &profile)
{
    HmaSystem system(config);
    auto result = system.run(
        data.traces, data.compiled(),
        buildStaticPlacement(policy, profile, config.hbmPages()));
    result.label = policyName(policy);
    return result;
}

SimResult
runHotFraction(const SystemConfig &config, const WorkloadData &data,
               const PageProfile &profile, double fraction)
{
    HmaSystem system(config);
    auto result = system.run(
        data.traces, data.compiled(),
        buildHotFractionPlacement(profile, config.hbmPages(),
                                  fraction));
    result.label = "hot-fraction";
    return result;
}

const char *
dynamicSchemeName(DynamicScheme scheme)
{
    switch (scheme) {
      case DynamicScheme::PerfFocused: return "perf-migration";
      case DynamicScheme::FcReliability: return "fc-migration";
      case DynamicScheme::CrossCounter: return "cc-migration";
    }
    return "?";
}

std::unique_ptr<MigrationEngine>
makeEngine(DynamicScheme scheme, const SystemConfig &config)
{
    switch (scheme) {
      case DynamicScheme::PerfFocused:
        return std::make_unique<PerfFocusedMigration>(
            config.fcIntervalCycles, config.fcMigrationCapPages);
      case DynamicScheme::FcReliability:
        return std::make_unique<FcReliabilityMigration>(
            config.fcIntervalCycles, config.fcMigrationCapPages);
      case DynamicScheme::CrossCounter:
        return std::make_unique<CrossCounterMigration>(
            config.meaIntervalCycles, config.fcPerMea(), 32,
            config.ccPromotionCapPages,
            config.fcMigrationCapPages);
    }
    ramp_panic("unknown dynamic scheme");
}

SimResult
runDynamic(const SystemConfig &config, const WorkloadData &data,
           DynamicScheme scheme, const PageProfile &profile)
{
    // Cold-start avoidance (Section 6.1/6.2): begin from the
    // appropriate oracular placement — top-hot for the performance
    // scheme, top hot & low-risk (filled to capacity) for the
    // reliability-aware ones.
    auto initial =
        scheme == DynamicScheme::PerfFocused
            ? buildStaticPlacement(StaticPolicy::PerfFocused, profile,
                                   config.hbmPages())
            : buildBalancedFilledPlacement(profile,
                                           config.hbmPages());

    const auto engine = makeEngine(scheme, config);
    HmaSystem system(config);
    auto result = system.run(data.traces, data.compiled(),
                             std::move(initial), engine.get());
    result.label = dynamicSchemeName(scheme);
    return result;
}

SimResult
runWithEngine(const SystemConfig &config, const WorkloadData &data,
              MigrationEngine &engine, StaticPolicy initial_policy,
              const PageProfile &profile)
{
    HmaSystem system(config);
    auto result = system.run(
        data.traces, data.compiled(),
        buildStaticPlacement(initial_policy, profile,
                             config.hbmPages()),
        &engine);
    result.label = engine.name();
    return result;
}

SimResult
runWithEngine(const SystemConfig &config, const WorkloadData &data,
              MigrationEngine &engine, const PageProfile &profile)
{
    HmaSystem system(config);
    auto result = system.run(
        data.traces, data.compiled(),
        buildBalancedFilledPlacement(profile, config.hbmPages()),
        &engine);
    result.label = engine.name();
    return result;
}

SimResult
runRegionStatic(const SystemConfig &config, const WorkloadData &data,
                StaticPolicy policy, const PageProfile &profile,
                const RegionConfig &region_config)
{
    HmaSystem system(config);
    auto result = system.run(
        data.traces, data.compiled(),
        buildRegionStaticPlacement(policy, profile, region_config,
                                   config.hbmPages()));
    result.label = std::string("region-") + policyName(policy);
    return result;
}

SimResult
runRegionDynamic(const SystemConfig &config, const WorkloadData &data,
                 const PageProfile &profile,
                 const RegionConfig &region_config,
                 std::vector<RegionScheme> schemes)
{
    if (schemes.empty())
        schemes = defaultRegionSchemes();
    RegionMigrationEngine engine(config.fcIntervalCycles,
                                 region_config, std::move(schemes));
    engine.seedFromProfile(profile);
    HmaSystem system(config);
    auto result = system.run(
        data.traces, data.compiled(),
        buildRegionStaticPlacement(StaticPolicy::Balanced, profile,
                                   region_config,
                                   config.hbmPages()),
        &engine);
    result.label = engine.name();
    return result;
}

SimResult
runStaticFaulted(const SystemConfig &config, const WorkloadData &data,
                 StaticPolicy policy, const PageProfile &profile,
                 const InjectorConfig &faults)
{
    FaultInjector injector(faults);
    HmaSystem system(config);
    auto result = system.run(
        data.traces, data.compiled(),
        buildStaticPlacement(policy, profile, config.hbmPages()),
        nullptr, &injector);
    result.label = policyName(policy);
    return result;
}

SimResult
runDynamicFaulted(const SystemConfig &config, const WorkloadData &data,
                  DynamicScheme scheme, const PageProfile &profile,
                  const InjectorConfig &faults)
{
    auto initial =
        scheme == DynamicScheme::PerfFocused
            ? buildStaticPlacement(StaticPolicy::PerfFocused, profile,
                                   config.hbmPages())
            : buildBalancedFilledPlacement(profile,
                                           config.hbmPages());
    FaultInjector injector(faults);
    const auto engine = makeEngine(scheme, config);
    HmaSystem system(config);
    auto result = system.run(data.traces, data.compiled(),
                             std::move(initial), engine.get(),
                             &injector);
    result.label = dynamicSchemeName(scheme);
    return result;
}

SimResult
runRegionDynamicFaulted(const SystemConfig &config,
                        const WorkloadData &data,
                        const PageProfile &profile,
                        const InjectorConfig &faults,
                        const RegionConfig &region_config,
                        std::vector<RegionScheme> schemes)
{
    if (schemes.empty())
        schemes = defaultRegionSchemes();
    RegionMigrationEngine engine(config.fcIntervalCycles,
                                 region_config, std::move(schemes));
    engine.seedFromProfile(profile);
    FaultInjector injector(faults);
    HmaSystem system(config);
    auto result = system.run(
        data.traces, data.compiled(),
        buildRegionStaticPlacement(StaticPolicy::Balanced, profile,
                                   region_config,
                                   config.hbmPages()),
        &engine, &injector);
    result.label = engine.name();
    return result;
}

AnnotationSelection
annotationsFor(const WorkloadData &data, const PageProfile &profile,
               std::uint64_t hbm_capacity_pages)
{
    const auto structures = profileStructures(data.layout, profile);
    return selectAnnotations(structures, hbm_capacity_pages,
                             profile.meanAvf());
}

SimResult
runAnnotated(const SystemConfig &config, const WorkloadData &data,
             const PageProfile &profile)
{
    const auto selection =
        annotationsFor(data, profile, config.hbmPages());
    HmaSystem system(config);
    auto result = system.run(
        data.traces, data.compiled(),
        buildAnnotatedPlacement(data.layout, selection,
                                config.hbmPages()));
    result.label = "annotated";
    return result;
}

} // namespace ramp
