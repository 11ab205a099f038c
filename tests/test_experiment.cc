/**
 * @file
 * Tests for the experiment harness (src/hma/experiment).
 */

#include <gtest/gtest.h>

#include "hma/experiment.hh"

namespace ramp
{
namespace
{

/** Shared small-workload fixture (one generation per suite). */
class ExperimentFixture : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        GeneratorOptions options;
        options.traceScale = 0.03;
        data_ = new WorkloadData(
            prepareWorkload(mixWorkload("mix1"), options));
        config_ = new SystemConfig(SystemConfig::scaledDefault());
        config_->fcIntervalCycles = 100000;
        config_->meaIntervalCycles = 5000;
        base_ = new SimResult(runDdrOnly(*config_, *data_));
    }

    static void TearDownTestSuite()
    {
        delete base_;
        delete config_;
        delete data_;
        base_ = nullptr;
        config_ = nullptr;
        data_ = nullptr;
    }

    static WorkloadData *data_;
    static SystemConfig *config_;
    static SimResult *base_;
};

WorkloadData *ExperimentFixture::data_ = nullptr;
SystemConfig *ExperimentFixture::config_ = nullptr;
SimResult *ExperimentFixture::base_ = nullptr;

TEST_F(ExperimentFixture, HelpersCompileOnFirstUseNotInPrepare)
{
    GeneratorOptions options;
    options.traceScale = 0.01;
    const WorkloadData fresh =
        prepareWorkload(mixWorkload("mix1"), options);
    EXPECT_FALSE(fresh.lazyCompiled.built());
    const SimResult from_compiled = runDdrOnly(*config_, fresh);
    EXPECT_TRUE(fresh.lazyCompiled.built());
    EXPECT_EQ(fresh.compiled().pages(),
              from_compiled.profile.footprintPages());

    HmaSystem system(*config_);
    const SimResult from_traces = system.run(
        fresh.traces,
        buildStaticPlacement(StaticPolicy::DdrOnly, PageProfile{},
                             config_->hbmPages()));
    EXPECT_EQ(from_compiled.makespan, from_traces.makespan);
    EXPECT_EQ(from_compiled.memoryAvf, from_traces.memoryAvf);
    EXPECT_EQ(from_compiled.ser, from_traces.ser);
}

TEST_F(ExperimentFixture, DdrOnlyProfilesEverything)
{
    EXPECT_EQ(base_->label, "ddr-only");
    EXPECT_GT(base_->profile.footprintPages(), 0u);
    EXPECT_EQ(base_->hbmAccessFraction, 0.0);
    double avf_sum = 0;
    for (const auto &[page, stats] : base_->profile.pages())
        avf_sum += stats.avf;
    EXPECT_GT(avf_sum, 0.0);
}

TEST_F(ExperimentFixture, PerfStaticBeatsBaseline)
{
    const auto perf = runStaticPolicy(
        *config_, *data_, StaticPolicy::PerfFocused, base_->profile);
    EXPECT_EQ(perf.label, "perf-focused");
    EXPECT_GT(perf.ipc, base_->ipc);
    EXPECT_GT(perf.ser, base_->ser);
    EXPECT_GT(perf.hbmAccessFraction, 0.2);
}

TEST_F(ExperimentFixture, ReliabilityPoliciesTradeIpcForSer)
{
    const auto perf = runStaticPolicy(
        *config_, *data_, StaticPolicy::PerfFocused, base_->profile);
    for (const auto policy :
         {StaticPolicy::ReliabilityFocused, StaticPolicy::Balanced,
          StaticPolicy::WrRatio, StaticPolicy::Wr2Ratio}) {
        const auto result = runStaticPolicy(*config_, *data_, policy,
                                            base_->profile);
        EXPECT_LT(result.ser, perf.ser) << policyName(policy);
        EXPECT_LE(result.ipc, perf.ipc * 1.02) << policyName(policy);
        EXPECT_GE(result.ipc, base_->ipc * 0.9)
            << policyName(policy);
    }
}

TEST_F(ExperimentFixture, HotFractionSweepIsMonotonicInSer)
{
    double last_ser = -1;
    for (const double fraction : {0.0, 0.5, 1.0}) {
        const auto result = runHotFraction(*config_, *data_,
                                           base_->profile, fraction);
        EXPECT_GE(result.ser, last_ser);
        last_ser = result.ser;
    }
}

TEST_F(ExperimentFixture, DynamicSchemesRun)
{
    for (const auto scheme :
         {DynamicScheme::PerfFocused, DynamicScheme::FcReliability,
          DynamicScheme::CrossCounter}) {
        const auto result =
            runDynamic(*config_, *data_, scheme, base_->profile);
        EXPECT_EQ(result.label, dynamicSchemeName(scheme));
        EXPECT_GT(result.ipc, 0.0);
        EXPECT_GT(result.hbmAccessFraction, 0.0);
    }
}

TEST_F(ExperimentFixture, ReliabilityMigrationLowersSer)
{
    const auto perf = runDynamic(*config_, *data_,
                                 DynamicScheme::PerfFocused,
                                 base_->profile);
    const auto fc = runDynamic(*config_, *data_,
                               DynamicScheme::FcReliability,
                               base_->profile);
    EXPECT_LT(fc.ser, perf.ser);
}

TEST_F(ExperimentFixture, AnnotatedPlacementRuns)
{
    const auto result =
        runAnnotated(*config_, *data_, base_->profile);
    EXPECT_EQ(result.label, "annotated");
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.hbmAccessFraction, 0.0);
    const auto selection = annotationsFor(*data_, base_->profile,
                                          config_->hbmPages());
    EXPECT_GT(selection.count(), 0u);
    EXPECT_LE(selection.pinnedPages, config_->hbmPages());
}

TEST_F(ExperimentFixture, CustomEngineHelper)
{
    FcReliabilityMigration engine(config_->fcIntervalCycles, 64);
    const auto result =
        runWithEngine(*config_, *data_, engine, base_->profile);
    EXPECT_EQ(result.label, std::string("fc-migration"));
    EXPECT_GT(result.ipc, 0.0);
}

TEST(Experiment, MakeEngineHonoursConfig)
{
    SystemConfig config = SystemConfig::scaledDefault();
    config.fcIntervalCycles = 120000;
    config.meaIntervalCycles = 12000;
    const auto engine =
        makeEngine(DynamicScheme::PerfFocused, config);
    EXPECT_EQ(engine->interval(), 120000u);
    EXPECT_EQ(config.fcPerMea(), 10u);
    const auto cc = makeEngine(DynamicScheme::CrossCounter, config);
    EXPECT_EQ(cc->interval(), config.meaIntervalCycles);
}

TEST(Experiment, SchemeNames)
{
    EXPECT_STREQ(dynamicSchemeName(DynamicScheme::PerfFocused),
                 "perf-migration");
    EXPECT_STREQ(dynamicSchemeName(DynamicScheme::CrossCounter),
                 "cc-migration");
}

} // namespace
} // namespace ramp
