/**
 * @file
 * Tests for the fault-tolerance layer (src/runner): crash-safe
 * atomic writes, the checksummed checkpoint journal (bit-exact
 * round trips, corruption containment, header quarantine), cache
 * entry quarantine, and kill-and-resume campaigns whose resumed
 * JSON report is byte-identical to an uninterrupted run.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/harness.hh"

namespace ramp
{
namespace
{

namespace fs = std::filesystem;

using runner::atomicWriteFile;
using runner::CheckpointJournal;
using runner::fnv1a64;
using runner::Harness;
using runner::hashHex;
using runner::PassDesc;
using runner::PassStatus;
using runner::ProfileCache;
using runner::RunnerOptions;
using runner::uniqueTmpPath;

GeneratorOptions
smallTraces()
{
    GeneratorOptions options;
    options.traceScale = 0.02;
    return options;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Scratch directory wiped at construction (stale runs must not hit). */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    fs::remove_all(dir);
    return dir;
}

/** A result exercising every codec field with hostile doubles. */
SimResult
nastyResult()
{
    SimResult result;
    result.label = "perf-focused@0.5 \"quoted\"\n";
    result.makespan = 123456789;
    result.instructions = UINT64_C(0xffffffffffffffff);
    result.requests = 42;
    result.reads = 30;
    result.writes = 12;
    result.ipc = 0.1 + 0.2; // famously not 0.3
    result.mpki = 5e-324;   // smallest denormal
    result.avgReadLatency = 1.0 / 3.0;
    result.hbmAccessFraction = std::nextafter(1.0, 0.0);
    result.hbmStats.reads = 7;
    result.hbmStats.writes = 3;
    result.hbmStats.rowHits = 5;
    result.hbmStats.rowMisses = 2;
    result.hbmStats.busBusyCycles = 99;
    result.hbmStats.totalReadLatency = 1234;
    result.ddrStats.reads = 23;
    result.ddrStats.totalReadLatency = 4321;
    result.migratedPages = 17;
    result.migrationEvents = 4;
    result.memoryAvf = 1e-300;
    result.ser = 2.5066282746310002; // irrational-ish tail
    return result;
}

std::uint64_t
bits(double value)
{
    std::uint64_t out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

void
expectBitExact(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(bits(a.ipc), bits(b.ipc));
    EXPECT_EQ(bits(a.mpki), bits(b.mpki));
    EXPECT_EQ(bits(a.avgReadLatency), bits(b.avgReadLatency));
    EXPECT_EQ(bits(a.hbmAccessFraction),
              bits(b.hbmAccessFraction));
    EXPECT_EQ(a.hbmStats.reads, b.hbmStats.reads);
    EXPECT_EQ(a.hbmStats.writes, b.hbmStats.writes);
    EXPECT_EQ(a.hbmStats.rowHits, b.hbmStats.rowHits);
    EXPECT_EQ(a.hbmStats.rowMisses, b.hbmStats.rowMisses);
    EXPECT_EQ(a.hbmStats.busBusyCycles, b.hbmStats.busBusyCycles);
    EXPECT_EQ(a.hbmStats.totalReadLatency,
              b.hbmStats.totalReadLatency);
    EXPECT_EQ(a.ddrStats.reads, b.ddrStats.reads);
    EXPECT_EQ(a.ddrStats.totalReadLatency,
              b.ddrStats.totalReadLatency);
    EXPECT_EQ(a.migratedPages, b.migratedPages);
    EXPECT_EQ(a.migrationEvents, b.migrationEvents);
    EXPECT_EQ(bits(a.memoryAvf), bits(b.memoryAvf));
    EXPECT_EQ(bits(a.ser), bits(b.ser));
}

TEST(Checksum, Fnv1aMatchesReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(""), UINT64_C(0xcbf29ce484222325));
    EXPECT_EQ(fnv1a64("a"), UINT64_C(0xaf63dc4c8601ec8c));
    EXPECT_EQ(fnv1a64("foobar"), UINT64_C(0x85944171f73967e8));
    EXPECT_EQ(hashHex(UINT64_C(0xcbf29ce484222325)),
              "cbf29ce484222325");
    EXPECT_EQ(hashHex(0).size(), 16u);
}

TEST(AtomicWrite, UniqueTmpPathsNeverCollide)
{
    const std::string a = uniqueTmpPath("/tmp/x/target");
    const std::string b = uniqueTmpPath("/tmp/x/target");
    EXPECT_NE(a, b);
    EXPECT_EQ(a.rfind("/tmp/x/", 0), 0u);
}

TEST(AtomicWrite, CreatesParentsAndLeavesNoTemps)
{
    const std::string dir = freshDir("ramp_atomic_write");
    const std::string path = dir + "/nested/deeper/out.json";
    ASSERT_TRUE(atomicWriteFile(path, "first"));
    EXPECT_EQ(slurp(path), "first");
    ASSERT_TRUE(atomicWriteFile(path, "second overwrite"));
    EXPECT_EQ(slurp(path), "second overwrite");
    // Only the target survives: temp files never linger.
    std::size_t entries = 0;
    for (const auto &entry :
         fs::directory_iterator(dir + "/nested/deeper")) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    fs::remove_all(dir);
}

TEST(JournalCodec, LineRoundTripsBitExactly)
{
    const SimResult result = nastyResult();
    const std::string line =
        CheckpointJournal::encodeLine("key-1", "astar", result);
    // One line, no raw control characters.
    EXPECT_EQ(line.find('\n'), std::string::npos);

    std::string key, workload;
    SimResult restored;
    ASSERT_TRUE(CheckpointJournal::decodeLine(line, key, workload,
                                              restored));
    EXPECT_EQ(key, "key-1");
    EXPECT_EQ(workload, "astar");
    expectBitExact(restored, result);
}

TEST(JournalCodec, RejectsTamperedLines)
{
    const std::string line = CheckpointJournal::encodeLine(
        "key-1", "astar", nastyResult());
    std::string key, workload;
    SimResult restored;

    // Flip one payload character.
    std::string flipped = line;
    const auto pos = flipped.find("\"result\":\"") + 11;
    flipped[pos] = flipped[pos] == '0' ? '1' : '0';
    EXPECT_FALSE(CheckpointJournal::decodeLine(flipped, key,
                                               workload, restored));

    // Truncate (a torn write).
    EXPECT_FALSE(CheckpointJournal::decodeLine(
        line.substr(0, line.size() / 2), key, workload, restored));

    // Garbage.
    EXPECT_FALSE(CheckpointJournal::decodeLine(
        "not json at all", key, workload, restored));
    EXPECT_FALSE(
        CheckpointJournal::decodeLine("", key, workload, restored));
}

TEST(Journal, PersistsAndResumesAcrossInstances)
{
    const std::string dir = freshDir("ramp_journal_resume");
    const SimResult result = nastyResult();
    {
        CheckpointJournal journal(dir, "tool_a");
        journal.append("pass-1", "astar", result);
        journal.append("pass-2", "mcf", result);
        // Duplicate appends are dropped.
        journal.append("pass-1", "astar", result);
        EXPECT_EQ(journal.stats().appended, 2u);
    }
    CheckpointJournal resumed(dir, "tool_a");
    EXPECT_EQ(resumed.stats().loaded, 2u);
    EXPECT_EQ(resumed.stats().corruptLines, 0u);

    std::string workload;
    SimResult restored;
    ASSERT_TRUE(resumed.lookup("pass-1", workload, restored));
    EXPECT_EQ(workload, "astar");
    expectBitExact(restored, result);
    EXPECT_FALSE(resumed.lookup("pass-3", workload, restored));
    EXPECT_EQ(resumed.stats().hits, 1u);
    fs::remove_all(dir);
}

TEST(Journal, CorruptLinesAreSkippedNotFatal)
{
    const std::string dir = freshDir("ramp_journal_corrupt");
    std::string path;
    {
        CheckpointJournal journal(dir, "tool_b");
        path = journal.path();
        journal.append("pass-1", "astar", nastyResult());
        journal.append("pass-2", "mcf", nastyResult());
    }
    // Simulate a torn final write plus a bit-flip mid-file.
    std::string contents = slurp(path);
    const auto first_line_start = contents.find('\n') + 1;
    contents[first_line_start + 20] ^= 0x4; // corrupt pass-1's line
    contents += "{\"key\":\"torn";          // torn trailing line
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << contents;
    }

    CheckpointJournal resumed(dir, "tool_b");
    EXPECT_EQ(resumed.stats().loaded, 1u);
    EXPECT_EQ(resumed.stats().corruptLines, 2u);
    std::string workload;
    SimResult restored;
    EXPECT_FALSE(resumed.lookup("pass-1", workload, restored));
    EXPECT_TRUE(resumed.lookup("pass-2", workload, restored));
    fs::remove_all(dir);
}

TEST(Journal, UnreadableHeaderIsQuarantined)
{
    const std::string dir = freshDir("ramp_journal_header");
    fs::create_directories(dir);
    const std::string path = dir + "/tool_c.ckpt.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a ramp journal\n";
    }
    CheckpointJournal journal(dir, "tool_c");
    EXPECT_EQ(journal.stats().loaded, 0u);
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    // The fresh journal is usable.
    journal.append("pass-1", "astar", nastyResult());
    CheckpointJournal resumed(dir, "tool_c");
    EXPECT_EQ(resumed.stats().loaded, 1u);
    fs::remove_all(dir);
}

TEST(ProfileCache, CorruptDiskEntryQuarantinedAndRecomputed)
{
    const SystemConfig config = SystemConfig::scaledDefault();
    const std::string dir = freshDir("ramp_profile_quarantine");
    const auto spec = homogeneousWorkload("astar");

    ProfileCache writer;
    writer.setDiskDir(dir);
    const auto computed = writer.get(config, spec, smallTraces());
    ASSERT_EQ(writer.stats().diskWrites, 1u);

    // Flip bytes in the middle of the cache entry.
    std::string entry_path;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".profile")
            entry_path = entry.path().string();
    ASSERT_FALSE(entry_path.empty());
    std::string bytes = slurp(entry_path);
    ASSERT_GT(bytes.size(), 64u);
    for (std::size_t i = bytes.size() / 2;
         i < bytes.size() / 2 + 8; ++i)
        bytes[i] = static_cast<char>(bytes[i] ^ 0xff);
    {
        std::ofstream out(entry_path,
                          std::ios::trunc | std::ios::binary);
        out << bytes;
    }

    ProfileCache reader;
    reader.setDiskDir(dir);
    testing::internal::CaptureStderr();
    const auto recomputed = reader.get(config, spec, smallTraces());
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(reader.stats().quarantined, 1u);
    EXPECT_EQ(reader.stats().diskHits, 0u);
    EXPECT_EQ(reader.stats().misses, 1u);
    EXPECT_TRUE(fs::exists(entry_path + ".corrupt"));
    // The recomputed profile matches the original computation.
    EXPECT_EQ(recomputed->profile().footprintPages(),
              computed->profile().footprintPages());
    EXPECT_DOUBLE_EQ(recomputed->base.ipc, computed->base.ipc);
    fs::remove_all(dir);
}

/**
 * The acceptance scenario: a campaign killed mid-run and resumed
 * from its checkpoint journal must emit a JSON report
 * byte-identical to an uninterrupted run.
 */
TEST(Journal, ResumedCampaignJsonIsByteIdentical)
{
    const std::string ckpt = freshDir("ramp_resume_ckpt");
    const std::string json_resumed =
        ::testing::TempDir() + "ramp_resume_b.json";
    const std::string json_reference =
        ::testing::TempDir() + "ramp_resume_c.json";
    std::remove(json_resumed.c_str());
    std::remove(json_reference.c_str());

    const std::vector<const char *> labels = {"perf", "balanced",
                                              "wr2"};
    const std::vector<StaticPolicy> policies = {
        StaticPolicy::PerfFocused, StaticPolicy::Balanced,
        StaticPolicy::Wr2Ratio};

    const auto run = [&](const RunnerOptions &options,
                         bool fail_mid) {
        Harness harness("resume_tool", options);
        const auto wl = harness.profile(homogeneousWorkload("astar"),
                                        smallTraces());
        std::vector<PassDesc> descs;
        for (const char *label : labels)
            descs.push_back({wl, label});
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                if (fail_mid && i == 1)
                    throw std::runtime_error(
                        "simulated mid-campaign crash");
                return runStaticPolicy(harness.config(), wl->data,
                                       policies[i], wl->profile());
            });
        testing::internal::CaptureStderr();
        const int code = harness.finish();
        testing::internal::GetCapturedStderr();
        return std::make_pair(outcomes, code);
    };

    // 1. "Killed" campaign: pass 1 dies, 0 and 2 are journaled.
    RunnerOptions interrupted;
    interrupted.jobs = 2;
    interrupted.checkpointDir = ckpt;
    EXPECT_EQ(run(interrupted, /*fail_mid=*/true).second, 3);

    // 2. Resume: journaled passes replay, the missing one runs.
    RunnerOptions resumed;
    resumed.jobs = 1;
    resumed.checkpointDir = ckpt;
    resumed.jsonPath = json_resumed;
    const auto [outcomes, code] = run(resumed, /*fail_mid=*/false);
    EXPECT_EQ(code, 0);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].fromCheckpoint);
    EXPECT_FALSE(outcomes[1].fromCheckpoint);
    EXPECT_TRUE(outcomes[2].fromCheckpoint);
    for (const auto &outcome : outcomes)
        EXPECT_EQ(outcome.status, PassStatus::Ok);

    // 3. Uninterrupted reference run, no checkpointing at all.
    RunnerOptions reference;
    reference.jobs = 1;
    reference.jsonPath = json_reference;
    EXPECT_EQ(run(reference, /*fail_mid=*/false).second, 0);

    const std::string resumed_json = slurp(json_resumed);
    ASSERT_FALSE(resumed_json.empty());
    EXPECT_EQ(resumed_json, slurp(json_reference));

    std::remove(json_resumed.c_str());
    std::remove(json_reference.c_str());
    fs::remove_all(ckpt);
}

/**
 * A campaign that hits --pass-timeout leaves its output artifacts
 * behind the moment the timeout is noticed — like the SIGINT path —
 * so an operator who kills the run next still has the partial
 * report. finish() then atomically replaces the early flush with
 * the complete campaign.
 */
TEST(Harness, TimeoutFlushesOutputsEarly)
{
    const std::string json =
        ::testing::TempDir() + "ramp_timeout_flush.json";
    const std::string bench =
        ::testing::TempDir() + "BENCH_timeout_flush.json";
    std::remove(json.c_str());
    std::remove(bench.c_str());

    RunnerOptions options;
    options.jobs = 1;
    options.passTimeout = 1e-9; // everything overstays
    options.jsonPath = json;
    options.benchPath = bench;
    Harness harness("timeout_flush_tool", options);
    const auto wl =
        harness.profile(homogeneousWorkload("astar"), smallTraces());
    const std::vector<PassDesc> descs = {{wl, "slow"}};
    const auto outcomes =
        harness.runPasses(descs, [&](std::size_t) {
            return runStaticPolicy(harness.config(), wl->data,
                                   StaticPolicy::PerfFocused,
                                   wl->profile());
        });
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, PassStatus::Timeout);

    // The artifacts already exist, before finish() ever runs.
    ASSERT_TRUE(fs::exists(json));
    ASSERT_TRUE(fs::exists(bench));
    const std::string early = slurp(json);
    EXPECT_NE(early.find("\"status\": \"timeout\""),
              std::string::npos);

    testing::internal::CaptureStderr();
    EXPECT_EQ(harness.finish(), 3);
    testing::internal::GetCapturedStderr();
    // The report content is deterministic, so the final atomic
    // rewrite reproduces the early flush exactly.
    EXPECT_EQ(slurp(json), early);
    EXPECT_TRUE(fs::exists(bench));

    std::remove(json.c_str());
    std::remove(bench.c_str());
}

} // namespace
} // namespace ramp
