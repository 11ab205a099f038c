/**
 * @file
 * Tests for the trace-driven core timing model (src/hma/core_model).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <queue>
#include <vector>

#include "common/rng.hh"
#include "hma/core_model.hh"

namespace ramp
{
namespace
{

CoreTrace
makeTrace(std::initializer_list<MemRequest> reqs)
{
    return CoreTrace(reqs);
}

TEST(CoreModel, ComputeBoundIssueRate)
{
    // 400 non-memory instructions at width 4 -> ready at cycle 100.
    const auto trace = makeTrace({{0x0, 400, 0, false}});
    CoreModel core(trace, 4, 128, 8);
    EXPECT_FALSE(core.done());
    EXPECT_EQ(core.nextIssueTime(), 100u);
}

TEST(CoreModel, GapAccumulatesAcrossRequests)
{
    const auto trace =
        makeTrace({{0x0, 40, 0, true}, {0x40, 40, 0, true}});
    CoreModel core(trace, 4, 128, 8);
    EXPECT_EQ(core.nextIssueTime(), 10u);
    core.retire(0); // posted write, returns immediately
    EXPECT_EQ(core.nextIssueTime(), 20u);
}

TEST(CoreModel, MshrLimitStallsIssue)
{
    // Two reads back-to-back with max one outstanding: the second
    // must wait for the first read's completion.
    const auto trace =
        makeTrace({{0x0, 0, 0, false}, {0x40, 0, 0, false}});
    CoreModel core(trace, 4, 128, 1);
    EXPECT_EQ(core.nextIssueTime(), 0u);
    core.retire(500); // first read completes at 500
    EXPECT_EQ(core.nextIssueTime(), 500u);
}

TEST(CoreModel, RobWindowBoundsRunAhead)
{
    // A long-latency read followed by more instructions than the ROB
    // holds: issue stalls until the read returns.
    CoreTrace trace;
    trace.push_back({0x0, 0, 0, false});    // read at ~0
    trace.push_back({0x40, 200, 0, false}); // 201 instrs later
    CoreModel core(trace, 4, /*rob=*/128, 8);
    core.retire(10000);
    // Compute-ready would be ~50 cycles, but the ROB (128) fills
    // before instruction 201, forcing a wait for the read.
    EXPECT_EQ(core.nextIssueTime(), 10000u);
}

TEST(CoreModel, RobDoesNotStallWithinWindow)
{
    CoreTrace trace;
    trace.push_back({0x0, 0, 0, false});
    trace.push_back({0x40, 50, 0, false}); // within the 128 window
    CoreModel core(trace, 4, 128, 8);
    core.retire(10000);
    EXPECT_LT(core.nextIssueTime(), 100u);
}

TEST(CoreModel, PostedWritesDoNotBlock)
{
    CoreTrace trace;
    for (int i = 0; i < 20; ++i)
        trace.push_back({static_cast<Addr>(i) * 64, 0, 0, true});
    CoreModel core(trace, 4, 128, 1);
    Cycle last_ready = 0;
    while (!core.done()) {
        last_ready = core.nextIssueTime();
        core.retire(last_ready);
    }
    EXPECT_LT(last_ready, 20u);
}

TEST(CoreModel, CountsInstructionsAndFinishTime)
{
    const auto trace =
        makeTrace({{0x0, 9, 0, false}, {0x40, 9, 0, true}});
    CoreModel core(trace, 4, 128, 8);
    core.retire(100);
    core.retire(0);
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.instructions(), 20u);
    EXPECT_GE(core.finishTime(), 100u);
}

TEST(CoreModel, EmptyTraceIsDone)
{
    const CoreTrace trace;
    CoreModel core(trace, 4, 128, 8);
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.instructions(), 0u);
}

/**
 * The core model as it was built on std::priority_queue and
 * std::deque, kept as the reference the allocation-free queues must
 * match step for step.
 */
class ReferenceCore
{
  public:
    ReferenceCore(const CoreTrace &trace, std::uint32_t issue_width,
                  std::uint32_t rob_size, std::uint32_t max_reads)
        : trace_(&trace), issueWidth_(issue_width),
          robSize_(rob_size), maxReads_(max_reads)
    {
        if (!trace.empty())
            computeNextReady();
    }

    bool done() const { return next_ >= trace_->size(); }
    Cycle nextIssueTime() const { return readyTime_; }
    std::uint64_t instructions() const { return instructions_; }
    Cycle finishTime() const { return finishTime_; }

    bool retire(Cycle completion)
    {
        const MemRequest &req = (*trace_)[next_];
        instructions_ += req.instructions();
        if (!req.isWrite) {
            outstanding_.push(completion);
            robWindow_.emplace_back(completion, instructions_);
            finishTime_ = std::max(finishTime_, completion);
        } else {
            finishTime_ = std::max(finishTime_, readyTime_);
        }
        if (++next_ >= trace_->size())
            return false;
        computeNextReady();
        return true;
    }

  private:
    void computeNextReady()
    {
        const MemRequest &req = (*trace_)[next_];
        computeReady_ += static_cast<double>(req.gap) /
                         static_cast<double>(issueWidth_);
        Cycle ready = static_cast<Cycle>(computeReady_);
        while (!outstanding_.empty() && outstanding_.top() <= ready)
            outstanding_.pop();
        while (outstanding_.size() >= maxReads_) {
            ready = std::max(ready, outstanding_.top());
            outstanding_.pop();
        }
        const std::uint64_t instr_index = instructions_ + req.gap;
        while (!robWindow_.empty()) {
            const auto &[completion, index] = robWindow_.front();
            if (completion <= ready) {
                robWindow_.pop_front();
                continue;
            }
            if (instr_index - index >= robSize_) {
                ready = std::max(ready, completion);
                robWindow_.pop_front();
                continue;
            }
            break;
        }
        computeReady_ =
            std::max(computeReady_, static_cast<double>(ready));
        readyTime_ = ready;
    }

    const CoreTrace *trace_;
    std::uint32_t issueWidth_;
    std::uint32_t robSize_;
    std::uint32_t maxReads_;
    std::size_t next_ = 0;
    double computeReady_ = 0;
    Cycle readyTime_ = 0;
    std::uint64_t instructions_ = 0;
    Cycle finishTime_ = 0;
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<>>
        outstanding_;
    std::deque<std::pair<Cycle, std::uint64_t>> robWindow_;
};

/**
 * Drive the model and the reference with the same trace and the same
 * read completions (issue time + latency(rng)), comparing every
 * observable after construction and after every retire.
 */
template <typename Latency>
void
expectMatchesReference(const CoreTrace &trace, std::uint32_t rob_size,
                       std::uint32_t max_reads, Latency latency)
{
    SCOPED_TRACE(::testing::Message() << "rob " << rob_size
                                      << " mshr " << max_reads);
    CoreModel core(trace, 4, rob_size, max_reads);
    ReferenceCore ref(trace, 4, rob_size, max_reads);
    for (std::size_t i = 0;; ++i) {
        ASSERT_EQ(core.done(), ref.done()) << "request " << i;
        ASSERT_EQ(core.nextIssueTime(), ref.nextIssueTime())
            << "request " << i;
        ASSERT_EQ(core.instructions(), ref.instructions())
            << "request " << i;
        ASSERT_EQ(core.finishTime(), ref.finishTime())
            << "request " << i;
        if (core.done())
            break;
        const Cycle completion = core.nextIssueTime() + latency();
        ASSERT_EQ(core.retire(completion), ref.retire(completion));
    }
}

TEST(CoreModel, MatchesHeapAndDequeReference)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        const double write_frac =
            0.6 * static_cast<double>(seed % 4) / 3.0;
        CoreTrace trace;
        for (int i = 0; i < 3000; ++i)
            trace.push_back({static_cast<Addr>(i) * lineSize,
                             static_cast<std::uint32_t>(
                                 rng.nextRange(201)),
                             0, rng.nextBool(write_frac)});
        // Latencies from a coarse grid, so completions often tie.
        auto latency = [&rng] {
            return rng.nextBool(0.5) ? 50 * rng.nextRange(8)
                                     : rng.nextRange(2000);
        };
        for (const std::uint32_t rob : {1u, 4u, 128u})
            for (const std::uint32_t mshr : {1u, 2u, 8u})
                expectMatchesReference(trace, rob, mshr, latency);
    }
}

TEST(CoreModel, MatchesReferenceWhileRobRingGrows)
{
    // Back-to-back reads behind one slow read keep up to robSize + 1
    // entries in the ROB window, so the ring doubles several times.
    CoreTrace trace;
    for (int i = 0; i < 5000; ++i)
        trace.push_back(
            {static_cast<Addr>(i) * lineSize, 0, 0, false});
    std::uint64_t n = 0;
    auto latency = [&n] { return n++ % 200 == 0 ? 100000 : 10; };
    for (const std::uint32_t mshr : {1u, 2u, 8u})
        expectMatchesReference(trace, 128, mshr, latency);
}

TEST(CoreModelDeathTest, ZeroParametersAreFatal)
{
    const CoreTrace trace;
    EXPECT_EXIT((CoreModel{trace, 0, 128, 8}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT((CoreModel{trace, 4, 0, 8}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT((CoreModel{trace, 4, 128, 0}),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace ramp
