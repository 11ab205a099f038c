/**
 * @file
 * Trace-driven core timing model.
 *
 * Each core replays its memory-level trace: non-memory instructions
 * retire at the issue width, reads occupy an MSHR until the memory
 * returns, posted writes are fire-and-forget, and a ROB window bounds
 * how far the core may run ahead of its oldest outstanding read.
 * This yields IPC that is sensitive to both memory latency and
 * bandwidth — the property every figure of the paper measures.
 */

#ifndef RAMP_HMA_CORE_MODEL_HH
#define RAMP_HMA_CORE_MODEL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace ramp
{

/** Replay state of one core. */
class CoreModel
{
  public:
    /**
     * @param trace the core's request stream (borrowed)
     * @param issue_width non-memory IPC ceiling
     * @param rob_size run-ahead window in instructions
     * @param max_reads outstanding read (MSHR) limit
     */
    CoreModel(const CoreTrace &trace, std::uint32_t issue_width,
              std::uint32_t rob_size, std::uint32_t max_reads);

    /** True when every request has been issued. */
    bool done() const { return next_ >= trace_->size(); }

    /** The request to issue next (undefined when done). */
    const MemRequest &current() const { return (*trace_)[next_]; }

    /** Index of current() in the core's trace. */
    std::size_t position() const { return next_; }

    /**
     * Earliest cycle the next request may issue, given compute time
     * and the MSHR/ROB constraints resolved so far.
     */
    Cycle nextIssueTime() const { return readyTime_; }

    /**
     * Commit the current request as issued at nextIssueTime().
     *
     * @param completion read completion time from the memory model
     *                   (ignored for writes)
     * @return false when the trace is exhausted afterwards
     */
    bool retire(Cycle completion);

    /** Instructions the core has issued. */
    std::uint64_t instructions() const { return instructions_; }

    /** Completion time of the core's last activity. */
    Cycle finishTime() const { return finishTime_; }

  private:
    /** (completion, instruction index) of an in-flight read. */
    using RobEntry = std::pair<Cycle, std::uint64_t>;

    void computeNextReady();
    void popOldestRead();
    void pushRob(Cycle completion, std::uint64_t index);

    const CoreTrace *trace_;
    std::uint32_t issueWidth_;
    std::uint32_t robSize_;
    std::uint32_t maxReads_;

    std::size_t next_ = 0;
    double computeReady_ = 0; ///< fractional compute-limited time
    Cycle readyTime_ = 0;
    std::uint64_t instructions_ = 0;
    Cycle finishTime_ = 0;

    /**
     * Completion times of outstanding reads, a min-heap under
     * std::push_heap/pop_heap. Reserved to maxReads + 1 entries, so
     * it never reallocates.
     */
    std::vector<Cycle> outstanding_;

    /**
     * In-flight reads in issue order: a power-of-two ring of
     * robSize_ + 1 entries at most (every request retires at least
     * one instruction), grown by doubling while the core warms up.
     */
    std::vector<RobEntry> rob_;
    std::size_t robHead_ = 0;
    std::size_t robCount_ = 0;
};

} // namespace ramp

#endif // RAMP_HMA_CORE_MODEL_HH
