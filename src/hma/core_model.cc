#include "hma/core_model.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace ramp
{

namespace
{

/** First ROB ring size; it doubles on demand up to robSize + 1. */
constexpr std::size_t initialRobRing = 8;

} // namespace

CoreModel::CoreModel(const CoreTrace &trace, std::uint32_t issue_width,
                     std::uint32_t rob_size, std::uint32_t max_reads)
    : trace_(&trace), issueWidth_(issue_width), robSize_(rob_size),
      maxReads_(max_reads), rob_(initialRobRing)
{
    if (issue_width == 0 || rob_size == 0 || max_reads == 0)
        ramp_fatal("core model parameters must be positive");
    outstanding_.reserve(std::size_t{max_reads} + 1);
    if (!trace.empty())
        computeNextReady();
}

void
CoreModel::computeNextReady()
{
    const MemRequest &req = (*trace_)[next_];

    // Compute-limited time: the gap's instructions retire at the
    // issue width.
    computeReady_ += static_cast<double>(req.gap) /
                     static_cast<double>(issueWidth_);
    Cycle ready = static_cast<Cycle>(computeReady_);

    // Retire reads that have certainly completed by then.
    while (!outstanding_.empty() && outstanding_.front() <= ready)
        popOldestRead();

    // MSHR constraint: wait for the oldest read if all slots busy.
    while (outstanding_.size() >= maxReads_) {
        ready = std::max(ready, outstanding_.front());
        popOldestRead();
    }

    // ROB constraint: the next instruction may not be more than
    // robSize_ instructions ahead of an incomplete read.
    const std::uint64_t instr_index = instructions_ + req.gap;
    const std::size_t mask = rob_.size() - 1;
    while (robCount_ != 0) {
        const auto &[completion, index] = rob_[robHead_];
        if (completion > ready) {
            if (instr_index - index < robSize_)
                break;
            ready = completion;
        }
        robHead_ = (robHead_ + 1) & mask;
        --robCount_;
    }

    computeReady_ = std::max(computeReady_,
                             static_cast<double>(ready));
    readyTime_ = ready;
}

bool
CoreModel::retire(Cycle completion)
{
    const MemRequest &req = (*trace_)[next_];
    instructions_ += req.instructions();

    if (!req.isWrite) {
        outstanding_.push_back(completion);
        std::push_heap(outstanding_.begin(), outstanding_.end(),
                       std::greater<>());
        pushRob(completion, instructions_);
        finishTime_ = std::max(finishTime_, completion);
    } else {
        // Posted write: the core moves on at issue time.
        finishTime_ = std::max(finishTime_, readyTime_);
    }

    if (++next_ >= trace_->size())
        return false;
    computeNextReady();
    return true;
}

void
CoreModel::popOldestRead()
{
    std::pop_heap(outstanding_.begin(), outstanding_.end(),
                  std::greater<>());
    outstanding_.pop_back();
}

void
CoreModel::pushRob(Cycle completion, std::uint64_t index)
{
    if (robCount_ == rob_.size()) {
        // Unroll the full ring into a buffer twice its size.
        std::vector<RobEntry> grown(rob_.size() * 2);
        for (std::size_t i = 0; i < robCount_; ++i)
            grown[i] = rob_[(robHead_ + i) & (rob_.size() - 1)];
        rob_.swap(grown);
        robHead_ = 0;
    }
    rob_[(robHead_ + robCount_) & (rob_.size() - 1)] = {completion,
                                                         index};
    ++robCount_;
}

} // namespace ramp
