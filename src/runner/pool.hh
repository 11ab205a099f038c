/**
 * @file
 * Deterministic thread-pool executor for independent simulation
 * passes.
 *
 * Every figure binary fans the paper's per-workload passes out as
 * pure tasks: each task reads shared immutable inputs (config,
 * traces, profile) and produces its own result. The pool runs such a
 * task set across worker threads and collects results in task-index
 * order, so a run with N threads is bit-identical to a serial run —
 * parallelism changes wall-clock only, never the published tables.
 *
 * Nested map() calls (a task that itself fans out) are safe: the
 * calling thread participates in executing its own batch, so an
 * inner batch completes even when every worker is busy with outer
 * tasks. Stochastic tasks take an explicit per-task seed derived via
 * taskSeed(), never shared generator state.
 *
 * Failure semantics: an exception thrown by a task is captured
 * instead of terminating the worker thread; the remaining tasks of
 * the batch still run, and the first captured exception is rethrown
 * on the calling thread once the batch drains. The pool also polls
 * the cooperative cancellation flag (runner/error.hh) between
 * tasks: after SIGINT/SIGTERM no new task starts, in-flight tasks
 * finish, and the caller observes the partially-filled results (the
 * harness then flushes and exits). Callers needing per-task
 * containment (the harness does) catch inside the task themselves.
 */

#ifndef RAMP_RUNNER_POOL_HH
#define RAMP_RUNNER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ramp::runner
{

/**
 * Derive the seed of one task of a seeded campaign (SplitMix64 of
 * the campaign seed advanced by the task index). Tasks seeded this
 * way draw independent streams whose union does not depend on how
 * the tasks are scheduled or sharded.
 */
std::uint64_t taskSeed(std::uint64_t campaign_seed,
                       std::uint64_t task_index);

/** Fixed-size pool of worker threads executing indexed batches. */
class ThreadPool
{
  public:
    /**
     * @param jobs worker count; 0 picks defaultJobs(). A pool of 1
     *             executes every batch on the calling thread.
     */
    explicit ThreadPool(unsigned jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Configured parallelism (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Default parallelism: std::thread::hardware_concurrency()
     * (RunnerOptions::parse() reads RAMP_JOBS into the job count).
     */
    static unsigned defaultJobs();

    /**
     * Run task(i) for every i in [0, count). Blocks until all
     * started indices completed. The calling thread participates,
     * so this may be invoked from inside a task. Rethrows the first
     * exception any task threw (after the batch drains); stops
     * dispatching new indices once cancellation is requested.
     */
    void runIndexed(std::size_t count,
                    const std::function<void(std::size_t)> &task);

    /**
     * Parallel map: results[i] = fn(i), collected in index order.
     * The result type must be default-constructible (every RAMP
     * result struct is).
     */
    template <typename Fn>
    auto mapIndex(std::size_t count, Fn fn)
        -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
    {
        using R = std::invoke_result_t<Fn &, std::size_t>;
        std::vector<R> results(count);
        runIndexed(count, [&](std::size_t i) { results[i] = fn(i); });
        return results;
    }

    /** Parallel map over a vector of items, in item order. */
    template <typename T, typename Fn>
    auto map(const std::vector<T> &items, Fn fn)
        -> std::vector<std::invoke_result_t<Fn &, const T &>>
    {
        return mapIndex(items.size(), [&](std::size_t i) {
            return fn(items[i]);
        });
    }

  private:
    void workerLoop();

    unsigned jobs_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;

    /** Run one index, capturing any exception into error_. */
    void runTask(const std::function<void(std::size_t)> &task,
                 std::size_t index,
                 std::unique_lock<std::mutex> &lock);

    /** @{ @name Current batch (guarded by mutex_) */
    const std::function<void(std::size_t)> *task_ = nullptr;
    std::size_t count_ = 0;
    std::size_t next_ = 0;
    std::size_t inflight_ = 0;
    std::exception_ptr error_;
    bool stop_ = false;
    /** @} */
};

} // namespace ramp::runner

#endif // RAMP_RUNNER_POOL_HH
