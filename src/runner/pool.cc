#include "runner/pool.hh"

#include <chrono>

#include "common/rng.hh"
#include "prof/prof.hh"
#include "runner/error.hh"
#include "telemetry/telemetry.hh"

namespace ramp::runner
{

namespace
{

/** Task lifetime metrics shared by every pool of the process. */
struct PoolTelemetry
{
    telemetry::Counter &tasks =
        telemetry::metrics().counter("pool.tasks");
    // 1-2-5 steps per decade: a quantile is interpolated linearly
    // inside its bucket, and task times cluster (datacenter_service's
    // solo runs near 10 ms), so one bucket per decade let a single
    // task crossing an edge move p95 six-fold.
    telemetry::HistogramMetric &taskSeconds =
        telemetry::metrics().histogram(
            "pool.task_seconds",
            telemetry::FixedHistogram(
                {0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2,
                 0.5, 1.0, 2.0, 5.0, 10.0, 60.0, 600.0}));
};

PoolTelemetry &
poolTelemetry()
{
    static PoolTelemetry telemetry;
    return telemetry;
}

/** Run one task index, wrapped in a phase and lifetime histogram. */
void
runInstrumented(const std::function<void(std::size_t)> &task,
                std::size_t index)
{
    // TSC-only: dispatch overhead is measured per task, and a PMU
    // read per task would swamp the thing being measured.
    RAMP_PROF_SCOPE(task_prof, "pool.task");
    if (obs::on(obs::Telemetry)) {
        auto &tel = poolTelemetry();
        tel.tasks.add(1);
        const auto start = std::chrono::steady_clock::now();
        task(index);
        tel.taskSeconds.observe(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count());
        return;
    }
    task(index);
}

} // namespace

std::uint64_t
taskSeed(std::uint64_t campaign_seed, std::uint64_t task_index)
{
    // The (task_index + 1)-th SplitMix64 draw from the campaign
    // seed: the golden-gamma steps decorrelate adjacent indices.
    std::uint64_t state = campaign_seed + task_index *
                                              0x9e3779b97f4a7c15ULL;
    return splitMix64(state);
}

unsigned
ThreadPool::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
    // The calling thread executes batch tasks too, so jobs_ - 1
    // workers give the requested parallelism.
    workers_.reserve(jobs_ - 1);
    for (unsigned i = 1; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::runTask(const std::function<void(std::size_t)> &task,
                    std::size_t index,
                    std::unique_lock<std::mutex> &lock)
{
    lock.unlock();
    std::exception_ptr error;
    try {
        runInstrumented(task, index);
    } catch (...) {
        error = std::current_exception();
    }
    lock.lock();
    if (error && !error_)
        error_ = error;
}

void
ThreadPool::runIndexed(std::size_t count,
                       const std::function<void(std::size_t)> &task)
{
    if (count == 0)
        return;

    std::unique_lock<std::mutex> lock(mutex_);
    if (task_ != nullptr || workers_.empty()) {
        // Nested batch (called from inside a task) or single-job
        // pool: run inline on the calling thread. Exceptions
        // propagate to the enclosing task/caller directly.
        lock.unlock();
        for (std::size_t i = 0; i < count; ++i) {
            if (cancellationRequested())
                break;
            runInstrumented(task, i);
        }
        return;
    }

    task_ = &task;
    count_ = count;
    next_ = 0;
    error_ = nullptr;
    wake_.notify_all();

    // Participate in the batch; stop dispatching once cancelled.
    while (next_ < count_ && !cancellationRequested())
        runTask(task, next_++, lock);
    idle_.wait(lock, [this] { return inflight_ == 0; });
    task_ = nullptr;

    const std::exception_ptr error = error_;
    error_ = nullptr;
    if (error) {
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        wake_.wait(lock, [this] {
            return stop_ || (task_ != nullptr && next_ < count_ &&
                             !cancellationRequested());
        });
        if (stop_)
            return;
        while (task_ != nullptr && next_ < count_ &&
               !cancellationRequested()) {
            const std::size_t index = next_++;
            ++inflight_;
            const auto *task = task_;
            runTask(*task, index, lock);
            --inflight_;
        }
        if (inflight_ == 0)
            idle_.notify_all();
    }
}

} // namespace ramp::runner
