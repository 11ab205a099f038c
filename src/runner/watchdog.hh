/**
 * @file
 * Watchdog for stuck simulation passes (--pass-timeout).
 *
 * A campaign cannot preempt a compute-bound pass, but it can refuse
 * to hide one: each running pass registers with the watchdog, whose
 * background thread warns the moment a pass overstays the timeout
 * (so an operator watching a hung campaign sees *which* pass is
 * stuck), and the harness flags any pass whose wall time exceeded
 * the limit as TIMEOUT in the table/JSON report, turning the
 * campaign's exit code nonzero. Timed-out passes are not journaled,
 * so a resume re-runs them.
 */

#ifndef RAMP_RUNNER_WATCHDOG_HH
#define RAMP_RUNNER_WATCHDOG_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace ramp::runner
{

/** Background monitor of in-flight passes. */
class Watchdog
{
  public:
    /** @param timeout_seconds warn/flag threshold (must be > 0). */
    explicit Watchdog(double timeout_seconds);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** RAII registration of one running pass. */
    class Scope
    {
      public:
        Scope() = default;
        Scope(Watchdog *dog, std::uint64_t id)
            : dog_(dog), id_(id)
        {
        }
        Scope(Scope &&other) noexcept
            : dog_(other.dog_), id_(other.id_)
        {
            other.dog_ = nullptr;
        }
        Scope &operator=(Scope &&other) noexcept
        {
            release();
            dog_ = other.dog_;
            id_ = other.id_;
            other.dog_ = nullptr;
            return *this;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope() { release(); }

      private:
        void release();

        Watchdog *dog_ = nullptr;
        std::uint64_t id_ = 0;
    };

    /** Register a pass; it stays watched until the Scope dies. */
    Scope watch(std::string label);

  private:
    friend class Scope;

    struct Entry
    {
        std::string label;
        std::chrono::steady_clock::time_point start;
        bool warned = false;
    };

    void loop();
    void unwatch(std::uint64_t id);

    double timeout_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::map<std::uint64_t, Entry> entries_;
    std::uint64_t next_id_ = 0;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace ramp::runner

#endif // RAMP_RUNNER_WATCHDOG_HH
