/**
 * @file
 * The per-thread state registry the observability layers share: the
 * decision ledger's rings, the Chrome trace's event buffers and the
 * profiler's phase trees.
 *
 * Each thread's state is created on its first local() call and
 * registered once; the owner then mutates it under the slot's own
 * mutex, so the hot path never contends on a process-wide lock.
 * forEach() visits every registered state, each under its slot's
 * mutex, in registration order. The registry shares ownership of
 * each slot with its thread, so a state (and whatever its thread
 * recorded) outlives the thread's exit.
 *
 * There is one registry per State type, so each layer registers a
 * type of its own.
 */

#ifndef RAMP_COMMON_THREAD_REGISTRY_HH
#define RAMP_COMMON_THREAD_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace ramp
{

/** One thread's state and the mutex that guards it. */
template <class State>
struct ThreadSlot
{
    /** The owner mutates `state` under it; visitors read under it. */
    std::mutex mutex;
    State state;

    /** 1-based registration order (a small stable thread id). */
    std::uint32_t id = 0;
};

template <class State>
class ThreadRegistry
{
  public:
    using Slot = ThreadSlot<State>;

    /** The calling thread's slot, registered on first use. */
    static Slot &local()
    {
        thread_local const std::shared_ptr<Slot> slot = add();
        return *slot;
    }

    /** Call visit(state) for every registered state, each under
     * its slot's mutex, in registration order. */
    template <class Visit>
    static void forEach(Visit &&visit)
    {
        std::vector<std::shared_ptr<Slot>> slots;
        {
            ThreadRegistry &r = instance();
            std::lock_guard<std::mutex> lock(r.mutex_);
            slots = r.slots_;
        }
        for (const auto &slot : slots) {
            std::lock_guard<std::mutex> lock(slot->mutex);
            visit(slot->state);
        }
    }

    /** Threads registered so far. */
    static std::size_t size()
    {
        ThreadRegistry &r = instance();
        std::lock_guard<std::mutex> lock(r.mutex_);
        return r.slots_.size();
    }

  private:
    static ThreadRegistry &instance()
    {
        static ThreadRegistry registry;
        return registry;
    }

    static std::shared_ptr<Slot> add()
    {
        auto slot = std::make_shared<Slot>();
        ThreadRegistry &r = instance();
        std::lock_guard<std::mutex> lock(r.mutex_);
        r.slots_.push_back(slot);
        slot->id = static_cast<std::uint32_t>(r.slots_.size());
        return slot;
    }

    std::mutex mutex_;
    std::vector<std::shared_ptr<Slot>> slots_;
};

} // namespace ramp

#endif // RAMP_COMMON_THREAD_REGISTRY_HH
