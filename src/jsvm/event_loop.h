/**
 * @file
 * A per-context event loop, the execution model of a JavaScript context.
 *
 * The main browser context and every Web Worker run one of these. Tasks
 * posted from other threads model postMessage delivery; timers model
 * setTimeout. A context never blocks except inside Atomics.wait.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>

namespace browsix {
namespace jsvm {

class EventLoop
{
  public:
    using Task = std::function<void()>;
    /// Real (steady_clock) time: waits are wall-clock even while a
    /// jsvm::TestClock freezes nowUs().
    using Deadline = std::chrono::steady_clock::time_point;

    EventLoop() = default;
    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Enqueue a task; thread-safe. */
    void post(Task t);

    /**
     * Install a hook invoked (outside the loop lock) whenever a task or
     * timer is posted. The pooled worker scheduler uses this to re-enqueue
     * a parked worker when work arrives for its loop.
     */
    void setWakeHook(Task hook);

    /** Schedule a task after delay_us microseconds; returns a timer id. */
    uint64_t setTimeout(Task t, int64_t delay_us);

    /** Cancel a pending timer; no-op if already fired. */
    void clearTimeout(uint64_t id);

    /**
     * Run a single task, waiting until `deadline` for one to become
     * ready (a post, or a timer falling due). A deadline already past
     * does not wait; Deadline::max() waits for as long as it takes.
     *
     * @return true if a task ran.
     */
    bool pumpOne(Deadline deadline);

    /** pumpOne with no wait, or with no deadline when `wait`. */
    bool pumpOne(bool wait)
    {
        return pumpOne(wait ? Deadline::max() : Deadline::min());
    }

    /** Drain all currently-ready tasks (and due timers); returns count. */
    size_t pump();

    /** True when no tasks are queued and no timers are pending. */
    bool idle() const;

    /**
     * Absolute due time (us) of the soonest pending timer, or -1 when no
     * timers are pending. Lets a test clock jump straight to the next
     * deadline instead of sleeping (see jsvm::TestClock::pumpUntilIdle).
     */
    int64_t nextTimerDueUs() const;

    /** The loop currently executing on this thread, or nullptr. */
    static EventLoop *current();

  private:
    struct Timer
    {
        int64_t due_us;
        Task fn;
    };

    // Pop one ready task, waiting until `deadline` for one. The only
    // wait loop: post/setTimeout push under mutex_ before notifying, and
    // the queue is checked under the same lock, so no wake is lost.
    bool takeTask(Task &out, Deadline deadline);
    // Queue every timer due by `now`; returns the soonest remaining due
    // time, or -1 when none is pending.
    int64_t promoteDueTimersLocked(int64_t now);

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Task> queue_;
    std::map<uint64_t, Timer> timers_; // id -> timer; ids are monotonic
    uint64_t nextTimerId_ = 1;
    Task wakeHook_;
};

} // namespace jsvm
} // namespace browsix
