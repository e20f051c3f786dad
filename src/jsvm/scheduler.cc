#include "jsvm/scheduler.h"

#include <algorithm>
#include <chrono>

#include "jsvm/util.h"
#include "jsvm/worker.h"

namespace browsix {
namespace jsvm {

namespace {

unsigned
poolSizeFor(unsigned threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads < 2)
            threads = 2;
    }
    return threads;
}

} // namespace

Scheduler::Scheduler(unsigned threads) : poolSize_(poolSizeFor(threads)) {}

Scheduler::~Scheduler()
{
    shutdown();
}

void
Scheduler::resize(unsigned threads)
{
    std::lock_guard<std::mutex> lk(mutex_);
    if (started_)
        panic("Scheduler::resize: pool threads already started");
    poolSize_ = poolSizeFor(threads);
}

void
Scheduler::startThreadsLocked()
{
    started_ = true;
    threads_.reserve(poolSize_);
    for (unsigned i = 0; i < poolSize_; i++)
        threads_.emplace_back([this]() { threadMain(); });
}

void
Scheduler::enqueue(std::shared_ptr<Worker> w)
{
    {
        std::unique_lock<std::mutex> lk(mutex_);
        if (!shutdownDone_) {
            if (!started_)
                startThreadsLocked();
            queue_.push_back(std::move(w));
            lk.unlock();
            cv_.notify_one();
            return;
        }
    }
    // Pool retired: run the step on the caller so late-terminated workers
    // still unwind their guests instead of leaking suspended fibers.
    steps_.fetch_add(1, std::memory_order_relaxed);
    w->step();
}

void
Scheduler::scheduleTimer(std::shared_ptr<Worker> w, int64_t due_us)
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!shutdownDone_) {
            timers_.push_back(PendingTimer{due_us, w});
            cv_.notify_one();
            return;
        }
    }
    // Retired pool: no thread will ever sleep on this deadline. Wake the
    // worker now if it is already due (signalWork routes back through
    // enqueue, which runs the step inline after shutdown); a future
    // deadline is dropped — terminate() drives the final unwind step.
    if (due_us <= nowUs())
        w->signalWork();
}

int64_t
Scheduler::promoteDueTimersLocked(
    int64_t now, std::vector<std::shared_ptr<Worker>> &due)
{
    int64_t next = -1;
    for (auto it = timers_.begin(); it != timers_.end();) {
        if (it->due_us <= now) {
            if (auto w = it->worker.lock())
                due.push_back(std::move(w));
            it = timers_.erase(it);
        } else {
            if (next < 0 || it->due_us < next)
                next = it->due_us;
            ++it;
        }
    }
    return next;
}

void
Scheduler::threadMain()
{
    std::vector<std::shared_ptr<Worker>> due;
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
        int64_t next_due = promoteDueTimersLocked(nowUs(), due);
        if (!due.empty()) {
            // Wake due workers through signalWork, never a raw queue push:
            // its Idle->Queued CAS dedupes against concurrent wakes, so a
            // worker can never hold two queue entries (two pool threads
            // would then step the same fibers concurrently). signalWork
            // re-enters enqueue(), so the mutex must be dropped first.
            lk.unlock();
            for (auto &w : due)
                w->signalWork();
            due.clear();
            lk.lock();
            continue;
        }
        if (stopping_)
            return;
        if (queue_.empty()) {
            if (next_due < 0) {
                cv_.wait(lk);
            } else {
                // Bounded wait: under a TestClock, virtual time advances
                // without real time passing, so poll rather than oversleep.
                int64_t delta = next_due - nowUs();
                delta = std::min<int64_t>(std::max<int64_t>(delta, 0), 50000);
                cv_.wait_for(lk, std::chrono::microseconds(delta + 1));
            }
            continue;
        }
        auto w = std::move(queue_.front());
        queue_.pop_front();
        lk.unlock();
        steps_.fetch_add(1, std::memory_order_relaxed);
        w->step();
        w.reset();
        lk.lock();
    }
}

void
Scheduler::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (shutdownDone_ && threads_.empty())
            return;
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
    std::deque<std::shared_ptr<Worker>> drain;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        threads_.clear();
        drain.swap(queue_);
        timers_.clear();
        shutdownDone_ = true;
    }
    // Final inline steps: every queued worker gets its quantum so
    // terminated guests unwind before the scheduler goes away.
    for (auto &w : drain) {
        steps_.fetch_add(1, std::memory_order_relaxed);
        w->step();
    }
}

size_t
Scheduler::queueDepth() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return queue_.size();
}

} // namespace jsvm
} // namespace browsix
