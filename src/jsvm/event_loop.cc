#include "jsvm/event_loop.h"

#include <algorithm>

#include "jsvm/util.h"

namespace browsix {
namespace jsvm {

namespace {
thread_local EventLoop *tCurrent = nullptr;

struct CurrentGuard
{
    EventLoop *prev;
    explicit CurrentGuard(EventLoop *l) : prev(tCurrent) { tCurrent = l; }
    ~CurrentGuard() { tCurrent = prev; }
};
} // namespace

EventLoop *
EventLoop::current()
{
    return tCurrent;
}

void
EventLoop::setWakeHook(Task hook)
{
    std::lock_guard<std::mutex> lk(mutex_);
    wakeHook_ = std::move(hook);
}

void
EventLoop::post(Task t)
{
    Task hook;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        queue_.push_back(std::move(t));
        hook = wakeHook_;
    }
    cv_.notify_all();
    if (hook)
        hook();
}

uint64_t
EventLoop::setTimeout(Task t, int64_t delay_us)
{
    uint64_t id;
    Task hook;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        id = nextTimerId_++;
        timers_[id] = Timer{nowUs() + (delay_us < 0 ? 0 : delay_us),
                            std::move(t)};
        hook = wakeHook_;
    }
    cv_.notify_all();
    if (hook)
        hook();
    return id;
}

void
EventLoop::clearTimeout(uint64_t id)
{
    std::lock_guard<std::mutex> lk(mutex_);
    timers_.erase(id);
}

int64_t
EventLoop::promoteDueTimersLocked(int64_t now)
{
    int64_t next = -1;
    for (auto it = timers_.begin(); it != timers_.end();) {
        if (it->second.due_us <= now) {
            queue_.push_back(std::move(it->second.fn));
            it = timers_.erase(it);
        } else {
            if (next < 0 || it->second.due_us < next)
                next = it->second.due_us;
            ++it;
        }
    }
    return next;
}

bool
EventLoop::takeTask(Task &out, Deadline deadline)
{
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
        int64_t now = nowUs();
        int64_t next = promoteDueTimersLocked(now);
        if (!queue_.empty()) {
            out = std::move(queue_.front());
            queue_.pop_front();
            return true;
        }
        Deadline real_now = Deadline::clock::now();
        if (deadline <= real_now)
            return false;
        if (next < 0 && deadline == Deadline::max()) {
            cv_.wait(lk);
            continue;
        }
        // Wake at the deadline, the next timer, or a post — whichever
        // comes first. Timer due times are nowUs() time; their distance
        // from now is waited out in real time.
        Deadline until = deadline;
        if (next >= 0)
            until = std::min(until,
                             real_now + std::chrono::microseconds(next - now));
        cv_.wait_until(lk, until);
    }
}

bool
EventLoop::pumpOne(Deadline deadline)
{
    Task t;
    if (!takeTask(t, deadline))
        return false;
    CurrentGuard guard(this);
    t();
    return true;
}

size_t
EventLoop::pump()
{
    size_t n = 0;
    while (pumpOne(false))
        n++;
    return n;
}

int64_t
EventLoop::nextTimerDueUs() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    int64_t next = -1;
    for (const auto &[id, t] : timers_)
        if (next < 0 || t.due_us < next)
            next = t.due_us;
    return next;
}

bool
EventLoop::idle() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return queue_.empty() && timers_.empty();
}

} // namespace jsvm
} // namespace browsix
