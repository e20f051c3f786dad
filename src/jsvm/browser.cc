#include "jsvm/browser.h"

#include <algorithm>
#include <chrono>

#include "jsvm/util.h"

namespace browsix {
namespace jsvm {

namespace {
// How often runUntil re-checks its predicate while the main loop is
// idle: the bound on noticing state that no main-loop task announces.
constexpr std::chrono::microseconds kRecheck{200};
} // namespace

Browser::Browser(BrowserProfile profile)
    : costs_(std::move(profile)), pool_(std::make_shared<Scheduler>())
{
}

Browser::~Browser()
{
    terminateAll();
    // Drain the terminate steps and join the pool here, on the owning
    // thread: a pool thread must never run ~Scheduler.
    pool_->shutdown();
}

std::shared_ptr<Worker>
Browser::createWorker(const std::string &url, Worker::Main main)
{
    auto script = blobs_.resolve(url);
    if (!script)
        panic("createWorker: unknown blob URL " + url);
    costs_.chargeSpawn();
    costs_.chargeParse(script->size());

    uint64_t id;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        id = nextWorkerId_++;
    }
    // Not make_shared: the constructor is private.
    std::shared_ptr<Worker> w(
        new Worker(*this, pool_, id, script, std::move(main)));
    {
        std::lock_guard<std::mutex> lk(mutex_);
        workers_.push_back(w);
        // Drop the dead entries once the list has doubled since the last
        // prune: amortised O(1) per spawn, and short-lived workers leave
        // no entry (and control block) behind.
        if (workers_.size() >= pruneAt_) {
            workers_.erase(std::remove_if(workers_.begin(), workers_.end(),
                                          [](const std::weak_ptr<Worker> &e) {
                                              return e.expired();
                                          }),
                           workers_.end());
            pruneAt_ = std::max<size_t>(16, 2 * workers_.size());
        }
    }
    w->start();
    return w;
}

size_t
Browser::trackedWorkers() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return workers_.size();
}

bool
Browser::runUntil(const std::function<bool()> &pred, int64_t timeout_ms)
{
    int64_t deadline = nowUs() + timeout_ms * 1000;
    for (;;) {
        mainLoop_.pump();
        if (pred())
            return true;
        int64_t left_us = deadline - nowUs();
        if (left_us <= 0)
            return false;
        // A real-time bound, so a frozen TestClock cannot stretch it.
        mainLoop_.pumpOne(EventLoop::Deadline::clock::now() +
                          std::min(kRecheck,
                                   std::chrono::microseconds(left_us)));
    }
}

void
Browser::terminateAll()
{
    std::vector<std::weak_ptr<Worker>> workers;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        workers.swap(workers_);
    }
    for (auto &wp : workers) {
        if (auto w = wp.lock())
            w->terminate();
    }
}

} // namespace jsvm
} // namespace browsix
