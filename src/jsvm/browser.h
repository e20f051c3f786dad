/**
 * @file
 * The browser: the main JavaScript context plus the worker machinery.
 *
 * The Browsix kernel runs "in the main browser context" — i.e. on this
 * object's main event loop, which the embedding application pumps (just as
 * a web page yields to the browser's event loop). Workers run on the
 * browser's worker pool (jsvm::Scheduler).
 */
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "jsvm/blob.h"
#include "jsvm/cost_model.h"
#include "jsvm/event_loop.h"
#include "jsvm/scheduler.h"
#include "jsvm/worker.h"

namespace browsix {
namespace jsvm {

class Browser
{
  public:
    explicit Browser(BrowserProfile profile = BrowserProfile::fast());
    ~Browser();

    EventLoop &mainLoop() { return mainLoop_; }
    const CostModel &costs() const { return costs_; }
    BlobRegistry &blobs() { return blobs_; }

    /** The worker pool every worker runs on; its threads start with the
     * first worker. */
    Scheduler &scheduler() { return *pool_; }

    /**
     * Construct a Worker from a blob: URL (charging spawn + parse costs).
     *
     * @param url blob URL of the worker script (the executable's bytes).
     * @param main the bootstrap run on the worker thread with the bytes.
     */
    std::shared_ptr<Worker> createWorker(const std::string &url,
                                         Worker::Main main);

    /**
     * Pump the main loop on the calling thread until pred() holds.
     *
     * Wake-up contract: a task posted to the main loop (a worker
     * message, a ring doorbell, a host-socket delivery, a due timer)
     * wakes this call at once, and pred() is re-checked after it runs.
     * State that no main-loop task announces (an atomic a pool thread
     * sets) is re-checked at least every 200 µs of real time.
     *
     * @return true if pred became true before timeout_ms elapsed.
     */
    bool runUntil(const std::function<bool()> &pred, int64_t timeout_ms = 30000);

    /** Terminate all live workers (page unload). */
    void terminateAll();

    /** Entries in the worker list, expired ones included until pruned. */
    size_t trackedWorkers() const;

  private:
    CostModel costs_;
    EventLoop mainLoop_;
    BlobRegistry blobs_;

    std::shared_ptr<Scheduler> pool_; // shared with every Worker

    mutable std::mutex mutex_;
    uint64_t nextWorkerId_ = 1;
    std::vector<std::weak_ptr<Worker>> workers_;
    size_t pruneAt_ = 16; // workers_ size that triggers the next prune
};

} // namespace jsvm
} // namespace browsix
