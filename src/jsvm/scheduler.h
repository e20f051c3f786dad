/**
 * @file
 * The worker pool: a fixed set of host threads driving every Worker.
 *
 * Owned by the Browser, so every worker it creates is a run-queue item
 * from birth. Decouples "process" from "thread": 10k+ live processes
 * share hardware_concurrency host threads. FIFO ordering gives
 * starvation freedom at worker granularity — a CPU-bound guest yields at
 * the end of its step and re-queues behind everyone else.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace browsix {
namespace jsvm {

class Worker;

class Scheduler
{
  public:
    /** threads == 0 sizes the pool to hardware_concurrency (min 2). */
    explicit Scheduler(unsigned threads = 0);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Push a worker onto the run queue; pool threads start lazily on the
     * first enqueue. After shutdown(), runs the step inline instead (so
     * late terminations still unwind their guests). Callable from any
     * thread. */
    void enqueue(std::shared_ptr<Worker> w);

    /** Re-enqueue w once nowUs() reaches due_us (worker-loop timers).
     * Callable from any thread. */
    void scheduleTimer(std::shared_ptr<Worker> w, int64_t due_us);

    /** Resize a pool whose threads have not started yet (0 as in the
     * constructor); panics once they have. */
    void resize(unsigned threads);

    /**
     * Stop the pool: drains the remaining queue (stepping each worker so
     * terminated guests unwind), then joins every thread. Idempotent.
     */
    void shutdown();

    unsigned poolSize() const { return poolSize_; }

    /** Total steps executed (pool + inline); scheduling observability. */
    uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }

    /** Run-queue depth right now. */
    size_t queueDepth() const;

  private:
    void threadMain();
    void startThreadsLocked();
    // Collect workers whose timers are due into `due`; returns the next
    // pending due time (us) or -1. Caller holds mutex_ and must drop it
    // before waking the collected workers via Worker::signalWork (whose
    // Idle->Queued CAS dedupes — a raw queue_ push could double-queue a
    // worker and let two pool threads step it concurrently).
    int64_t promoteDueTimersLocked(int64_t now,
                                   std::vector<std::shared_ptr<Worker>> &due);

    struct PendingTimer
    {
        int64_t due_us;
        std::weak_ptr<Worker> worker;
    };

    unsigned poolSize_;
    std::atomic<uint64_t> steps_{0};

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Worker>> queue_;
    std::vector<PendingTimer> timers_;
    std::vector<std::thread> threads_;
    bool started_ = false;
    bool stopping_ = false;
    bool shutdownDone_ = false;
};

} // namespace jsvm
} // namespace browsix
