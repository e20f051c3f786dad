#include "jsvm/worker.h"

#include "jsvm/browser.h"
#include "jsvm/scheduler.h"
#include "jsvm/util.h"

namespace browsix {
namespace jsvm {

void
WorkerScope::postMessage(const Value &v)
{
    Worker &w = worker_;
    w.browser_.costs().chargeMessage(v.approxByteSize());
    Value copy = v.clone();
    auto self = w.shared_from_this();
    w.browser_.mainLoop().post([self, copy = std::move(copy)]() {
        std::function<void(Value)> h;
        {
            std::lock_guard<std::mutex> lk(self->mutex_);
            h = self->parentHandler_;
        }
        if (h)
            h(copy);
    });
}

void
WorkerScope::setOnMessage(std::function<void(Value)> handler)
{
    std::lock_guard<std::mutex> lk(worker_.mutex_);
    worker_.workerHandler_ = std::move(handler);
}

EventLoop &
WorkerScope::loop()
{
    return worker_.loop_;
}

InterruptToken &
WorkerScope::token()
{
    return worker_.token_;
}

const CostModel &
WorkerScope::costs() const
{
    return worker_.browser_.costs();
}

void
WorkerScope::startGuest(std::function<void()> fn)
{
    worker_.startGuest(std::move(fn));
}

void
WorkerScope::atExit(std::function<void()> fn)
{
    std::lock_guard<std::mutex> lk(worker_.mutex_);
    worker_.atExit_.push_back(std::move(fn));
}

Worker::Worker(Browser &browser, std::shared_ptr<Scheduler> sched,
               uint64_t id,
               std::shared_ptr<const std::vector<uint8_t>> script, Main main)
    : browser_(browser), sched_(std::move(sched)), id_(id),
      script_(std::move(script)), main_(std::move(main))
{
}

void
Worker::start()
{
    scope_ = std::make_unique<WorkerScope>(*this);
    std::weak_ptr<Worker> wself = weak_from_this();
    loop_.setWakeHook([wself]() {
        if (auto s = wself.lock())
            s->signalWork();
    });
    // The bootstrap (script evaluation) runs in the first step; spawn is
    // a queue push, not a thread launch.
    signalWork();
}

void
Worker::startGuest(std::function<void()> fn)
{
    std::weak_ptr<Worker> wself = weak_from_this();
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (terminated_)
            return; // dropped, like a queued-but-killed guest
        uint64_t fid = nextFiberId_++;
        auto g = std::make_shared<GuestFiber>();
        g->id = fid;
        g->fiber = std::make_unique<Fiber>(
            std::move(fn), [wself, fid]() {
                if (auto s = wself.lock())
                    s->fiberWoken(fid);
            });
        fibers_.push_back(std::move(g));
    }
    signalWork();
}

void
Worker::fiberWoken(uint64_t fiber_id)
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        for (auto &g : fibers_) {
            if (g->id == fiber_id) {
                g->runnable = true;
                break;
            }
        }
    }
    signalWork();
}

void
Worker::signalWork()
{
    auto self = weak_from_this().lock();
    if (!self)
        return; // destructor context: ~Worker unwinds inline
    for (;;) {
        SchedState s = schedState_.load(std::memory_order_seq_cst);
        if (s == SchedState::Queued || s == SchedState::Dirty)
            return;
        if (s == SchedState::Idle) {
            SchedState e = SchedState::Idle;
            if (schedState_.compare_exchange_strong(
                    e, SchedState::Queued, std::memory_order_seq_cst)) {
                sched_->enqueue(std::move(self));
                return;
            }
            continue;
        }
        // Running: coalesce into a dirty flag; finishStep re-enqueues.
        SchedState e = SchedState::Running;
        if (schedState_.compare_exchange_strong(e, SchedState::Dirty,
                                                std::memory_order_seq_cst))
            return;
    }
}

void
Worker::step()
{
    {
        SchedState e = SchedState::Queued;
        if (!schedState_.compare_exchange_strong(e, SchedState::Running,
                                                 std::memory_order_seq_cst)) {
            // Not ours to run. Every queue entry corresponds to exactly
            // one Idle->Queued (signalWork) or ->Queued (finishStep)
            // transition, so a failed CAS means another thread owns the
            // quantum right now; proceeding would resume the same fiber
            // on two host stacks. Any work that arrived meanwhile is
            // covered by that step's dirty-flag re-enqueue.
            return;
        }
    }
    if (terminated()) {
        teardownFibers();
    } else {
        if (!booted_) {
            booted_ = true;
            if (main_)
                main_(*scope_, script_);
        }
        loop_.pump();
        resumeRunnableFibers();
    }
    finishStep();
}

void
Worker::resumeRunnableFibers()
{
    std::vector<std::shared_ptr<GuestFiber>> run;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        for (auto &g : fibers_)
            if (g->runnable)
                run.push_back(g);
    }
    for (auto &g : run) {
        if (terminated())
            return; // mid-step terminate: the teardown step unwinds
        bool fin = g->fiber->resume();
        std::lock_guard<std::mutex> lk(mutex_);
        if (fin) {
            for (auto it = fibers_.begin(); it != fibers_.end(); ++it) {
                if (it->get() == g.get()) {
                    fibers_.erase(it);
                    break;
                }
            }
        } else if (g->fiber->wantsPark()) {
            // Commit under the mutex: a racing wake() either beats the CAS
            // (fiber stays runnable) or blocks in fiberWoken until the
            // runnable=false store below is visible. No lost wakeups.
            if (g->fiber->commitPark())
                g->runnable = false;
        }
        // else: cooperative yield — stays runnable, next step resumes it.
    }
}

void
Worker::teardownFibers()
{
    if (tornDown_)
        return;
    // Unwind every live guest: the interrupt token has been tripped, so
    // each resumed fiber throws WorkerTerminated at its blocking site. A
    // fiber that never started (spawned then killed before its first
    // quantum) is dropped without running.
    for (int pass = 0;; pass++) {
        std::vector<std::shared_ptr<GuestFiber>> live;
        {
            std::lock_guard<std::mutex> lk(mutex_);
            live = fibers_;
        }
        if (live.empty())
            break;
        if (pass > 1024)
            panic("Worker: guest fibers failed to unwind on terminate");
        for (auto &g : live) {
            if (!g->fiber->finished() && g->fiber->started()) {
                g->fiber->wake();
                g->fiber->resume();
            }
        }
        std::lock_guard<std::mutex> lk(mutex_);
        for (auto it = fibers_.begin(); it != fibers_.end();) {
            if ((*it)->fiber->finished() || !(*it)->fiber->started())
                it = fibers_.erase(it);
            else
                ++it;
        }
    }
    std::vector<std::function<void()>> fns;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        fns.swap(atExit_);
    }
    for (auto &fn : fns)
        fn();
    tornDown_ = true;
}

bool
Worker::hasPendingWork()
{
    if (terminated())
        return !tornDown_;
    std::lock_guard<std::mutex> lk(mutex_);
    for (auto &g : fibers_)
        if (g->runnable)
            return true;
    return false;
}

void
Worker::finishStep()
{
    bool more = hasPendingWork();
    for (;;) {
        SchedState s = schedState_.load(std::memory_order_seq_cst);
        if (s == SchedState::Dirty) {
            schedState_.store(SchedState::Queued, std::memory_order_seq_cst);
            sched_->enqueue(shared_from_this());
            return;
        }
        if (s == SchedState::Running) {
            if (more) {
                schedState_.store(SchedState::Queued,
                                  std::memory_order_seq_cst);
                sched_->enqueue(shared_from_this());
                return;
            }
            SchedState e = SchedState::Running;
            if (schedState_.compare_exchange_strong(
                    e, SchedState::Idle, std::memory_order_seq_cst)) {
                // Going idle with a pending loop timer: ask the pool to
                // bring us back when it is due.
                if (!terminated()) {
                    int64_t due = loop_.nextTimerDueUs();
                    if (due >= 0)
                        sched_->scheduleTimer(shared_from_this(), due);
                }
                return;
            }
            continue; // raced to Dirty
        }
        if (s == SchedState::Idle) {
            // Unreachable in the pool protocol (step() holds Running for
            // the whole quantum), but never strand runnable work behind a
            // silent return: requeue through the normal wake path.
            if (!more)
                return;
            SchedState e = SchedState::Idle;
            if (schedState_.compare_exchange_strong(
                    e, SchedState::Queued, std::memory_order_seq_cst)) {
                sched_->enqueue(shared_from_this());
                return;
            }
            continue; // a racing signalWork queued us; done
        }
        // Queued while a step is in flight means the single-entry
        // invariant broke — another thread may already be stepping us.
        panic("Worker::finishStep: Queued observed during a step");
    }
}

Worker::RunPhase
Worker::runPhase() const
{
    switch (schedState_.load(std::memory_order_seq_cst)) {
    case SchedState::Running:
    case SchedState::Dirty:
        return RunPhase::Running;
    case SchedState::Queued:
        return RunPhase::Queued;
    case SchedState::Idle:
    default:
        return RunPhase::Parked;
    }
}

Worker::~Worker()
{
    terminate();
    if (!tornDown_) {
        // No other reference exists (we are the destructor), so no pool
        // thread can be stepping this worker: unwind inline.
        schedState_.store(SchedState::Running, std::memory_order_seq_cst);
        teardownFibers();
    }
}

void
Worker::postMessage(const Value &v)
{
    if (terminated())
        return;
    browser_.costs().chargeMessage(v.approxByteSize());
    Value copy = v.clone();
    // Weak: the task sits in this worker's own loop, so a strong capture
    // would be a cycle that a message still queued at terminate leaks.
    std::weak_ptr<Worker> wself = weak_from_this();
    loop_.post([wself, copy = std::move(copy)]() {
        auto self = wself.lock();
        if (!self)
            return;
        std::function<void(Value)> h;
        {
            std::lock_guard<std::mutex> lk(self->mutex_);
            h = self->workerHandler_;
        }
        if (h)
            h(copy);
    });
}

void
Worker::setOnMessage(std::function<void(Value)> handler)
{
    std::lock_guard<std::mutex> lk(mutex_);
    parentHandler_ = std::move(handler);
}

void
Worker::terminate()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (terminated_)
            return;
        terminated_ = true;
        // Stop delivering messages in either direction.
        parentHandler_ = nullptr;
        workerHandler_ = nullptr;
    }
    token_.interrupt();
    // Non-blocking: enqueue a final step so a pool thread unwinds the
    // fibers (throwing WorkerTerminated at their park sites).
    signalWork();
}

bool
Worker::terminated() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return terminated_;
}

} // namespace jsvm
} // namespace browsix
