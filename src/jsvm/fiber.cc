#include "jsvm/fiber.h"

#include <cstring>
#include <string>
#include <sys/mman.h>
#include <unistd.h>

#include "jsvm/sab.h"
#include "jsvm/util.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BROWSIX_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define BROWSIX_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) && !defined(BROWSIX_ASAN)
#define BROWSIX_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__) && !defined(BROWSIX_TSAN)
#define BROWSIX_TSAN 1
#endif

#if defined(BROWSIX_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(BROWSIX_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace browsix {
namespace jsvm {

namespace {

thread_local Fiber *tCurrentFiber = nullptr;

size_t
defaultStackBytes()
{
    // Stacks are lazily committed (anonymous mmap), so the cost of a parked
    // guest is the pages it actually touched, not the virtual reservation.
    // Sanitizer builds get more headroom for redzones and shadow frames.
#if defined(BROWSIX_ASAN) || defined(BROWSIX_TSAN)
    return 1024 * 1024;
#else
    return 256 * 1024;
#endif
}

} // namespace

Fiber::Fiber(Fn fn, WakeHook on_wake, size_t stack_bytes)
    : fn_(std::move(fn)), onWake_(std::move(on_wake))
{
    size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    size_t want = stack_bytes ? stack_bytes : defaultStackBytes();
    stackBytes_ = (want + page - 1) & ~(page - 1);
    stackMapBytes_ = stackBytes_ + page; // + low guard page
    void *base = mmap(nullptr, stackMapBytes_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (base == MAP_FAILED)
        panic("Fiber: mmap of guest stack failed");
    if (mprotect(base, page, PROT_NONE) != 0)
        panic("Fiber: mprotect of guard page failed");
    stackBase_ = static_cast<uint8_t *>(base);
    stackLo_ = stackBase_ + page;
#if defined(BROWSIX_TSAN)
    tsanFiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
    if (started_ && !finished())
        panic("Fiber: destroyed while suspended mid-execution "
              "(teardown must unwind guests first)");
#if defined(BROWSIX_TSAN)
    if (tsanFiber_)
        __tsan_destroy_fiber(tsanFiber_);
#endif
    if (stackBase_)
        munmap(stackBase_, stackMapBytes_);
}

Fiber *
Fiber::current()
{
    return tCurrentFiber;
}

// Sanitizer handoff discipline: every __tsan_switch_to_fiber /
// __sanitizer_*_switch_fiber call below is written INLINE in the function
// that performs the swapcontext. __tsan_switch_to_fiber redirects the
// per-context shadow call stack immediately, so if the call lived in a
// helper, the helper's return (its __tsan_func_exit) would execute on the
// *target* context and pop a frame from the wrong shadow stack. One frame
// per park/exit cycle is enough: a few thousand guest lifecycles underflow
// the pool thread's shadow stack and libtsan crashes hashing it.

void
Fiber::trampoline()
{
    Fiber *f = tCurrentFiber;
#if defined(BROWSIX_ASAN)
    __sanitizer_finish_switch_fiber(f->asanFakeStack_, &f->asanCallerBottom_,
                                    &f->asanCallerSize_);
    f->asanFakeStack_ = nullptr;
#endif
    try {
        f->fn_();
    } catch (const WorkerTerminated &) {
        // Normal teardown unwind: the owning worker was terminated while
        // this guest was blocked; the park site rethrew to get us here.
    } catch (const std::exception &e) {
        panic(std::string("Fiber: guest escaped with exception: ") + e.what());
    } catch (...) {
        panic("Fiber: guest escaped with unknown exception");
    }
    // Destroy captured state (syscall clients, runtime envs) while still on
    // the guest stack, before the owner considers the fiber dead.
    f->fn_ = nullptr;
    f->finished_.store(true, std::memory_order_release);
    // Final exit: pass nullptr so ASan tears down this fiber's fake stack.
#if defined(BROWSIX_TSAN)
    __tsan_switch_to_fiber(f->tsanCaller_, 0);
#endif
#if defined(BROWSIX_ASAN)
    __sanitizer_start_switch_fiber(nullptr, f->asanCallerBottom_,
                                   f->asanCallerSize_);
#endif
    swapcontext(&f->ctx_, &f->callerCtx_);
    panic("Fiber: resumed a finished fiber");
}

void
Fiber::switchOut()
{
#if defined(BROWSIX_TSAN)
    __tsan_switch_to_fiber(tsanCaller_, 0);
#endif
#if defined(BROWSIX_ASAN)
    __sanitizer_start_switch_fiber(&asanFakeStack_, asanCallerBottom_,
                                   asanCallerSize_);
#endif
    swapcontext(&ctx_, &callerCtx_);
    // Resumed again, possibly on a different host thread.
#if defined(BROWSIX_ASAN)
    __sanitizer_finish_switch_fiber(asanFakeStack_, &asanCallerBottom_,
                                    &asanCallerSize_);
    asanFakeStack_ = nullptr;
#endif
}

bool
Fiber::resume()
{
    if (finished())
        return true;
    if (tCurrentFiber)
        panic("Fiber::resume: nested fibers are not supported");
    parkIntent_ = false;
    if (!started_) {
        started_ = true;
        if (getcontext(&ctx_) != 0)
            panic("Fiber: getcontext failed");
        ctx_.uc_stack.ss_sp = stackLo_;
        ctx_.uc_stack.ss_size = stackBytes_;
        ctx_.uc_link = nullptr; // trampoline never returns; it swaps out
        makecontext(&ctx_, &Fiber::trampoline, 0);
    }
    tCurrentFiber = this;
#if defined(BROWSIX_TSAN)
    tsanCaller_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
#if defined(BROWSIX_ASAN)
    void *host_save = nullptr;
    __sanitizer_start_switch_fiber(&host_save, stackLo_, stackBytes_);
#endif
    swapcontext(&callerCtx_, &ctx_);
#if defined(BROWSIX_ASAN)
    __sanitizer_finish_switch_fiber(host_save, nullptr, nullptr);
#endif
    tCurrentFiber = nullptr;
    return finished();
}

void
Fiber::park()
{
    Fiber *f = tCurrentFiber;
    if (!f)
        panic("Fiber::park called outside a fiber");
    for (;;) {
        if (f->state_.exchange(kIdle, std::memory_order_seq_cst) == kNotified)
            return;
        f->parkIntent_ = true;
        f->switchOut();
        // The scheduler either committed the park (a wake re-ran us) or the
        // commit lost to a racing wake (we are still runnable): both paths
        // re-check for the notification above.
    }
}

void
Fiber::yieldNow()
{
    Fiber *f = tCurrentFiber;
    if (!f)
        panic("Fiber::yieldNow called outside a fiber");
    f->parkIntent_ = false;
    f->switchOut();
}

void
Fiber::maybeYield()
{
    if (tCurrentFiber)
        yieldNow();
}

bool
Fiber::commitPark()
{
    parkIntent_ = false;
    int expect = kIdle;
    return state_.compare_exchange_strong(expect, kParked,
                                          std::memory_order_seq_cst);
}

void
Fiber::wake()
{
    int old = state_.exchange(kNotified, std::memory_order_seq_cst);
    if (old == kParked && onWake_)
        onWake_();
}

void
FiberCv::wait(std::unique_lock<std::mutex> &lk)
{
    Fiber *f = Fiber::current();
    if (!f)
        panic("FiberCv::wait called outside a guest fiber");
    fiberWaiters_.push_back(f);
    lk.unlock();
    Fiber::park();
    lk.lock();
    for (auto it = fiberWaiters_.begin(); it != fiberWaiters_.end(); ++it) {
        if (*it == f) {
            fiberWaiters_.erase(it);
            break;
        }
    }
}

void
FiberCv::notifyAll()
{
    // Caller holds the external mutex, so the list snapshot is stable; a
    // waiter between unlock and park still sees the notification via the
    // parker protocol (wake marks kNotified before the park can commit).
    for (Fiber *f : fiberWaiters_)
        f->wake();
    fiberWaiters_.clear();
}

} // namespace jsvm
} // namespace browsix
