/**
 * @file
 * Small shared helpers for the browser substrate: panic, wall-clock
 * time, cycle-free asynchronous loops.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

namespace browsix {
namespace jsvm {

/** Abort the process with a message; used for "should never happen" bugs. */
[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "browsix panic: %s\n", msg.c_str());
    std::abort();
}

/**
 * Monotonic clock in microseconds, used for timers and benchmarks.
 * Real steady_clock time normally; a virtual counter while a
 * jsvm::TestClock is installed (see test_clock.h). Defined in
 * test_clock.cc.
 */
int64_t nowUs();

/**
 * An asynchronous loop (read until EOF, one syscall per list entry,
 * re-arm a watcher) that owns no reference to itself.
 *
 * Each turn runs body(self, args...). `self` is a strong handle: the
 * turn hands it to the callback it leaves pending, and that callback
 * starts the next turn with (*self)(args...). The loop refers to itself
 * only weakly (enable_shared_from_this), so it lives exactly as long as
 * a turn is running or a callback holding `self` is pending, and is
 * freed when the last turn leaves none. Contrast the closure that
 * captures its own shared_ptr<std::function>: a cycle nothing frees.
 */
template <typename... Args>
class AsyncLoop : public std::enable_shared_from_this<AsyncLoop<Args...>>
{
  public:
    using Ptr = std::shared_ptr<AsyncLoop>;
    using Body = std::function<void(const Ptr &self, Args...)>;

    static Ptr
    make(Body body)
    {
        return Ptr(new AsyncLoop(std::move(body)));
    }

    void
    operator()(Args... args)
    {
        body_(this->shared_from_this(), std::move(args)...);
    }

  private:
    explicit AsyncLoop(Body body) : body_(std::move(body)) {}

    Body body_;
};

} // namespace jsvm
} // namespace browsix
