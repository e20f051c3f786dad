/**
 * @file
 * Worker-pool scheduler tests (ROADMAP item 1: decouple "process" from
 * "thread"): workers on the browser's run queue, run-state
 * introspection, FIFO fairness under a single pool thread, SIGKILL of a
 * task that never reached a pool thread, the per-tenant NPROC quota
 * (the fork-bomb fence), and Kernel::system surfacing spawn failures
 * instead of panicking.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.h"
#include "core/browsix.h"
#include "jsvm/util.h"
#include "tests/test_util.h"

using namespace browsix;

namespace {

using testutil::stage;

void
addProgram(const std::string &name, rt::EmProgramFn fn,
           apps::RuntimeKind kind = apps::RuntimeKind::EmAsync)
{
    testutil::addProgram(name, std::move(fn), kind);
}

} // namespace

TEST(Scheduler, ProcessesAreQueueItemsNotThreads)
{
    // Every process worker is a run-queue item stepped by the shared
    // pool, not a dedicated thread pair.
    testutil::addParkProgram("sched-park");
    Browsix bx;
    stage(bx, "sched-park");
    EXPECT_GE(bx.kernel().scheduler().poolSize(), 2u);

    int pid = 0;
    bx.kernel().spawnRoot({"/usr/bin/sched-park"}, bx.kernel().defaultEnv,
                          "/", [](int) {}, nullptr, nullptr,
                          [&](int p) { pid = p; });
    ASSERT_TRUE(bx.runUntil([&]() { return pid > 0; }, 30000));
    kernel::Task *t = bx.kernel().task(pid);
    ASSERT_NE(t, nullptr);
    ASSERT_NE(t->worker, nullptr);

    // Once it blocks on its empty pipe the process costs zero threads:
    // the worker winds down to Parked (idle, not queued, not running).
    ASSERT_TRUE(bx.runUntil(
        [&]() { return bx.kernel().runState(pid) == kernel::RunState::Parked; },
        30000))
        << "a blocked process must park instead of holding a thread";
    EXPECT_GT(bx.kernel().scheduler().steps(), 0u);

    EXPECT_EQ(bx.kernel().kill(pid, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil(
        [&]() { return bx.kernel().taskCount() == 0; }, 30000));
    EXPECT_EQ(bx.kernel().runState(pid), kernel::RunState::Zombie)
        << "a reaped pid reads as Zombie, not a stale phase";
}

TEST(Scheduler, SingleThreadPoolCannotBeStarvedBySpinners)
{
    // Fairness at worker granularity: with ONE pool thread, four guests
    // spinning in a syscall loop must not starve a newcomer — each spin
    // iteration parks its fiber awaiting the reply, the worker yields its
    // quantum, and FIFO ordering guarantees the newcomer's turn.
    addProgram("sched-spin", [](rt::EmEnv &env) -> int {
        for (;;)
            env.getpid(); // parks per call; killed by the host at the end
        return 0;
    });
    addProgram("sched-visitor", [](rt::EmEnv &env) -> int {
        return env.getpid() > 0 ? 0 : 1;
    });
    Browsix bx;
    bx.kernel().setPoolThreads(1);
    stage(bx, "sched-spin");
    stage(bx, "sched-visitor");

    int spinners = 0;
    for (int i = 0; i < 4; i++) {
        bx.kernel().spawnRoot({"/usr/bin/sched-spin"},
                              bx.kernel().defaultEnv, "/", [](int) {},
                              nullptr, nullptr,
                              [&](int p) { spinners += p > 0 ? 1 : 0; });
    }
    ASSERT_TRUE(bx.runUntil([&]() { return spinners == 4; }, 30000));

    // The visitor must run to completion while the spinners never exit.
    auto r = bx.runArgv({"/usr/bin/sched-visitor"}, 60000);
    EXPECT_TRUE(r.ok) << "spinners starved the run queue";
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(bx.kernel().taskCount(), 4u) << "spinners must still be live";

    EXPECT_EQ(bx.kernel().kill(-1, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil(
        [&]() { return bx.kernel().taskCount() == 0; }, 30000));
}

TEST(Scheduler, SigkillOfQueuedNeverRunTaskReapsCleanly)
{
    // SIGKILL a task whose worker is Runnable but has never been stepped:
    // a hog pins the single pool thread in a long CPU burst (no syscalls,
    // so its fiber never yields), the victim is spawned and killed while
    // provably still in the run queue, and its never-started guest fiber
    // must be dropped without unwinding — clean reap, right status.
    addProgram("sched-hog", [](rt::EmEnv &) -> int {
        auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        volatile uint64_t x = 0;
        while (std::chrono::steady_clock::now() < until)
            x += 1;
        return x ? 0 : 1;
    });
    testutil::addParkProgram("sched-park");
    Browsix bx;
    bx.kernel().setPoolThreads(1);
    stage(bx, "sched-hog");
    stage(bx, "sched-park");

    int hog_exit = -1, hog_pid = 0;
    bx.kernel().spawnRoot({"/usr/bin/sched-hog"}, bx.kernel().defaultEnv,
                          "/", [&](int st) { hog_exit = st; }, nullptr,
                          nullptr, [&](int p) { hog_pid = p; });
    ASSERT_TRUE(bx.runUntil(
        [&]() {
            return hog_pid > 0 &&
                   bx.kernel().runState(hog_pid) ==
                       kernel::RunState::Running;
        },
        30000))
        << "hog never started its CPU burst";

    int victim_exit = -1, victim_pid = 0;
    bx.kernel().spawnRoot({"/usr/bin/sched-park"}, bx.kernel().defaultEnv,
                          "/", [&](int st) { victim_exit = st; }, nullptr,
                          nullptr, [&](int p) { victim_pid = p; });
    ASSERT_TRUE(bx.runUntil([&]() { return victim_pid > 0; }, 30000));
    // The one pool thread is inside the hog's burst: the victim can only
    // be queued (its boot step has not happened, its fiber never ran).
    EXPECT_EQ(bx.kernel().runState(victim_pid), kernel::RunState::Runnable)
        << "victim should be waiting in the run queue";
    EXPECT_EQ(bx.kernel().kill(victim_pid, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil([&]() { return victim_exit != -1; }, 30000));
    EXPECT_EQ(sys::wtermsig(victim_exit), sys::SIGKILL);
    EXPECT_EQ(bx.kernel().runState(victim_pid), kernel::RunState::Zombie);

    ASSERT_TRUE(bx.runUntil([&]() { return hog_exit != -1; }, 60000))
        << "hog never finished after the kill";
    EXPECT_EQ(sys::wexitstatus(hog_exit), 0);
    EXPECT_EQ(bx.kernel().taskCount(), 0u);
}

TEST(Scheduler, NprocQuotaReturnsEagainAndRecoversAfterReap)
{
    // The per-tenant NPROC fence: a root process and its descendants
    // share one live-process budget. Spawns past it fail with -EAGAIN;
    // reaping a child frees the slot.
    testutil::addParkProgram("sched-park");
    addProgram("sched-quota", [](rt::EmEnv &env) -> int {
        std::vector<int> kids;
        int rc = 0;
        for (int i = 0; i < 16; i++) {
            int pid =
                env.spawn({"/usr/bin/sched-park"}, std::vector<int>{});
            if (pid < 0) {
                rc = pid;
                break;
            }
            kids.push_back(pid);
        }
        if (rc != -EAGAIN)
            return 1; // quota never engaged
        // Limit 4, root charges 1: exactly 3 children fit.
        if (kids.size() != 3)
            return 2;
        // Reap one child: its slot must become spawnable again.
        if (env.kill(kids[0], sys::SIGKILL) != 0)
            return 3;
        int st = 0;
        if (env.waitpid(kids[0], &st, 0) != kids[0])
            return 4;
        int again = env.spawn({"/usr/bin/sched-park"}, std::vector<int>{});
        if (again <= 0)
            return 5;
        // And the budget is exhausted again right after.
        if (env.spawn({"/usr/bin/sched-park"}, std::vector<int>{}) !=
            -EAGAIN)
            return 6;
        if (env.kill(-1, sys::SIGKILL) != 0) // broadcast excludes self
            return 7;
        while (env.waitpid(-1, nullptr, 0) > 0) {
        }
        return 0;
    });
    Browsix bx;
    bx.kernel().setNprocLimit(4);
    stage(bx, "sched-park");
    stage(bx, "sched-quota");
    auto r = bx.runArgv({"/usr/bin/sched-quota"}, 60000);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(bx.kernel().taskCount(), 0u);
}

TEST(Scheduler, TimerParkedWorkerRewakesThroughTheDedupedWakePath)
{
    // A pooled worker that goes Idle with a pending loop timer is brought
    // back by the scheduler's timer rail. Regression: timer promotion
    // used to push the worker onto the run queue directly, skipping
    // signalWork's Idle->Queued CAS — a wake landing in the same window
    // (Atomics::notify of a parked guest, or any signalWork) could then
    // double-queue the worker and two pool threads would resume the same
    // guest fiber at once. Race hundreds of 1ms promotions against a
    // notify/signalWork hammer so TSan (and step()'s ownership CAS)
    // catch any return of the raw push. The race needs at least two pool
    // threads, which the Browser's default pool always has.
    jsvm::Browser browser;
    ASSERT_GE(browser.scheduler().poolSize(), 2u);
    std::string url = browser.blobs().createObjectUrl(
        std::make_shared<const std::vector<uint8_t>>(1, 'x'));
    auto sab = std::make_shared<jsvm::SharedArrayBuffer>(16);
    std::atomic<int> rounds{0};
    std::atomic<int> timer_fired{0};
    auto w = browser.createWorker(url, [&](jsvm::WorkerScope &scope, auto) {
        // Rail 1: a self-re-arming 1ms loop timer, so nearly every step
        // parks the worker with a pending deadline (finishStep ->
        // scheduleTimer -> promoteDueTimersLocked, over and over).
        jsvm::EventLoop *loop = &scope.loop();
        auto rearm = jsvm::AsyncLoop<>::make(
            [loop, &timer_fired](const auto &self) {
                timer_fired++;
                loop->setTimeout([self]() { (*self)(); }, 1000);
            });
        loop->setTimeout([rearm]() { (*rearm)(); }, 1000);
        // Rail 2: a guest fiber parking in Atomics::wait each round; the
        // main-thread notify makes it runnable — and signals the worker —
        // right as a timer promotion may be in flight.
        jsvm::InterruptToken *token = &scope.token();
        scope.startGuest([sab, token, &rounds]() {
            for (;;) {
                if (jsvm::Atomics::wait(*sab, 0, 0, -1, token) !=
                    jsvm::WaitResult::Ok)
                    return; // interrupted: terminate() is unwinding us
                rounds++;
            }
        });
    });
    const int kRounds = 300;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((rounds < kRounds || timer_fired < 20) &&
           std::chrono::steady_clock::now() < deadline) {
        jsvm::Atomics::notify(*sab, 0);
        w->signalWork();
        std::this_thread::yield();
    }
    EXPECT_GE(rounds.load(), kRounds) << "parked guest stopped being rewoken";
    EXPECT_GE(timer_fired.load(), 20) << "scheduler timer rail never fired";
    w->terminate();
}

TEST(Scheduler, KernelSystemSurfacesSpawnFailureInsteadOfPanicking)
{
    // Regression: a missing /bin/sh used to panic the whole embedder
    // from inside Kernel::system's spawn callback. The negative errno
    // must surface through on_exit instead.
    Browsix bx;
    int unlink_rc = -1;
    bx.fs().unlink("/bin/sh", [&](int err) { unlink_rc = err; });
    ASSERT_TRUE(bx.runUntil([&]() { return unlink_rc != -1; }, 30000));
    ASSERT_EQ(unlink_rc, 0);

    int got = 1;
    bx.kernel().system("echo hi", [&](int status) { got = status; },
                       nullptr, nullptr);
    ASSERT_TRUE(bx.runUntil([&]() { return got != 1; }, 30000))
        << "spawn failure never reached on_exit";
    EXPECT_EQ(got, -ENOENT) << "on_exit must carry the spawn errno";
    EXPECT_EQ(bx.kernel().taskCount(), 0u);
}
