/**
 * @file
 * Browser-substrate tests: structured clone, event loops, workers,
 * SharedArrayBuffer + Atomics, blobs, the main loop's wake-up contract,
 * and the cost model.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "jsvm/browser.h"
#include "jsvm/cost_model.h"
#include "jsvm/test_clock.h"
#include "jsvm/util.h"

using namespace browsix::jsvm;

// ---------- Value & structured clone ----------

TEST(Value, TypesAndAccessors)
{
    EXPECT_TRUE(Value().isUndefined());
    EXPECT_TRUE(Value::null().isNull());
    EXPECT_TRUE(Value(true).asBool());
    EXPECT_DOUBLE_EQ(Value(3.5).asNumber(), 3.5);
    EXPECT_EQ(Value(42).asInt(), 42);
    EXPECT_EQ(Value("hi").asString(), "hi");
}

TEST(Value, ObjectGetSetAndMissingKeys)
{
    Value v = Value::object();
    v.set("a", Value(1));
    v.set("b", Value("x"));
    EXPECT_EQ(v.get("a").asInt(), 1);
    EXPECT_EQ(v.get("b").asString(), "x");
    EXPECT_TRUE(v.get("missing").isUndefined());
    EXPECT_TRUE(Value(7).get("anything").isUndefined());
}

TEST(Value, ArrayPushAndAt)
{
    Value v = Value::array();
    v.push(Value(1));
    v.push(Value("two"));
    EXPECT_EQ(v.size(), 2u);
    EXPECT_EQ(v.at(0).asInt(), 1);
    EXPECT_EQ(v.at(1).asString(), "two");
    EXPECT_TRUE(v.at(5).isUndefined());
}

TEST(Value, CloneDeepCopiesBytes)
{
    Value v = Value::bytes({1, 2, 3});
    Value c = v.clone();
    (*v.asBytes())[0] = 99;
    EXPECT_EQ((*c.asBytes())[0], 1) << "clone must not share ArrayBuffers";
}

TEST(Value, CloneDeepCopiesNestedContainers)
{
    Value v = Value::object();
    Value inner = Value::array();
    inner.push(Value(1));
    v.set("arr", std::move(inner));
    Value c = v.clone();
    v.asObject()["arr"].push(Value(2));
    EXPECT_EQ(c.get("arr").size(), 1u);
}

TEST(Value, CloneSharesSharedArrayBuffers)
{
    auto sab = std::make_shared<SharedArrayBuffer>(64);
    Value v(sab);
    Value c = v.clone();
    EXPECT_EQ(c.asShared().get(), sab.get())
        << "SABs pass through structured clone by reference";
}

TEST(Value, ApproxByteSizeCountsPayloads)
{
    Value v = Value::object();
    v.set("data", Value::bytes(std::vector<uint8_t>(1000)));
    EXPECT_GE(v.approxByteSize(), 1000u);
}

// ---------- EventLoop ----------

TEST(EventLoop, RunsPostedTasksInOrder)
{
    EventLoop loop;
    std::vector<int> order;
    loop.post([&]() { order.push_back(1); });
    loop.post([&]() { order.push_back(2); });
    loop.pump();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, CurrentIsSetDuringTask)
{
    EventLoop loop;
    EventLoop *seen = nullptr;
    loop.post([&]() { seen = EventLoop::current(); });
    loop.pump();
    EXPECT_EQ(seen, &loop);
    EXPECT_EQ(EventLoop::current(), nullptr);
}

TEST(EventLoop, TimerFiresAfterDelay)
{
    EventLoop loop;
    bool fired = false;
    int64_t t0 = nowUs();
    loop.setTimeout([&]() { fired = true; }, 5000);
    loop.pump();
    EXPECT_FALSE(fired) << "timer must not fire early";
    while (!fired && nowUs() - t0 < 1000000)
        loop.pumpOne(true);
    EXPECT_TRUE(fired);
    EXPECT_GE(nowUs() - t0, 5000);
}

TEST(EventLoop, ClearTimeoutCancels)
{
    TestClock clock;
    EventLoop loop;
    bool fired = false;
    uint64_t id = loop.setTimeout([&]() { fired = true; }, 1000);
    loop.clearTimeout(id);
    clock.advanceUs(3000); // well past the (cancelled) deadline
    loop.pump();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(loop.idle());
}

TEST(EventLoop, CrossThreadPostWakesBlockedPump)
{
    EventLoop loop;
    std::atomic<bool> ran{false};
    std::thread t([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        loop.post([&]() { ran = true; });
    });
    EXPECT_TRUE(loop.pumpOne(true));
    t.join();
    EXPECT_TRUE(ran);
}

TEST(EventLoop, IdleReflectsQueueAndTimers)
{
    EventLoop loop;
    EXPECT_TRUE(loop.idle());
    loop.post([]() {});
    EXPECT_FALSE(loop.idle());
    loop.pump();
    EXPECT_TRUE(loop.idle());
    uint64_t id = loop.setTimeout([]() {}, 100000);
    EXPECT_FALSE(loop.idle());
    loop.clearTimeout(id);
    EXPECT_TRUE(loop.idle());
}

// ---------- deterministic test clock ----------

TEST(TestClock, ReroutesNowUsWhileInstalled)
{
    int64_t real_before = nowUs();
    {
        TestClock clock(500);
        EXPECT_EQ(TestClock::active(), &clock);
        EXPECT_EQ(nowUs(), 500);
        clock.advanceUs(250);
        EXPECT_EQ(nowUs(), 750);
        clock.advanceUs(-10);
        EXPECT_EQ(nowUs(), 750) << "time never moves backwards";
    }
    EXPECT_EQ(TestClock::active(), nullptr);
    EXPECT_GE(nowUs(), real_before) << "real clock restored on scope exit";
}

TEST(TestClock, NestedClocksRestoreOuter)
{
    TestClock outer(1000);
    {
        TestClock inner(9999999);
        EXPECT_EQ(nowUs(), 9999999);
    }
    EXPECT_EQ(TestClock::active(), &outer);
    EXPECT_EQ(nowUs(), 1000);
}

TEST(TestClock, TimerFiresAtExactVirtualDeadline)
{
    TestClock clock;
    EventLoop loop;
    int64_t fired_at = -1;
    int64_t t0 = nowUs();
    loop.setTimeout([&]() { fired_at = nowUs(); }, 5000);
    loop.pump();
    EXPECT_EQ(fired_at, -1) << "virtual time has not advanced";
    EXPECT_EQ(loop.nextTimerDueUs(), t0 + 5000);
    size_t ran = clock.pumpUntilIdle(loop);
    EXPECT_EQ(ran, 1u);
    EXPECT_EQ(fired_at, t0 + 5000)
        << "the pump jumps exactly to the deadline, no sleeping, no slop";
    EXPECT_TRUE(loop.idle());
}

TEST(TestClock, PumpRunsTimerCascadesInDueOrder)
{
    // Timers that schedule more timers: the pump must repeatedly jump to
    // the next deadline until the loop is genuinely idle.
    TestClock clock;
    EventLoop loop;
    std::vector<int> order;
    loop.setTimeout(
        [&]() {
            order.push_back(2);
            loop.setTimeout([&]() { order.push_back(3); }, 3000);
        },
        2000);
    loop.setTimeout([&]() { order.push_back(1); }, 1000);
    loop.post([&]() { order.push_back(0); });
    clock.pumpUntilIdle(loop);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}))
        << "ready tasks first, then timers in due-time order";
    EXPECT_TRUE(loop.idle());
}

TEST(TestClock, PumpStopsAtVirtualBudget)
{
    TestClock clock;
    EventLoop loop;
    bool fired = false;
    loop.setTimeout([&]() { fired = true; }, 10000000); // 10s virtual
    clock.pumpUntilIdle(loop, /*max_virtual_us=*/1000000);
    EXPECT_FALSE(fired) << "a timer past the budget is left pending";
    EXPECT_FALSE(loop.idle());
    clock.pumpUntilIdle(loop, /*max_virtual_us=*/60000000);
    EXPECT_TRUE(fired);
}

TEST(TestClock, CostChargesBecomeVirtualTime)
{
    // Under a TestClock, cost-model charges advance the virtual clock
    // instead of spinning or sleeping — kernel-lifecycle tests that spawn
    // workers (25ms charge each) pay nothing in wall time.
    TestClock clock;
    CostModel costs(BrowserProfile::chrome2016());
    int64_t t0 = nowUs();
    costs.chargeSpawn();
    EXPECT_EQ(nowUs() - t0, 25000) << "chrome2016 workerSpawnUs, exactly";
    t0 = nowUs();
    costs.chargeMessage(0);
    EXPECT_EQ(nowUs() - t0, 450) << "postMessageUs, exactly";
}

// ---------- SharedArrayBuffer + Atomics ----------

TEST(Atomics, LoadStoreAdd)
{
    SharedArrayBuffer sab(64);
    Atomics::store(sab, 8, 41);
    EXPECT_EQ(Atomics::load(sab, 8), 41);
    EXPECT_EQ(Atomics::add(sab, 8, 1), 41) << "add returns the old value";
    EXPECT_EQ(Atomics::load(sab, 8), 42);
}

TEST(Atomics, CompareExchange)
{
    SharedArrayBuffer sab(16);
    Atomics::store(sab, 0, 5);
    EXPECT_EQ(Atomics::compareExchange(sab, 0, 5, 9), 5);
    EXPECT_EQ(Atomics::load(sab, 0), 9);
    EXPECT_EQ(Atomics::compareExchange(sab, 0, 5, 7), 9)
        << "failed CAS returns current value";
    EXPECT_EQ(Atomics::load(sab, 0), 9);
}

TEST(Atomics, WaitReturnsNotEqualImmediately)
{
    SharedArrayBuffer sab(16);
    Atomics::store(sab, 0, 1);
    EXPECT_EQ(Atomics::wait(sab, 0, 0, -1), WaitResult::NotEqual);
}

TEST(Atomics, WaitTimesOut)
{
    SharedArrayBuffer sab(16);
    int64_t t0 = nowUs();
    EXPECT_EQ(Atomics::wait(sab, 0, 0, 2000), WaitResult::TimedOut);
    EXPECT_GE(nowUs() - t0, 2000);
}

TEST(Atomics, NotifyWakesWaiter)
{
    SharedArrayBuffer sab(16);
    std::atomic<int> result{-1};
    std::thread waiter([&]() {
        result = static_cast<int>(Atomics::wait(sab, 0, 0, -1));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Atomics::store(sab, 0, 1);
    EXPECT_EQ(Atomics::notify(sab, 0), 1);
    waiter.join();
    EXPECT_EQ(result, static_cast<int>(WaitResult::Ok));
}

TEST(Atomics, NotifyOnlyWakesMatchingOffset)
{
    SharedArrayBuffer sab(32);
    std::atomic<bool> woke{false};
    std::thread waiter([&]() {
        Atomics::wait(sab, 0, 0, 200000);
        woke = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(Atomics::notify(sab, 4), 0) << "different address: no waiters";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(woke);
    Atomics::notify(sab, 0);
    waiter.join();
}

TEST(Atomics, InterruptTokenWakesWaiter)
{
    SharedArrayBuffer sab(16);
    InterruptToken token;
    std::atomic<int> result{-1};
    std::thread waiter([&]() {
        result = static_cast<int>(Atomics::wait(sab, 0, 0, -1, &token));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.interrupt();
    waiter.join();
    EXPECT_EQ(result, static_cast<int>(WaitResult::Interrupted));
}

TEST(Atomics, NotifyCountLimitsWakes)
{
    SharedArrayBuffer sab(16);
    std::atomic<int> woken{0};
    std::vector<std::thread> ts;
    for (int i = 0; i < 3; i++) {
        ts.emplace_back([&]() {
            if (Atomics::wait(sab, 0, 0, 500000) == WaitResult::Ok)
                woken++;
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(Atomics::notify(sab, 0, 1), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(woken, 1);
    Atomics::notify(sab, 0); // release the rest
    for (auto &t : ts)
        t.join();
}

// ---------- Blob registry ----------

namespace {

BlobRegistry::Data
blobBytes(std::vector<uint8_t> bytes)
{
    return std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
}

} // namespace

TEST(Blob, CreateResolveRevoke)
{
    BlobRegistry blobs;
    std::string url = blobs.createObjectUrl(blobBytes({1, 2, 3}));
    EXPECT_EQ(url.rfind("blob:", 0), 0u);
    auto data = blobs.resolve(url);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->size(), 3u);
    blobs.revokeObjectUrl(url);
    EXPECT_EQ(blobs.resolve(url), nullptr);
}

TEST(Blob, UrlsAreUnique)
{
    BlobRegistry blobs;
    EXPECT_NE(blobs.createObjectUrl(blobBytes({1})),
              blobs.createObjectUrl(blobBytes({1})));
}

TEST(Blob, HoldsTheCallersBytesWithoutCopying)
{
    // A browser Blob is an immutable snapshot, not a copy per worker:
    // every URL over one buffer resolves to that buffer.
    BlobRegistry blobs;
    auto bytes = blobBytes({7, 8, 9});
    std::string a = blobs.createObjectUrl(bytes);
    std::string b = blobs.createObjectUrl(bytes);
    EXPECT_EQ(blobs.resolve(a).get(), bytes.get());
    EXPECT_EQ(blobs.resolve(b).get(), bytes.get());
    blobs.revokeObjectUrl(a);
    EXPECT_EQ(blobs.resolve(b).get(), bytes.get());
}

// ---------- Worker ----------

TEST(Worker, EchoRoundtrip)
{
    Browser browser;
    std::string url = browser.blobs().createObjectUrl(blobBytes({'x'}));
    auto w = browser.createWorker(url, [](WorkerScope &scope, auto) {
        scope.setOnMessage([&scope](Value v) {
            Value reply = Value::object();
            reply.set("echo", v.get("msg").clone());
            scope.postMessage(reply);
        });
    });
    std::string got;
    w->setOnMessage([&](Value v) { got = v.get("echo").asString(); });
    Value msg = Value::object();
    msg.set("msg", Value("ping"));
    w->postMessage(msg);
    EXPECT_TRUE(browser.runUntil([&]() { return !got.empty(); }, 5000));
    EXPECT_EQ(got, "ping");
    w->terminate();
}

TEST(Worker, MessagesAreCopiedNotShared)
{
    Browser browser;
    std::string url = browser.blobs().createObjectUrl(blobBytes({'x'}));
    auto payload = std::make_shared<std::vector<uint8_t>>(
        std::vector<uint8_t>{1, 2, 3});
    std::atomic<int> first_byte{-1};
    auto w = browser.createWorker(url, [&](WorkerScope &scope, auto) {
        scope.setOnMessage([&](Value v) {
            first_byte = (*v.asBytes())[0];
            scope.postMessage(Value("done"));
        });
    });
    bool done = false;
    w->setOnMessage([&](Value) { done = true; });
    Value v(payload);
    w->postMessage(v);
    // Mutating the sender's copy after postMessage must not be visible.
    (*payload)[0] = 77;
    browser.runUntil([&]() { return done; }, 5000);
    EXPECT_EQ(first_byte, 1);
    w->terminate();
}

TEST(Worker, TerminateInterruptsAtomicsWait)
{
    // Declared before the Browser: ~Browser drains any teardown step
    // still queued, and that step writes these.
    std::atomic<bool> waiting{false};
    std::atomic<bool> interrupted{false};
    std::atomic<bool> unwound{false};
    Browser browser;
    std::string url = browser.blobs().createObjectUrl(blobBytes({'x'}));
    auto sab = std::make_shared<SharedArrayBuffer>(16);
    auto w = browser.createWorker(url, [&](WorkerScope &scope, auto) {
        scope.startGuest([&scope, sab, &waiting, &interrupted]() {
            waiting = true;
            if (Atomics::wait(*sab, 0, 0, -1, &scope.token()) ==
                WaitResult::Interrupted)
                interrupted = true;
        });
        // Runs in the teardown step, once every guest has unwound.
        scope.atExit([&unwound]() { unwound = true; });
    });
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    auto parked = [&]() {
        return waiting && w->runPhase() == Worker::RunPhase::Parked;
    };
    while (!parked() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    ASSERT_TRUE(parked()) << "guest never parked in Atomics.wait";
    // terminate() is non-blocking: the pool runs the teardown step.
    w->terminate();
    while (!unwound && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_TRUE(unwound) << "teardown step never ran";
    EXPECT_TRUE(interrupted)
        << "terminate must interrupt a guest parked in Atomics.wait";
}

TEST(Worker, SharedMemoryIsVisibleAcrossContexts)
{
    Browser browser;
    std::string url = browser.blobs().createObjectUrl(blobBytes({'x'}));
    auto sab = std::make_shared<SharedArrayBuffer>(16);
    auto w = browser.createWorker(url, [](WorkerScope &scope, auto) {
        scope.setOnMessage([&scope](Value v) {
            auto heap = v.get("heap").asShared();
            Atomics::store(*heap, 0, 123);
            scope.postMessage(Value("stored"));
        });
    });
    bool done = false;
    w->setOnMessage([&](Value) { done = true; });
    Value msg = Value::object();
    msg.set("heap", Value(sab));
    w->postMessage(msg);
    browser.runUntil([&]() { return done; }, 5000);
    EXPECT_EQ(Atomics::load(*sab, 0), 123)
        << "worker writes through the SAB must be visible to the main "
           "context";
    w->terminate();
}

TEST(Worker, TerminatedWorkerDropsMessages)
{
    Browser browser;
    std::string url = browser.blobs().createObjectUrl(blobBytes({'x'}));
    std::atomic<int> received{0};
    auto w = browser.createWorker(url, [&](WorkerScope &scope, auto) {
        scope.setOnMessage([&](Value) { received++; });
    });
    w->terminate();
    w->postMessage(Value(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(received, 0);
}

// ---------- Browser main loop ----------

namespace {
int64_t
elapsedUs(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}
} // namespace

TEST(Browser, PostedTaskWakesRunUntilAtOnce)
{
    // Ping-pong between a host thread and the main loop: every round
    // trip is one post each way. A loop that polls every 200 µs would
    // need at least kRounds * 200 µs; waking on the post needs far less.
    constexpr int kRounds = 2000;
    Browser browser;
    std::mutex mu;
    std::condition_variable cv;
    int pongs = 0; // guarded by mu
    std::thread host([&]() {
        for (int i = 0; i < kRounds; i++) {
            browser.mainLoop().post([&]() {
                std::lock_guard<std::mutex> lk(mu);
                pongs++;
                cv.notify_one();
            });
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&]() { return pongs > i; });
        }
    });
    auto t0 = std::chrono::steady_clock::now();
    bool done = browser.runUntil(
        [&]() {
            std::lock_guard<std::mutex> lk(mu);
            return pongs == kRounds;
        },
        30000);
    int64_t us = elapsedUs(t0);
    host.join();
    EXPECT_TRUE(done);
    EXPECT_LT(us, kRounds * 200)
        << "runUntil must wake on a post, not on a 200 us poll";
}

TEST(Browser, RunUntilRechecksUnannouncedState)
{
    // A host thread sets the flag without posting anything: runUntil
    // still sees it within its re-check period, long before the timeout.
    Browser browser;
    std::atomic<bool> flag{false};
    std::thread host([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        flag = true;
    });
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(browser.runUntil([&]() { return flag.load(); }, 30000));
    EXPECT_LT(elapsedUs(t0), 5000000);
    host.join();
}

TEST(Browser, RunUntilTimesOut)
{
    Browser browser;
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(browser.runUntil([]() { return false; }, 5));
    int64_t us = elapsedUs(t0);
    EXPECT_GE(us, 5000);
    EXPECT_LT(us, 1000000);
}

TEST(Browser, MainLoopTimerEndsTheWait)
{
    Browser browser;
    bool fired = false;
    auto t0 = std::chrono::steady_clock::now();
    browser.mainLoop().setTimeout([&]() { fired = true; }, 2000);
    EXPECT_TRUE(browser.runUntil([&]() { return fired; }, 30000));
    int64_t us = elapsedUs(t0);
    EXPECT_GE(us, 2000);
    EXPECT_LT(us, 1000000);
}

TEST(Browser, WorkerListStaysBoundedOverShortLivedWorkers)
{
    // Each spawn records a weak_ptr to its worker; expired entries are
    // dropped as the list grows, so a long run of short-lived workers
    // does not leave one dead entry (and control block) per spawn.
    Browser browser;
    std::string url = browser.blobs().createObjectUrl(blobBytes({'x'}));
    size_t most = 0;
    for (int i = 0; i < 1000; i++) {
        std::weak_ptr<Worker> gone;
        {
            auto w = browser.createWorker(url, [](WorkerScope &, auto) {});
            w->terminate();
            gone = w;
        }
        ASSERT_TRUE(browser.runUntil([&]() { return gone.expired(); }, 5000))
            << "worker " << i << " was never freed";
        most = std::max(most, browser.trackedWorkers());
    }
    EXPECT_LE(most, 32u);
}

// ---------- AsyncLoop ----------

TEST(AsyncLoop, PendingTurnKeepsItAliveAndTheLastTurnFreesIt)
{
    // A hand-driven async source: each turn parks its continuation here.
    std::vector<std::function<void()>> pending;
    std::vector<int> seen;
    auto capture = std::make_shared<int>(0); // stands in for the captures
    std::weak_ptr<int> watch = capture;
    {
        auto loop = AsyncLoop<int>::make(
            [capture, &pending, &seen](const auto &self, int i) {
                seen.push_back(i);
                if (i < 3)
                    pending.push_back([self, i]() { (*self)(i + 1); });
            });
        (*loop)(0);
    }
    capture.reset();
    while (!pending.empty()) {
        EXPECT_FALSE(watch.expired())
            << "a pending turn must keep the loop and its captures alive";
        auto next = std::move(pending.back());
        pending.pop_back();
        next();
    }
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(watch.expired())
        << "with no turn pending, nothing may own the loop";
}

TEST(AsyncLoop, LoopWithNoPendingTurnIsFreedAtOnce)
{
    auto state = std::make_shared<int>(0);
    std::weak_ptr<int> watch = state;
    auto loop = AsyncLoop<>::make([state](const auto &) { (*state)++; });
    state.reset();
    (*loop)();
    (*loop)();
    EXPECT_EQ(*watch.lock(), 2);
    loop.reset();
    EXPECT_TRUE(watch.expired());
}

// ---------- Cost model ----------

TEST(CostModel, FastProfileChargesNothing)
{
    CostModel costs(BrowserProfile::fast());
    int64_t t0 = nowUs();
    for (int i = 0; i < 1000; i++)
        costs.chargeMessage(1024);
    EXPECT_LT(nowUs() - t0, 50000);
}

TEST(CostModel, FastProfileIsNeutral)
{
    // Host-time benchmarks run under fast(): no field may add simulated
    // time, so every cost is 0 and every factor is 1.
    const BrowserProfile &p = BrowserProfile::fast();
    EXPECT_EQ(p.postMessageUs, 0);
    EXPECT_EQ(p.cloneUsPerKb, 0);
    EXPECT_EQ(p.workerSpawnUs, 0);
    EXPECT_EQ(p.parseUsPerKb, 0);
    EXPECT_EQ(p.jsComputeFactor, 1);
    EXPECT_EQ(p.emterpreterFactor, 1);
    EXPECT_EQ(p.asmjsFactor, 1);
    // The paper profiles keep the calibrated asm.js surcharge.
    EXPECT_EQ(BrowserProfile::chrome2016().asmjsFactor, 3);
    EXPECT_EQ(BrowserProfile::firefox2016().asmjsFactor, 3);
}

TEST(CostModel, MessageChargeScalesWithProfile)
{
    CostModel costs(BrowserProfile::chrome2016());
    int64_t t0 = nowUs();
    costs.chargeMessage(0);
    int64_t elapsed = nowUs() - t0;
    EXPECT_GE(elapsed, 150) << "Chrome profile: ~200us per postMessage";
    EXPECT_LT(elapsed, 5000);
}

TEST(CostModel, ChromeSlowerThanFirefoxPerMessage)
{
    // The paper measures the meme list request slower in Chrome (9ms)
    // than Firefox (6ms); the profiles must preserve that ordering.
    EXPECT_GT(BrowserProfile::chrome2016().postMessageUs,
              BrowserProfile::firefox2016().postMessageUs);
}
