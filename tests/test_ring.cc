/**
 * @file
 * Ring syscall convention tests: registration validation, SQ-full
 * backpressure, whole-batch draining in a single kernel pump, the
 * one-notify-per-batch contract (under a deterministic TestClock), and
 * worker termination unwinding a parked ring waiter.
 *
 * Test programs run inside real Browsix processes (RuntimeKind::EmRing)
 * and reach the batch API via EmEnv::ring(); the host asserts on exit
 * codes and on the kernel's ring counters.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "apps/registry.h"
#include "core/browsix.h"
#include "jsvm/test_clock.h"
#include "runtime/syscall_ring.h"
#include "tests/test_util.h"

using namespace browsix;

namespace {

using testutil::stage;

void
addProgram(const std::string &name, rt::EmProgramFn fn,
           apps::RuntimeKind kind = apps::RuntimeKind::EmRing)
{
    testutil::addProgram(name, std::move(fn), kind);
}

} // namespace

TEST(RingLayout, ValidationRejectsMalformedRegions)
{
    using sys::RingLayout;
    const size_t heap = 1 << 20;
    EXPECT_TRUE(RingLayout::valid(16, 64, heap));
    EXPECT_FALSE(RingLayout::valid(-4, 64, heap)) << "negative base";
    EXPECT_FALSE(RingLayout::valid(18, 64, heap)) << "misaligned base";
    EXPECT_FALSE(RingLayout::valid(16, 48, heap)) << "non-power-of-two";
    EXPECT_FALSE(RingLayout::valid(16, 0, heap)) << "zero entries";
    EXPECT_FALSE(RingLayout::valid(16, 8192, heap)) << "entries cap";
    // 64 entries need 24 + 64*48 = 3096 bytes: reject a heap too small.
    EXPECT_EQ(RingLayout::kHeaderBytes, 24u);
    EXPECT_FALSE(RingLayout::valid(0, 64, 3095));
    EXPECT_TRUE(RingLayout::valid(0, 64, 3096));
}

TEST(RingSyscalls, KernelRejectsBogusRegistration)
{
    // ring_personality validates offset/entries against the heap, and a
    // second registration is refused (EBUSY): replacing a live ring
    // would orphan SQEs already written to the old region.
    addProgram("ring-reject", [](rt::EmEnv &env) -> int {
        rt::CallResult r =
            rt::blockingCall(env.client(), "ring_personality",
                             {jsvm::Value(-4), jsvm::Value(64)});
        if (r.r0 != -EINVAL)
            return 1;
        r = rt::blockingCall(env.client(), "ring_personality",
                             {jsvm::Value(16), jsvm::Value(48)});
        if (r.r0 != -EINVAL)
            return 2;
        rt::RingSyscalls ring(*env.syncCalls(), 8); // the one real ring
        if (ring.call(sys::GETPID, {}) != env.pid())
            return 3;
        r = rt::blockingCall(env.client(), "ring_personality",
                             {jsvm::Value(16), jsvm::Value(8)});
        if (r.r0 != -EBUSY)
            return 4;
        return 0;
    }, apps::RuntimeKind::EmSync);
    Browsix bx;
    stage(bx, "ring-reject");
    auto r = bx.runArgv({"/usr/bin/ring-reject"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0) << "kernel accepted a malformed ring";
}

TEST(RingSyscalls, SingleCallsRouteThroughRing)
{
    addProgram("ring-single", [](rt::EmEnv &env) -> int {
        if (env.getpid() <= 0)
            return 1;
        // Since the deferral protocol, read rides the ring too: a drained
        // READ SQE that would block parks kernel-side and its CQE is
        // deferred. Against a regular file it completes in the same
        // drain pass.
        int fd = env.open("/tmp/ring.txt",
                          bfs::flags::CREAT | bfs::flags::RDWR);
        if (fd < 0)
            return 2;
        if (env.write(fd, std::string("ring")) != 4)
            return 3;
        if (env.llseek(fd, 0, 0) != 0)
            return 4;
        bfs::Buffer buf;
        if (env.read(fd, buf, 16) != 4 ||
            std::string(buf.begin(), buf.end()) != "ring")
            return 5;
        sys::StatX st;
        if (env.fstat(fd, st) != 0 || st.size != 4)
            return 6;
        env.close(fd);
        return 0;
    });
    Browsix bx;
    stage(bx, "ring-single");
    auto r = bx.runArgv({"/usr/bin/ring-single"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_GT(bx.kernel().stats().ringSyscallCount, 0u)
        << "Ring-mode getpid/open/... should use the ring";
    EXPECT_EQ(bx.kernel().stats().syncSyscallCount, 0u)
        << "every call in this program is ring-eligible now — read "
           "included, via the completion-deferral protocol";
}

TEST(RingSyscalls, SqFullBackpressureCompletesEveryCall)
{
    // A 4-entry ring, 16 getpids submitted before any wait: submit()
    // must park on the full SQ/in-flight window and resume as the
    // kernel frees slots — no call lost, no deadlock. EmSync mode: this
    // hand-built ring is the process's one registered ring.
    addProgram("ring-backpressure", [](rt::EmEnv &env) -> int {
        rt::RingSyscalls small(*env.syncCalls(), 4);
        std::vector<uint32_t> seqs;
        for (int i = 0; i < 16; i++)
            seqs.push_back(small.submit(sys::GETPID, {}));
        small.flush();
        for (uint32_t seq : seqs) {
            if (small.wait(seq).r0 != env.pid())
                return 1;
        }
        return 0;
    }, apps::RuntimeKind::EmSync);
    Browsix bx;
    stage(bx, "ring-backpressure");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/ring-backpressure"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_GE(after.ringSyscallCount - before.ringSyscallCount, 16u);
    EXPECT_GE(after.ringBatchesDrained - before.ringBatchesDrained, 2u)
        << "a 4-entry ring cannot take 16 calls in one batch";
    EXPECT_EQ(after.ringCqOverflows, 0u)
        << "the in-flight window must protect the CQ";
}

TEST(RingSyscalls, BatchOf64DrainsInOnePumpWithOneNotify)
{
    // The tentpole contract, deterministically: 64 SQEs published under
    // a single doorbell are drained in one kernel pump and answered
    // with exactly one Atomics notify. TestClock turns the cost-model
    // charges into virtual time so the run is exact and fast.
    jsvm::TestClock clock;
    addProgram("ring-batch64", [](rt::EmEnv &env) -> int {
        rt::RingSyscalls *ring = env.ring();
        if (!ring || ring->capacity() != 64)
            return 2;
        std::vector<uint32_t> seqs;
        for (int i = 0; i < 64; i++)
            seqs.push_back(ring->submit(sys::GETPID, {}));
        ring->flush();
        if (ring->doorbellsRung() != 1)
            return 3;
        for (uint32_t seq : seqs) {
            if (ring->wait(seq).r0 != env.pid())
                return 1;
        }
        return 0;
    });
    Browsix bx;
    stage(bx, "ring-batch64");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/ring-batch64"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_EQ(after.ringSyscallCount - before.ringSyscallCount, 64u);
    EXPECT_EQ(after.ringBatchesDrained - before.ringBatchesDrained, 1u)
        << "one doorbell -> one drain pass";
    EXPECT_EQ(after.ringNotifies - before.ringNotifies, 1u)
        << "64 completions must coalesce into a single notify";
}

TEST(RingSyscalls, CountersAndLatencyHistogramsTrackRingCalls)
{
    // PR 2 added the ring counters without direct assertions; pin them
    // down together with the per-syscall latency histograms so the stats
    // refactor cannot silently regress either.
    jsvm::TestClock clock;
    addProgram("ring-hist", [](rt::EmEnv &env) -> int {
        rt::RingSyscalls *ring = env.ring();
        if (!ring)
            return 2;
        std::vector<uint32_t> seqs;
        for (int i = 0; i < 32; i++)
            seqs.push_back(ring->submit(sys::GETPID, {}));
        ring->flush();
        for (uint32_t seq : seqs) {
            if (ring->wait(seq).r0 != env.pid())
                return 1;
        }
        return 0;
    });
    Browsix bx;
    stage(bx, "ring-hist");
    auto r = bx.runArgv({"/usr/bin/ring-hist"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);

    const kernel::KernelStats &st = bx.kernel().stats();
    EXPECT_EQ(st.ringCqOverflows, 0u)
        << "a conforming producer must never overflow its CQ";
    EXPECT_GE(st.ringSyscallCount, 32u);
    EXPECT_GE(st.ringBatchesDrained, 1u);
    EXPECT_LE(st.ringBatchesDrained, st.ringDoorbells)
        << "every drain pass is the one a doorbell message asked for";
    EXPECT_LT(st.ringNotifies, st.ringSyscallCount)
        << "batching exists to keep notifies below per-call count";

    const kernel::LatencyHistogram *h = st.latency("getpid");
    ASSERT_NE(h, nullptr) << "ring getpids must land in the histogram";
    EXPECT_GE(h->count, 32u);
    uint64_t bucket_sum = 0;
    for (uint64_t b : h->buckets)
        bucket_sum += b;
    EXPECT_EQ(bucket_sum, h->count);
    EXPECT_LE(h->percentileUs(50), h->percentileUs(99));
    EXPECT_LE(h->percentileUs(99), h->maxUs);
    EXPECT_EQ(st.latency("no-such-syscall"), nullptr);
}

TEST(RingSyscalls, TerminateUnwindsParkedRingWaiter)
{
    // A waiter parked on the ring wait word holds an InterruptToken
    // waker; SIGKILL must wake it, unwind the app thread via
    // WorkerTerminated, and let the worker join — no hang, no
    // use-after-free (the ASan/TSan CI jobs watch this path).
    addProgram("ring-park", [](rt::EmEnv &env) -> int {
        env.write(1, "parked\n");
        // Never-completing wait: nothing was submitted under this seq.
        env.ring()->wait(0xdead);
        return 0; // unreachable
    });
    Browsix bx;
    stage(bx, "ring-park");
    std::string out;
    bool exited = false;
    int status = 0;
    int pid = 0;
    bx.kernel().spawnRoot(
        {"/usr/bin/ring-park"}, bx.kernel().defaultEnv, "/",
        [&](int st) {
            status = st;
            exited = true;
        },
        [&](const bfs::Buffer &d) { out.append(d.begin(), d.end()); },
        nullptr, [&](int p) { pid = p; });
    ASSERT_TRUE(bx.runUntil(
        [&]() { return out.find("parked") != std::string::npos; }, 10000));
    EXPECT_EQ(bx.kernel().kill(pid, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil([&]() { return exited; }, 10000))
        << "SIGKILL must unwind a parked ring waiter";
    EXPECT_EQ(sys::wtermsig(status), sys::SIGKILL);
}

TEST(RingSyscalls, PointerArgsAndOutDataThroughTheRing)
{
    // stat/getcwd marshal strings in and packed/str results out through
    // heap offsets carried in ring entries.
    addProgram("ring-pointers", [](rt::EmEnv &env) -> int {
        if (env.mkdir("/tmp/ringdir") != 0)
            return 1;
        sys::StatX st;
        if (env.stat("/tmp/ringdir", st) != 0 || !st.isDir())
            return 2;
        if (env.chdir("/tmp/ringdir") != 0)
            return 3;
        if (env.getcwd() != "/tmp/ringdir")
            return 4;
        if (env.rmdir("/tmp/../tmp/ringdir") != 0)
            return 5;
        return 0;
    });
    Browsix bx;
    stage(bx, "ring-pointers");
    auto r = bx.runArgv({"/usr/bin/ring-pointers"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_GT(bx.kernel().stats().ringSyscallCount, 0u);
}

TEST(RingSyscalls, ZeroCopyPreadFillsGuestHeapInPlace)
{
    // The tentpole read path: pread through the ring resolves the guest
    // destination up front and the backend fills it in place — byte-exact
    // content in the guest heap, no intermediate bfs::Buffer bounce.
    addProgram("ring-zerocopy", [](rt::EmEnv &env) -> int {
        const std::string payload = "zero-copy straight into the heap";
        int fd = env.open("/tmp/zc.txt",
                          bfs::flags::CREAT | bfs::flags::RDWR);
        if (fd < 0)
            return 1;
        if (env.write(fd, payload) !=
            static_cast<int64_t>(payload.size()))
            return 2;
        bfs::Buffer buf;
        if (env.pread(fd, buf, 64, 0) !=
            static_cast<int64_t>(payload.size()))
            return 3;
        if (std::string(buf.begin(), buf.end()) != payload)
            return 4;
        // Offset read: the window starts mid-file.
        if (env.pread(fd, buf, 64, 10) !=
            static_cast<int64_t>(payload.size()) - 10)
            return 5;
        if (std::string(buf.begin(), buf.end()) != payload.substr(10))
            return 6;
        env.close(fd);
        return 0;
    });
    Browsix bx;
    stage(bx, "ring-zerocopy");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/ring-zerocopy"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_GE(after.zeroCopyCompletions - before.zeroCopyCompletions, 2u)
        << "both preads must complete through the in-place path";
    EXPECT_EQ(after.copiedCompletions, before.copiedCompletions)
        << "no syscall in this program may bounce an intermediate copy";
}

TEST(RingSyscalls, HostileSqeHeapOffsetsCompleteWithEfault)
{
    // A corrupt (or hostile) SQE whose pointer arguments fall outside
    // the personality heap must be rejected at drain time with -EFAULT,
    // not reach the kernel's heap-write (or string-scan) paths.
    addProgram("ring-efault", [](rt::EmEnv &env) -> int {
        rt::RingSyscalls *ring = env.ring();
        rt::SyncSyscalls *sync = env.syncCalls();
        if (!ring || !sync)
            return 1;
        int32_t heap_len = static_cast<int32_t>(sync->heapSize());

        // pread destination starting at end-of-heap.
        int fd = env.open("/tmp/ef.txt",
                          bfs::flags::CREAT | bfs::flags::RDWR);
        if (fd < 0)
            return 2;
        uint32_t s1 = ring->submit(sys::PREAD, {fd, heap_len, 16, 0, 0, 0});
        // getcwd window that overruns the heap end.
        uint32_t s2 =
            ring->submit(sys::GETCWD, {heap_len - 8, 4096, 0, 0, 0, 0});
        // stat with a negative path pointer.
        sync->resetScratch();
        uint32_t sp = sync->alloc(sys::STAT_BYTES);
        uint32_t s3 = ring->submit(
            sys::STAT, {-4, static_cast<int32_t>(sp), 0, 0, 0, 0});
        ring->flush();
        if (ring->wait(s1).r0 != -EFAULT)
            return 3;
        if (ring->wait(s2).r0 != -EFAULT)
            return 4;
        if (ring->wait(s3).r0 != -EFAULT)
            return 5;
        // readlink with bufsiz <= 0 must be the POSIX -EINVAL through
        // the ring too, not an -EFAULT from the drain-time validator.
        sync->resetScratch();
        int32_t lp =
            static_cast<int32_t>(sync->pushString("/tmp/ef.txt"));
        uint32_t s4 = ring->submit(sys::READLINK, {lp, 16, -1, 0, 0, 0});
        ring->flush();
        if (ring->wait(s4).r0 != -EINVAL)
            return 6;
        // The ring stays usable after rejected entries.
        if (ring->call(sys::GETPID, {}) != env.pid())
            return 7;
        env.close(fd);
        return 0;
    });
    Browsix bx;
    stage(bx, "ring-efault");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/ring-efault"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_GE(after.ringEfaults - before.ringEfaults, 3u)
        << "each hostile SQE must be counted as a drain-time EFAULT";
}

TEST(RingSyscalls, WritevZeroCopyGathersGuestHeapByteExact)
{
    // The tentpole write path: one writev SQE names three non-adjacent
    // guest-heap fragments; the kernel consumes them in place (no
    // argData Buffer) and the backend receives the exact bytes. The
    // read-back goes through the zero-copy pread leg, so the whole
    // program moves data without a single bounced completion.
    addProgram("ring-writev", [](rt::EmEnv &env) -> int {
        rt::RingSyscalls *ring = env.ring();
        rt::SyncSyscalls *sync = env.syncCalls();
        if (!ring || !sync)
            return 1;
        int fd = env.open("/tmp/wv.txt",
                          bfs::flags::CREAT | bfs::flags::RDWR);
        if (fd < 0)
            return 2;
        sync->resetScratch();
        const std::string a = "gather-", b = "scatter ", c = "write!";
        uint32_t pa = sync->pushString(a);
        sync->alloc(24); // gaps force three distinct spans
        uint32_t pb = sync->pushString(b);
        sync->alloc(40);
        uint32_t pc = sync->pushString(c);
        std::vector<sys::IoVec> iovs = {
            {static_cast<int32_t>(pa), static_cast<int32_t>(a.size())},
            {static_cast<int32_t>(pb), static_cast<int32_t>(b.size())},
            {static_cast<int32_t>(pc), static_cast<int32_t>(c.size())}};
        uint32_t seq = ring->submitv(sys::WRITEV, fd, iovs);
        ring->flush();
        const std::string want = a + b + c;
        if (ring->wait(seq).r0 != static_cast<int32_t>(want.size()))
            return 3;
        bfs::Buffer buf;
        if (env.pread(fd, buf, 64, 0) !=
            static_cast<int64_t>(want.size()))
            return 4;
        if (std::string(buf.begin(), buf.end()) != want)
            return 5;
        // pwritev overwrites the middle through the same gather path.
        std::vector<sys::IoVec> over = {
            {static_cast<int32_t>(pc), static_cast<int32_t>(c.size())}};
        seq = ring->submitv(sys::PWRITEV, fd, over, 7);
        ring->flush();
        if (ring->wait(seq).r0 != static_cast<int32_t>(c.size()))
            return 6;
        if (env.pread(fd, buf, 64, 0) <= 0)
            return 7;
        if (std::string(buf.begin(), buf.end()) !=
            "gather-write!r write!")
            return 8;
        env.close(fd);
        return 0;
    });
    Browsix bx;
    stage(bx, "ring-writev");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/ring-writev"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_GE(after.zeroCopyCompletions - before.zeroCopyCompletions, 4u)
        << "writev, pwritev and both preads must complete in place";
    EXPECT_EQ(after.copiedCompletions, before.copiedCompletions)
        << "no syscall in this program may bounce an intermediate copy";
}

TEST(RingSyscalls, HostileIovsCompleteWithEfault)
{
    // Vectored SQEs are validated at drain time: a hostile iovec array
    // pointer, or an entry whose span leaves the heap, completes with
    // -EFAULT before any handler touches it; degenerate counts keep the
    // handler's POSIX EINVAL; the ring stays usable afterwards.
    addProgram("ring-iov-efault", [](rt::EmEnv &env) -> int {
        rt::RingSyscalls *ring = env.ring();
        rt::SyncSyscalls *sync = env.syncCalls();
        if (!ring || !sync)
            return 1;
        int fd = env.open("/tmp/iov.txt",
                          bfs::flags::CREAT | bfs::flags::RDWR);
        if (fd < 0)
            return 2;
        int32_t heap_len = static_cast<int32_t>(sync->heapSize());

        // The iovec array itself outside the heap.
        uint32_t s1 =
            ring->submit(sys::WRITEV, {fd, heap_len, 2, 0, 0, 0});
        // A well-placed array whose second entry's span leaves the heap.
        sync->resetScratch();
        uint32_t good = sync->alloc(8);
        std::memcpy(sync->heapData() + good, "datadata", 8);
        sys::IoVec bad[2] = {{static_cast<int32_t>(good), 8},
                             {heap_len - 2, 16}};
        uint32_t arr = sync->alloc(sizeof(bad));
        std::memcpy(sync->heapData() + arr, bad, sizeof(bad));
        uint32_t s2 = ring->submit(
            sys::WRITEV, {fd, static_cast<int32_t>(arr), 2, 0, 0, 0});
        // A negative entry pointer.
        sys::IoVec neg[1] = {{-16, 8}};
        uint32_t narr = sync->alloc(sizeof(neg));
        std::memcpy(sync->heapData() + narr, neg, sizeof(neg));
        uint32_t s3 = ring->submit(
            sys::READV, {fd, static_cast<int32_t>(narr), 1, 0, 0, 0});
        // Degenerate counts pass validation; the handler EINVALs.
        uint32_t s4 = ring->submit(
            sys::WRITEV, {fd, static_cast<int32_t>(arr), 0, 0, 0, 0});
        uint32_t s5 = ring->submit(sys::WRITEV,
                                   {fd, static_cast<int32_t>(arr),
                                    sys::kIovMax + 1, 0, 0, 0});
        ring->flush();
        if (ring->wait(s1).r0 != -EFAULT)
            return 3;
        if (ring->wait(s2).r0 != -EFAULT)
            return 4;
        if (ring->wait(s3).r0 != -EFAULT)
            return 5;
        if (ring->wait(s4).r0 != -EINVAL)
            return 6;
        if (ring->wait(s5).r0 != -EINVAL)
            return 7;
        // Negative file offset: EINVAL before the uint64 cast can wrap
        // backend offset arithmetic into a wild write.
        sys::IoVec ok1[1] = {{static_cast<int32_t>(good), 8}};
        uint32_t oarr = sync->alloc(sizeof(ok1));
        std::memcpy(sync->heapData() + oarr, ok1, sizeof(ok1));
        uint32_t s7 = ring->submit(
            sys::PWRITEV,
            {fd, static_cast<int32_t>(oarr), 1, -5, 0, 0});
        ring->flush();
        if (ring->wait(s7).r0 != -EINVAL)
            return 11;

        // All-zero-length iovs: a valid no-op, not a fault.
        std::vector<sys::IoVec> zs = {{static_cast<int32_t>(good), 0},
                                      {static_cast<int32_t>(good), 0}};
        uint32_t s6 = ring->submitv(sys::WRITEV, fd, zs);
        ring->flush();
        if (ring->wait(s6).r0 != 0)
            return 8;
        // The ring (and the file) stay healthy after rejected entries.
        if (ring->call(sys::GETPID, {}) != env.pid())
            return 9;
        if (env.write(fd, std::string("ok")) != 2)
            return 10;
        env.close(fd);
        return 0;
    });
    Browsix bx;
    stage(bx, "ring-iov-efault");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/ring-iov-efault"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_GE(after.ringEfaults - before.ringEfaults, 3u)
        << "each hostile vectored SQE must be an -EFAULT at drain time";
}

TEST(RingSyscalls, PipelinedBurstsNeverStrandAnSqe)
{
    // Doorbell liveness under real scheduling. Bursts go in pairs: a
    // burst of 8, then a one-SQE burst published before the first is
    // reaped, just as the kernel's pass over the first runs out of SQEs
    // (the producer watches sqHead catch up with sqTail, then waits a
    // delay that sweeps a few hundred ns across the pairs). Its flush
    // races the end of that pass; one SQE is what fits between the
    // pass's last tail read and its end. The kernel clears the doorbell
    // before it reads the tail (syscall_ring.h), so the SQE is either
    // drained by the running pass or wins the CAS and rings again. A
    // clear made any later strands it: nothing rings for it, and waiting
    // on it times the run out (real time, no TestClock: runArgv's
    // wall-clock deadline bounds a strand).
    constexpr int kBatch = 8;
    constexpr int kPairs = 256;
    constexpr int kBursts = 2 * kPairs;
    addProgram("ring-pipeline", [](rt::EmEnv &env) -> int {
        rt::RingSyscalls *ring = env.ring();
        if (!ring)
            return 1;
        jsvm::SharedArrayBuffer &heap = env.syncCalls()->heap();
        const sys::RingLayout &layout = ring->layout();
        auto burst = [&](int n) {
            std::vector<uint32_t> seqs;
            for (int i = 0; i < n; i++)
                seqs.push_back(ring->submit(sys::GETPID, {}));
            ring->flush();
            return seqs;
        };
        for (int pair = 0; pair < kPairs; pair++) {
            std::vector<uint32_t> first = burst(kBatch);
            // Bounded: a first burst that is never drained must still
            // reach wait() below, where termination can unwind it.
            for (int spins = 0;
                 spins < 1000000 &&
                 jsvm::Atomics::load(heap, layout.sqHeadOff()) !=
                     jsvm::Atomics::load(heap, layout.sqTailOff());
                 spins++) {
            }
            for (volatile int n = pair * 37 % 256; n > 0; n = n - 1) {
            }
            std::vector<uint32_t> second = burst(1);
            for (const auto *seqs : {&first, &second}) {
                for (uint32_t seq : *seqs) {
                    if (ring->wait(seq).r0 != env.pid())
                        return 2;
                }
            }
        }
        // At most one message per burst: a flush either rings or finds
        // a doorbell still in flight.
        if (ring->doorbellsRung() > static_cast<uint64_t>(kBursts))
            return 3;
        return 0;
    });
    Browsix bx;
    stage(bx, "ring-pipeline");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/ring-pipeline"});
    EXPECT_TRUE(r.ok) << "timed out: an SQE was stranded";
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_EQ(after.ringSyscallCount - before.ringSyscallCount,
              static_cast<uint64_t>((kBatch + 1) * kPairs));
    // One notify per productive pass, far below one per call (split
    // drains can add a few).
    uint64_t notifies = after.ringNotifies - before.ringNotifies;
    EXPECT_LE(notifies, 2u * kBursts + 4)
        << "notifies must track bursts, not calls";
}

TEST(RingSyscalls, BatchedStatSweepCoalescesNotifies)
{
    // EmEnv::statBatch: a 32-path metadata sweep submits every SQE under
    // one doorbell, so the kernel answers the whole sweep with one
    // (coalesced) notify instead of one per stat — the batched coreutils
    // hot-path contract.
    addProgram("ring-statbatch", [](rt::EmEnv &env) -> int {
        std::vector<std::string> paths;
        for (int i = 0; i < 32; i++)
            paths.push_back("/batch/f" + std::to_string(i));
        paths.push_back("/batch/missing");
        auto res = env.statBatch(paths);
        if (res.size() != paths.size())
            return 1;
        for (int i = 0; i < 32; i++) {
            if (res[i].err != 0 || res[i].st.size != 64 ||
                !res[i].st.isFile())
                return 2;
        }
        if (res[32].err != -ENOENT)
            return 3;
        return 0;
    });
    Browsix bx;
    bx.rootFs().mkdirAll("/batch");
    for (int i = 0; i < 32; i++)
        bx.rootFs().writeFile("/batch/f" + std::to_string(i),
                              std::string(64, 'x'));
    stage(bx, "ring-statbatch");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/ring-statbatch"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    uint64_t stats_made = after.ringSyscallCount - before.ringSyscallCount;
    uint64_t notifies = after.ringNotifies - before.ringNotifies;
    EXPECT_GE(stats_made, 33u);
    EXPECT_LE(notifies, 8u)
        << "a batched sweep must coalesce wakes, not pay one per stat";
}

TEST(RingSyscalls, DeferredCqeCompletesParkedPipeRead)
{
    // The deferral tentpole: a READ SQE drained against an empty pipe
    // parks kernel-side (its ctx joins the pipe's read-waiter queue) and
    // the CQE is pushed when a writer in another process supplies bytes.
    // That push happens outside any drain pass of the reader's ring, so
    // it counts as a deferred completion and pays its own notify — and
    // the writer's guest window lands in the parked reader's guest
    // window directly (span-to-span), so both sides complete zero-copy.
    jsvm::TestClock clock;
    addProgram("deferred-writer", [](rt::EmEnv &env) -> int {
        // fd 0 is the pipe's write end, wired up by the parent's spawn.
        return env.write(0, std::string("deferred!")) == 9 ? 0 : 1;
    });
    addProgram("deferred-reader", [](rt::EmEnv &env) -> int {
        rt::RingSyscalls *ring = env.ring();
        rt::SyncSyscalls *sync = env.syncCalls();
        if (!ring || !sync)
            return 1;
        int fds[2];
        if (env.pipe2(fds) != 0)
            return 2;
        sync->resetScratch();
        uint32_t buf = sync->alloc(32);
        uint32_t seq = ring->submit(
            sys::READ, {fds[0], static_cast<int32_t>(buf), 32, 0, 0, 0});
        ring->flush(); // drained now; the empty pipe parks the SQE
        int child = env.spawn({"/usr/bin/deferred-writer"}, {fds[1], 1, 2});
        if (child < 0)
            return 3;
        rt::RingSyscalls::Completion c = ring->wait(seq);
        if (c.r0 != 9)
            return 4;
        if (std::string(reinterpret_cast<char *>(sync->heapData() + buf),
                        9) != "deferred!")
            return 5;
        int status = 0;
        if (env.waitpid(child, &status, 0) != child)
            return 6;
        return 0;
    });
    Browsix bx;
    stage(bx, "deferred-reader");
    stage(bx, "deferred-writer");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/deferred-reader"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_GE(after.ringDeferredCompletions - before.ringDeferredCompletions,
              1u)
        << "the parked READ's CQE must land outside a drain pass";
    EXPECT_GE(after.zeroCopyCompletions - before.zeroCopyCompletions, 2u)
        << "writer window -> parked reader window must skip the bounce "
           "buffer on both completions";
    EXPECT_EQ(after.ringCqOverflows, before.ringCqOverflows)
        << "a parked SQE keeps its CQ reservation";
}

TEST(RingSyscalls, SigkillUnwindsParkedDeferredSqe)
{
    // A genuinely parked SQE (kernel-side, on the pipe's waiter queue —
    // not just a producer waiting on a bogus seq) must not strand its
    // in-flight slot or its worker when the process is SIGKILLed: exit
    // teardown drops the pipe ends, the collapsing waiter list completes
    // the parked ctx, and finishRing no-ops on the dead task.
    addProgram("deferred-park", [](rt::EmEnv &env) -> int {
        rt::RingSyscalls *ring = env.ring();
        rt::SyncSyscalls *sync = env.syncCalls();
        if (!ring || !sync)
            return 1;
        int fds[2];
        if (env.pipe2(fds) != 0)
            return 2;
        env.write(1, "parked\n");
        sync->resetScratch();
        uint32_t buf = sync->alloc(16);
        uint32_t seq = ring->submit(
            sys::READ, {fds[0], static_cast<int32_t>(buf), 16, 0, 0, 0});
        ring->flush();
        ring->wait(seq); // no writer ever comes; SIGKILL unwinds
        return 0;        // unreachable
    });
    Browsix bx;
    stage(bx, "deferred-park");
    std::string out;
    bool exited = false;
    int status = 0;
    int pid = 0;
    bx.kernel().spawnRoot(
        {"/usr/bin/deferred-park"}, bx.kernel().defaultEnv, "/",
        [&](int st) {
            status = st;
            exited = true;
        },
        [&](const bfs::Buffer &d) { out.append(d.begin(), d.end()); },
        nullptr, [&](int p) { pid = p; });
    ASSERT_TRUE(bx.runUntil(
        [&]() { return out.find("parked") != std::string::npos; }, 10000));
    EXPECT_EQ(bx.kernel().kill(pid, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil([&]() { return exited; }, 10000))
        << "SIGKILL must unwind a kernel-side parked SQE";
    EXPECT_EQ(sys::wtermsig(status), sys::SIGKILL);
    EXPECT_EQ(bx.kernel().stats().ringCqOverflows, 0u);
}

TEST(RingSyscalls, PollReadinessRidesTheDeferralProtocol)
{
    // poll: one SQE names the whole descriptor set. Ready descriptors
    // complete in the drain pass; an all-blocked set parks against every
    // polled object's readiness watcher and the CQE is deferred until
    // one fires. The park costs no extra wakes.
    jsvm::TestClock clock;
    addProgram("poll-writer", [](rt::EmEnv &env) -> int {
        return env.write(0, std::string("x")) == 1 ? 0 : 1;
    });
    addProgram("poll-prog", [](rt::EmEnv &env) -> int {
        int fds[2];
        if (env.pipe2(fds) != 0)
            return 1;
        // Immediate leg: buffered bytes mean POLLIN, free space POLLOUT.
        if (env.write(fds[1], std::string("hi")) != 2)
            return 2;
        std::vector<rt::EmEnv::PollSpec> set(2);
        set[0].fd = fds[0];
        set[0].events = sys::POLLIN_;
        set[1].fd = fds[1];
        set[1].events = sys::POLLOUT_;
        if (env.poll(set) != 2)
            return 3;
        if (!(set[0].revents & sys::POLLIN_))
            return 4;
        if (!(set[1].revents & sys::POLLOUT_))
            return 5;
        bfs::Buffer drain;
        if (env.read(fds[0], drain, 16) != 2)
            return 6;
        // Parked leg: the pipe is empty again, so nothing is ready; the
        // SQE parks on the pipe's readiness watcher until the spawned
        // writer fires it.
        int child = env.spawn({"/usr/bin/poll-writer"}, {fds[1], 1, 2});
        if (child < 0)
            return 7;
        std::vector<rt::EmEnv::PollSpec> parked(1);
        parked[0].fd = fds[0];
        parked[0].events = sys::POLLIN_;
        if (env.poll(parked) != 1)
            return 8;
        if (!(parked[0].revents & sys::POLLIN_))
            return 9;
        if (env.read(fds[0], drain, 16) != 1)
            return 10;
        int status = 0;
        if (env.waitpid(child, &status, 0) != child)
            return 11;
        // A closed descriptor number reports POLLNVAL (still "ready").
        std::vector<rt::EmEnv::PollSpec> bad(1);
        bad[0].fd = 99;
        bad[0].events = sys::POLLIN_;
        if (env.poll(bad) != 1)
            return 12;
        if (bad[0].revents != sys::POLLNVAL_)
            return 13;
        // The ring stays healthy after the parked completion.
        return env.getpid() > 0 ? 0 : 14;
    });
    Browsix bx;
    stage(bx, "poll-prog");
    stage(bx, "poll-writer");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/poll-prog"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_GE(after.ringDeferredCompletions - before.ringDeferredCompletions,
              1u)
        << "the parked poll's CQE must land outside a drain pass";
    EXPECT_EQ(after.ringCqOverflows, 0u);
    // Each drained batch pays at most one notify; a deferred completion
    // pays exactly one of its own. More than that would mean the park
    // broke the one-notify-per-pass rule.
    EXPECT_LE(after.ringNotifies - before.ringNotifies,
              (after.ringBatchesDrained - before.ringBatchesDrained) +
                  (after.ringDeferredCompletions -
                   before.ringDeferredCompletions))
        << "a parked poll must not cost extra wakes";
    const kernel::LatencyHistogram *h = after.latency("poll");
    ASSERT_NE(h, nullptr);
    EXPECT_GE(h->count, 3u);
}

TEST(RingSyscalls, AcceptDefersUntilConnectArrives)
{
    // accept-then-connect ordering: the server's ACCEPT SQE drains with
    // no pending connection and parks on the listener; the host-side
    // connect (main loop, outside any drain pass of the server's ring)
    // enqueues the peer and the deferred CQE carries the accepted fd and
    // remote port. Data then flows both ways over the accepted socket.
    jsvm::TestClock clock;
    addProgram("ring-server", [](rt::EmEnv &env) -> int {
        int s = env.socket();
        if (s < 0)
            return 1;
        if (env.bind(s, 8080) != 0)
            return 2;
        if (env.listen(s, 4) != 0)
            return 3;
        // Submit the ACCEPT SQE and let it park BEFORE announcing the
        // port: the host's connect must find it already parked, or the
        // race (connect landing before the accept drains) lets accept
        // complete in-drain and the deferred-CQE assertion below flakes.
        rt::RingSyscalls *ring = env.ring();
        if (!ring)
            return 9;
        uint32_t seq = ring->submit(sys::ACCEPT, {s, 0, 0, 0, 0, 0});
        ring->flush(); // drained now; no pending connection -> parks
        env.write(1, "listening\n");
        rt::RingSyscalls::Completion ac = ring->wait(seq);
        int c = static_cast<int>(ac.r0);
        int rport = static_cast<int>(ac.r1);
        if (c < 0)
            return 4;
        if (rport <= 0)
            return 5;
        bfs::Buffer buf;
        if (env.read(c, buf, 16) != 4)
            return 6;
        if (std::string(buf.begin(), buf.end()) != "ping")
            return 7;
        if (env.write(c, std::string("pong")) != 4)
            return 8;
        env.close(c);
        env.close(s);
        return 0;
    });
    Browsix bx;
    stage(bx, "ring-server");
    auto before = bx.kernel().stats();
    std::string out, got;
    bool exited = false;
    int status = 0;
    bx.kernel().spawnRoot(
        {"/usr/bin/ring-server"}, bx.kernel().defaultEnv, "/",
        [&](int st) {
            status = st;
            exited = true;
        },
        [&](const bfs::Buffer &d) { out.append(d.begin(), d.end()); },
        nullptr, [&](int) {});
    ASSERT_TRUE(bx.runUntil(
        [&]() { return out.find("listening") != std::string::npos; },
        10000));
    std::shared_ptr<kernel::Kernel::HostConn> conn;
    bx.kernel().connect(
        8080, [&](const bfs::Buffer &d) { got.append(d.begin(), d.end()); },
        nullptr, [&](int err, std::shared_ptr<kernel::Kernel::HostConn> c) {
            ASSERT_EQ(err, 0);
            conn = std::move(c);
        });
    ASSERT_TRUE(bx.runUntil([&]() { return conn != nullptr; }, 10000));
    conn->write(bfs::Buffer{'p', 'i', 'n', 'g'});
    ASSERT_TRUE(bx.runUntil([&]() { return got == "pong"; }, 10000));
    ASSERT_TRUE(bx.runUntil([&]() { return exited; }, 10000));
    EXPECT_EQ(sys::wexitstatus(status), 0);
    conn->close();
    auto after = bx.kernel().stats();
    EXPECT_GE(after.ringDeferredCompletions - before.ringDeferredCompletions,
              1u)
        << "the parked ACCEPT's CQE must land outside a drain pass";
    EXPECT_EQ(after.ringCqOverflows, 0u);
}

TEST(RingSyscalls, Wait4ParksOnProcessTableAndSigkillCompletesIt)
{
    // A WAIT4 SQE for a live child drains, finds no zombie and parks on
    // the process table's wait-waiter list. When the host SIGKILLs the
    // child, completeWaits pushes the deferred CQE and writes the wait
    // status into the guest heap window in place — no sync fallback.
    jsvm::TestClock clock;
    addProgram("wait-sleeper", [](rt::EmEnv &env) -> int {
        bfs::Buffer b;
        env.read(0, b, 1); // fd 0 is a pipe whose writer never comes
        return 0;          // unreachable: SIGKILL ends the process
    });
    addProgram("wait-parent", [](rt::EmEnv &env) -> int {
        rt::RingSyscalls *ring = env.ring();
        rt::SyncSyscalls *sync = env.syncCalls();
        if (!ring || !sync)
            return 1;
        int fds[2];
        if (env.pipe2(fds) != 0)
            return 2;
        int child = env.spawn({"/usr/bin/wait-sleeper"}, {fds[0], 1, 2});
        if (child < 0)
            return 3;
        sync->resetScratch();
        uint32_t sp = sync->alloc(4);
        uint32_t seq = ring->submit(
            sys::WAIT4, {child, static_cast<int32_t>(sp), 0, 0, 0, 0});
        ring->flush(); // drained; the child is alive -> parks
        env.write(1, "child=" + std::to_string(child) + "\n");
        rt::RingSyscalls::Completion c = ring->wait(seq);
        if (c.r0 != child)
            return 4;
        int status = 0;
        std::memcpy(&status, sync->heapData() + sp, 4);
        if (sys::wtermsig(status) != sys::SIGKILL)
            return 5;
        return 0;
    });
    Browsix bx;
    stage(bx, "wait-parent");
    stage(bx, "wait-sleeper");
    auto before = bx.kernel().stats();
    std::string out;
    bool exited = false;
    int status = 0;
    bx.kernel().spawnRoot(
        {"/usr/bin/wait-parent"}, bx.kernel().defaultEnv, "/",
        [&](int st) {
            status = st;
            exited = true;
        },
        [&](const bfs::Buffer &d) { out.append(d.begin(), d.end()); },
        nullptr, [&](int) {});
    ASSERT_TRUE(bx.runUntil(
        [&]() { return out.find('\n') != std::string::npos; }, 10000));
    size_t at = out.find("child=");
    ASSERT_NE(at, std::string::npos);
    int child_pid = std::atoi(out.c_str() + at + 6);
    ASSERT_GT(child_pid, 0);
    ASSERT_TRUE(bx.runUntil(
        [&]() {
            return bx.kernel().stats().wait4Parked > before.wait4Parked;
        },
        10000))
        << "the WAIT4 SQE must park on the wait-waiter list";
    EXPECT_EQ(bx.kernel().kill(child_pid, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil([&]() { return exited; }, 10000));
    EXPECT_EQ(sys::wexitstatus(status), 0)
        << "parent must see the child's pid and SIGKILL termsig";
    auto after = bx.kernel().stats();
    EXPECT_GE(after.wait4Parked - before.wait4Parked, 1u);
    EXPECT_GE(after.ringDeferredCompletions - before.ringDeferredCompletions,
              1u)
        << "the parked WAIT4's CQE must land outside a drain pass";
    EXPECT_EQ(after.ringCqOverflows, 0u);
}

TEST(RingSyscalls, ConnectParkedOnFullBacklogRefusedWhenListenerDies)
{
    // connect against a full backlog parks on the listener's rendezvous.
    // When the listener's process is SIGKILLed, teardown closes the
    // listening socket, which refuses every parked connect: the deferred
    // CQE carries -ECONNREFUSED and the client exits cleanly.
    jsvm::TestClock clock;
    addProgram("refuse-server", [](rt::EmEnv &env) -> int {
        int s = env.socket();
        if (s < 0)
            return 1;
        if (env.bind(s, 8081) != 0)
            return 2;
        if (env.listen(s, 1) != 0)
            return 3;
        env.write(1, "srvup\n");
        int fds[2];
        if (env.pipe2(fds) != 0)
            return 4;
        bfs::Buffer b;
        env.read(fds[0], b, 1); // parks forever; SIGKILL tears down
        return 0;               // unreachable
    });
    addProgram("refuse-client", [](rt::EmEnv &env) -> int {
        int s = env.socket();
        if (s < 0)
            return 1;
        // Backlog already holds the host's connection, so this CONNECT
        // SQE parks until the listener dies.
        int rc = env.connect(s, 8081);
        return rc == -ECONNREFUSED ? 0 : 2;
    });
    Browsix bx;
    stage(bx, "refuse-server");
    stage(bx, "refuse-client");
    auto before = bx.kernel().stats();
    std::string out;
    bool srv_exited = false, cli_exited = false;
    int srv_pid = 0, cli_status = -1;
    bx.kernel().spawnRoot(
        {"/usr/bin/refuse-server"}, bx.kernel().defaultEnv, "/",
        [&](int) { srv_exited = true; },
        [&](const bfs::Buffer &d) { out.append(d.begin(), d.end()); },
        nullptr, [&](int p) { srv_pid = p; });
    ASSERT_TRUE(bx.runUntil(
        [&]() { return out.find("srvup") != std::string::npos; }, 10000));
    // Fill the backlog (1) with a host connection nobody accepts.
    std::shared_ptr<kernel::Kernel::HostConn> conn;
    bx.kernel().connect(
        8081, [](const bfs::Buffer &) {}, nullptr,
        [&](int err, std::shared_ptr<kernel::Kernel::HostConn> c) {
            ASSERT_EQ(err, 0);
            conn = std::move(c);
        });
    ASSERT_TRUE(bx.runUntil([&]() { return conn != nullptr; }, 10000));
    bx.kernel().spawnRoot(
        {"/usr/bin/refuse-client"}, bx.kernel().defaultEnv, "/",
        [&](int st) {
            cli_status = st;
            cli_exited = true;
        },
        [](const bfs::Buffer &) {}, nullptr, [&](int) {});
    ASSERT_TRUE(bx.runUntil(
        [&]() {
            return bx.kernel().stats().connectsParked > before.connectsParked;
        },
        10000))
        << "the client's CONNECT must park on the full backlog";
    EXPECT_FALSE(cli_exited);
    EXPECT_EQ(bx.kernel().kill(srv_pid, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil([&]() { return srv_exited && cli_exited; },
                            10000));
    EXPECT_EQ(sys::wexitstatus(cli_status), 0)
        << "parked connect must complete with -ECONNREFUSED, not hang";
    auto after = bx.kernel().stats();
    EXPECT_GE(after.connectsParked - before.connectsParked, 1u);
    EXPECT_GE(after.ringDeferredCompletions - before.ringDeferredCompletions,
              1u)
        << "the refused CONNECT's CQE must land outside a drain pass";
    EXPECT_EQ(after.ringCqOverflows, 0u);
}

TEST(RingSyscalls, EpollInterestListSurvivesParkAndClosedFd)
{
    // epoll: the interest list lives kernel-side; epoll_wait re-checks it
    // level-triggered, parks (one SQE) when nothing is ready, and reports
    // a closed-but-still-registered descriptor as POLLERR|POLLHUP instead
    // of parking forever — the caller prunes it with EPOLL_CTL_DEL.
    jsvm::TestClock clock;
    addProgram("epoll-writer", [](rt::EmEnv &env) -> int {
        return env.write(0, std::string("x")) == 1 ? 0 : 1;
    });
    addProgram("epoll-prog", [](rt::EmEnv &env) -> int {
        int ep = env.epollCreate();
        if (ep < 0)
            return 1;
        int fds[2];
        if (env.pipe2(fds) != 0)
            return 2;
        if (env.epollCtl(ep, sys::EPOLL_CTL_ADD_, fds[0], sys::POLLIN_) != 0)
            return 3;
        // ctl edge cases: duplicate ADD, MOD of an unregistered fd, ADD
        // of a descriptor that does not exist, ctl on a non-epoll fd.
        if (env.epollCtl(ep, sys::EPOLL_CTL_ADD_, fds[0], sys::POLLIN_) !=
            -EEXIST)
            return 4;
        if (env.epollCtl(ep, sys::EPOLL_CTL_MOD_, 99, sys::POLLIN_) !=
            -ENOENT)
            return 5;
        if (env.epollCtl(ep, sys::EPOLL_CTL_ADD_, 99, sys::POLLIN_) !=
            -EBADF)
            return 6;
        if (env.epollCtl(fds[0], sys::EPOLL_CTL_ADD_, ep, 0) != -EINVAL)
            return 7;
        // Immediate leg: buffered bytes mean the wait completes in-drain.
        if (env.write(fds[1], std::string("hi")) != 2)
            return 8;
        std::vector<rt::EmEnv::PollSpec> evs(4);
        if (env.epollWait(ep, evs) != 1)
            return 9;
        if (evs[0].fd != fds[0] || !(evs[0].revents & sys::POLLIN_))
            return 10;
        bfs::Buffer drain;
        if (env.read(fds[0], drain, 16) != 2)
            return 11;
        // Parked leg: the pipe is empty again; the wait parks against the
        // registered set's readiness watchers until the writer fires.
        int child = env.spawn({"/usr/bin/epoll-writer"}, {fds[1], 1, 2});
        if (child < 0)
            return 12;
        if (env.epollWait(ep, evs) != 1)
            return 13;
        if (evs[0].fd != fds[0] || !(evs[0].revents & sys::POLLIN_))
            return 14;
        if (env.read(fds[0], drain, 16) != 1)
            return 15;
        int status = 0;
        if (env.waitpid(child, &status, 0) != child)
            return 16;
        // Closed-registered-fd leg: the interest list still names fds[0]
        // after close; the wait reports it ERR|HUP rather than parking.
        env.close(fds[0]);
        if (env.epollWait(ep, evs) != 1)
            return 17;
        if (evs[0].fd != fds[0])
            return 18;
        if (evs[0].revents != (sys::POLLERR_ | sys::POLLHUP_))
            return 19;
        if (env.epollCtl(ep, sys::EPOLL_CTL_DEL_, fds[0], 0) != 0)
            return 20;
        env.close(fds[1]);
        env.close(ep);
        return 0;
    });
    Browsix bx;
    stage(bx, "epoll-prog");
    stage(bx, "epoll-writer");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/epoll-prog"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_GE(after.epollWaitsParked - before.epollWaitsParked, 1u);
    EXPECT_GE(after.ringDeferredCompletions - before.ringDeferredCompletions,
              1u)
        << "the parked epoll_wait's CQE must land outside a drain pass";
    EXPECT_EQ(after.ringCqOverflows, 0u);
}

TEST(RingSyscalls, SendfileMovesKernelSideAndShortCountsAtEof)
{
    // sendfile moves file bytes into a pipe entirely kernel-side. The
    // count is an upper bound: a read past EOF short-counts to the bytes
    // actually present; an offset at/past EOF moves zero.
    addProgram("sendfile-prog", [](rt::EmEnv &env) -> int {
        const std::string payload = "sendfile!!"; // 10 bytes
        int fd = env.open("/tmp/sf.txt",
                          bfs::flags::CREAT | bfs::flags::RDWR);
        if (fd < 0)
            return 1;
        if (env.write(fd, payload) != 10)
            return 2;
        int fds[2];
        if (env.pipe2(fds) != 0)
            return 3;
        // EOF short count: ask for 64, the file holds 10.
        if (env.sendfile(fds[1], fd, 0, 64) != 10)
            return 4;
        bfs::Buffer buf;
        if (env.read(fds[0], buf, 64) != 10)
            return 5;
        if (std::string(buf.begin(), buf.end()) != payload)
            return 6;
        // Offset past EOF moves nothing (0, not an error).
        if (env.sendfile(fds[1], fd, 100, 16) != 0)
            return 7;
        // Mid-file offset short-counts to the tail.
        if (env.sendfile(fds[1], fd, 4, 64) != 6)
            return 8;
        if (env.read(fds[0], buf, 64) != 6)
            return 9;
        if (std::string(buf.begin(), buf.end()) != payload.substr(4))
            return 10;
        if (env.sendfile(fds[1], 99, 0, 8) != -EBADF)
            return 11;
        if (env.sendfile(fds[1], fd, -1, 8) != -EINVAL)
            return 12;
        if (env.sendfile(fds[1], fd, 0, -8) != -EINVAL)
            return 13;
        // The source must be seekable: a pipe end is ESPIPE.
        if (env.sendfile(fds[1], fds[0], 0, 8) != -ESPIPE)
            return 14;
        if (env.sendfile(fds[1], fd, 0, 0) != 0)
            return 15;
        env.close(fds[0]);
        env.close(fds[1]);
        env.close(fd);
        return 0;
    });
    Browsix bx;
    stage(bx, "sendfile-prog");
    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/sendfile-prog"});
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    auto after = bx.kernel().stats();
    EXPECT_EQ(after.sendfileBytes - before.sendfileBytes, 16u)
        << "10 bytes from offset 0 plus 6 from offset 4, nothing else";
    EXPECT_EQ(after.ringCqOverflows, 0u);
}
