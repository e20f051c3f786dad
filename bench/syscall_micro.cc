/**
 * @file
 * System-call microbenchmarks (§3.2 and §6).
 *
 * The paper's claims:
 *  - "Message passing is three orders of magnitude slower than
 *    traditional system calls" (§6) — motivating both conventions.
 *  - "Synchronous system calls are faster in practice" (§3.2): one
 *    message instead of two, integer args instead of copied buffers, a
 *    blocking primitive instead of stack unwinding.
 *
 * Measured here: a direct in-process call (the "traditional syscall"
 * stand-in), a bare postMessage round-trip, and per-call cost of the
 * async vs sync vs ring Browsix conventions measured from inside a C
 * program that issues a configurable number of getpid() calls. The ring
 * convention is swept over batch sizes 1/8/64: one doorbell message and
 * one Atomics wake per batch is what amortizes the per-call overhead
 * away (cphVB-style batched dispatch applied to the syscall transport).
 */
#include <cstdio>
#include <cstring>

#include "bench/harness.h"

using namespace browsix;
using namespace browsix::bench;

namespace {

/** getpid() in a loop; call count from argv[1]. */
int
sysbenchMain(rt::EmEnv &env)
{
    int n = env.argv().size() > 1 ? std::atoi(env.argv()[1].c_str()) : 0;
    for (int i = 0; i < n; i++) {
        if (env.getpid() <= 0)
            return 1;
    }
    return 0;
}

/** getpid() through the ring in batches; argv[1]=count, argv[2]=batch. */
int
sysbenchRingMain(rt::EmEnv &env)
{
    int n = env.argv().size() > 1 ? std::atoi(env.argv()[1].c_str()) : 0;
    int batch = std::max(
        1, env.argv().size() > 2 ? std::atoi(env.argv()[2].c_str()) : 1);
    rt::RingSyscalls *ring = env.ring();
    if (!ring)
        return 2;
    std::vector<uint32_t> seqs;
    for (int i = 0; i < n;) {
        int k = std::min(batch, n - i);
        seqs.clear();
        for (int j = 0; j < k; j++)
            seqs.push_back(ring->submit(sys::GETPID, {}));
        ring->flush();
        for (uint32_t seq : seqs) {
            if (ring->wait(seq).r0 <= 0)
                return 1;
        }
        i += k;
    }
    return 0;
}

/**
 * Write one byte to stdout over the sync convention, which rings no
 * doorbell. The embedder's stdout callback runs when the kernel handles
 * it, so it can bracket a span of the guest's ring traffic.
 */
void
syncMark(rt::SyncSyscalls &sync, char c)
{
    sync.resetScratch();
    uint32_t p = sync.alloc(1);
    sync.heapData()[p] = static_cast<uint8_t>(c);
    sync.call(sys::WRITE, {1, static_cast<int32_t>(p), 1, 0, 0, 0});
}

/** Gather writes through the ring; argv[1]=rounds, argv[2]=batch. Each
 * round submits `batch` writev SQEs (4 iovs x 64 B each) under one
 * doorbell and reaps them — the printf-heavy stdio pattern. The rounds
 * are bracketed by sync marks, so the open and close stay outside. */
int
sysbenchWritevMain(rt::EmEnv &env)
{
    int rounds =
        env.argv().size() > 1 ? std::atoi(env.argv()[1].c_str()) : 0;
    int batch = std::max(
        1, env.argv().size() > 2 ? std::atoi(env.argv()[2].c_str()) : 1);
    rt::RingSyscalls *ring = env.ring();
    rt::SyncSyscalls *sync = env.syncCalls();
    if (!ring || !sync)
        return 2;
    int fd = env.open("/tmp/wv.bin",
                      bfs::flags::CREAT | bfs::flags::RDWR);
    if (fd < 0)
        return 3;
    constexpr int kIovs = 4;
    constexpr int32_t kIovLen = 64;
    syncMark(*sync, '[');
    for (int r = 0; r < rounds; r++) {
        sync->resetScratch();
        std::vector<uint32_t> seqs;
        for (int b = 0; b < batch; b++) {
            std::vector<sys::IoVec> iovs;
            for (int i = 0; i < kIovs; i++) {
                uint32_t p = sync->alloc(kIovLen);
                std::memset(sync->heapData() + p, 'a' + i, kIovLen);
                iovs.push_back(
                    sys::IoVec{static_cast<int32_t>(p), kIovLen});
            }
            seqs.push_back(ring->submitv(sys::WRITEV, fd, iovs));
        }
        ring->flush(); // one doorbell (at most) for the whole batch
        for (uint32_t s : seqs) {
            if (ring->wait(s).r0 != kIovs * kIovLen)
                return 1;
        }
    }
    syncMark(*sync, ']');
    env.close(fd);
    return 0;
}

void
registerSysbench()
{
    apps::registerAllPrograms();
    auto &reg = apps::ProgramRegistry::instance();
    reg.add(apps::ProgramSpec{"sysbench-sync", apps::RuntimeKind::EmSync,
                              64, sysbenchMain, nullptr});
    reg.add(apps::ProgramSpec{"sysbench-async", apps::RuntimeKind::EmAsync,
                              64, sysbenchMain, nullptr});
    reg.add(apps::ProgramSpec{"sysbench-ring", apps::RuntimeKind::EmRing,
                              64, sysbenchRingMain, nullptr});
    reg.add(apps::ProgramSpec{"sysbench-writev", apps::RuntimeKind::EmRing,
                              64, sysbenchWritevMain, nullptr});
}

/** Per-call microseconds: run with N calls and 0 calls, difference/N. */
double
perCallUs(Browsix &bx, const std::string &exe, int n,
          const std::vector<std::string> &extra = {})
{
    double with = 1e9, without = 1e9;
    const int reps = smokeMode() ? 1 : 3;
    for (int rep = 0; rep < reps; rep++) {
        std::vector<std::string> argv = {exe, std::to_string(n)};
        argv.insert(argv.end(), extra.begin(), extra.end());
        with = std::min(with, timeMs([&]() { bx.runArgv(argv, 120000); }));
        argv[1] = "0";
        without =
            std::min(without, timeMs([&]() { bx.runArgv(argv, 120000); }));
    }
    return (with - without) * 1000.0 / n;
}

} // namespace

int
main()
{
    registerSysbench();
    const int kCalls = smokeMode() ? 50 : 300;

    BootConfig cfg;
    cfg.profile = jsvm::BrowserProfile::chrome2016();
    Browsix bx(cfg);
    auto &reg = apps::ProgramRegistry::instance();
    bx.rootFs().writeFile("/usr/bin/sysbench-sync",
                          reg.bundleFor("sysbench-sync"));
    bx.rootFs().writeFile("/usr/bin/sysbench-async",
                          reg.bundleFor("sysbench-async"));
    bx.rootFs().writeFile("/usr/bin/sysbench-ring",
                          reg.bundleFor("sysbench-ring"));
    bx.rootFs().writeFile("/usr/bin/sysbench-writev",
                          reg.bundleFor("sysbench-writev"));

    // Direct call baseline: what a real getpid costs in-process.
    bfs::Stat st;
    volatile int sink = 0;
    const int kDirect = smokeMode() ? 10000 : 1000000;
    double direct_ms = timeMs([&]() {
        for (int i = 0; i < kDirect; i++) {
            bx.fs().statSync("/usr/bin", st);
            sink += static_cast<int>(st.size);
        }
    });
    double direct_us = direct_ms * 1000.0 / kDirect;

    // Bare postMessage round-trip (charged with the Chrome profile).
    jsvm::Browser browser(jsvm::BrowserProfile::chrome2016());
    std::string url = browser.blobs().createObjectUrl(
        std::make_shared<const std::vector<uint8_t>>(1, 'x'));
    auto w = browser.createWorker(
        url, [](jsvm::WorkerScope &scope, auto) {
            scope.setOnMessage([&scope](jsvm::Value v) {
                scope.postMessage(v);
            });
        });
    int received = 0;
    w->setOnMessage([&](jsvm::Value) { received++; });
    const int kPings = 100;
    double pm_ms = timeMs([&]() {
        for (int i = 0; i < kPings; i++) {
            int target = received + 1;
            w->postMessage(jsvm::Value(i));
            browser.runUntil([&]() { return received >= target; }, 10000);
        }
    });
    w->terminate();
    double pm_us = pm_ms * 1000.0 / kPings;

    double async_us = perCallUs(bx, "/usr/bin/sysbench-async", kCalls);
    double sync_us = perCallUs(bx, "/usr/bin/sysbench-sync", kCalls);
    const int kBatches[] = {1, 8, 64};
    double ring_us[3];
    for (int i = 0; i < 3; i++) {
        ring_us[i] = perCallUs(bx, "/usr/bin/sysbench-ring", kCalls,
                               {std::to_string(kBatches[i])});
    }

    std::printf("syscall-path microbenchmarks (Chrome 2016 profile):\n\n");
    std::printf("%-36s | %12s\n", "operation", "per-op us");
    std::printf("-------------------------------------+--------------\n");
    std::printf("%-36s | %12.3f\n", "direct call (traditional syscall)",
                direct_us);
    std::printf("%-36s | %12.1f\n", "postMessage round-trip", pm_us);
    std::printf("%-36s | %12.1f\n", "Browsix async syscall (getpid)",
                async_us);
    std::printf("%-36s | %12.1f\n", "Browsix sync syscall (getpid)",
                sync_us);
    for (int i = 0; i < 3; i++) {
        char label[64];
        std::snprintf(label, sizeof(label),
                      "Browsix ring syscall (batch %d)", kBatches[i]);
        std::printf("%-36s | %12.1f\n", label, ring_us[i]);
    }
    std::printf("\nmessage passing vs direct call: %.0fx (paper: \"three "
                "orders of magnitude\")\n",
                pm_us / direct_us);
    std::printf("sync vs async per syscall: %.2fx faster (paper: sync "
                "\"faster in practice\";\none message instead of two)\n",
                async_us / sync_us);
    std::printf("ring batch-64 vs sync per syscall: %.2fx faster (one "
                "doorbell + one wake per batch)\n",
                sync_us / ring_us[2]);

    recordMetric("syscall_micro", "direct_call_us", direct_us);
    recordMetric("syscall_micro", "postmessage_roundtrip_us", pm_us);
    recordMetric("syscall_micro", "async_syscall_us", async_us);
    recordMetric("syscall_micro", "sync_syscall_us", sync_us);
    for (int i = 0; i < 3; i++) {
        recordMetric("syscall_micro",
                     "ring_syscall_batch" + std::to_string(kBatches[i]) +
                         "_us",
                     ring_us[i]);
    }

    // ---- batched coreutils traffic: els -lR, serial vs statBatch ----
    // The stat-heavy `ls -lR` hot path over a staged tree. --serial pays
    // one ring round-trip (doorbell + wake) per lstat; the batched sweep
    // covers a whole directory's entries with one doorbell. The metric
    // that matters is Atomics notifies per ring syscall.
    const int kDirs = smokeMode() ? 2 : 8;
    const int kFilesPerDir = smokeMode() ? 8 : 24;
    for (int d = 0; d < kDirs; d++) {
        std::string dir = "/data/d" + std::to_string(d);
        bx.rootFs().mkdirAll(dir);
        for (int fno = 0; fno < kFilesPerDir; fno++) {
            bx.rootFs().writeFile(dir + "/f" + std::to_string(fno),
                                  std::string(64, 'x'));
        }
    }
    auto lsRun = [&](bool serial) {
        std::vector<std::string> argv = {"/usr/bin/els", "-lR", "/data"};
        if (serial)
            argv.insert(argv.begin() + 2, "--serial");
        kernel::KernelStats before = bx.kernel().stats();
        double ms = timeMs([&]() { bx.runArgv(argv, 120000); });
        kernel::KernelStats after = bx.kernel().stats();
        double calls = static_cast<double>(after.ringSyscallCount -
                                           before.ringSyscallCount);
        double notifies = static_cast<double>(after.ringNotifies -
                                              before.ringNotifies);
        return std::pair<double, double>(
            ms, calls > 0 ? notifies / calls : 0);
    };
    lsRun(true); // warm the tree through the VFS before measuring
    auto [serial_ms, serial_npo] = lsRun(true);
    auto [batch_ms, batch_npo] = lsRun(false);

    std::printf("\nbatched coreutils traffic (els -lR, %d dirs x %d "
                "files):\n\n",
                kDirs, kFilesPerDir);
    std::printf("%-24s | %10s | %18s\n", "mode", "ms", "notifies/ringcall");
    std::printf("-------------------------+------------+----------------"
                "----\n");
    std::printf("%-24s | %10.2f | %18.3f\n", "serial (1 call/lstat)",
                serial_ms, serial_npo);
    std::printf("%-24s | %10.2f | %18.3f\n", "batched (statBatch)",
                batch_ms, batch_npo);
    std::printf("\nbatching cuts Atomics notifies per ring call %.1fx\n",
                batch_npo > 0 ? serial_npo / batch_npo : 0);
    recordMetric("syscall_micro", "ls_serial_ms", serial_ms, "ms");
    recordMetric("syscall_micro", "ls_batch_ms", batch_ms, "ms");
    recordMetric("syscall_micro", "ls_serial_notifies_per_call",
                 serial_npo, "ratio");
    recordMetric("syscall_micro", "ls_batch_notifies_per_call", batch_npo,
                 "ratio");

    // ---- vectored write traffic: writev SQEs, serial vs batch-8 ----
    // Each writev is one ring entry carrying four spans; at batch 8 one
    // doorbell and one wake cover eight gathers.
    const int kWvRounds = smokeMode() ? 20 : 300;
    struct WvResult
    {
        double ms;
        double notifies_per_call;
        double messages_per_burst;
    };
    auto writevRun = [&](int batch) {
        kernel::KernelStats before = bx.kernel().stats();
        // Doorbells are counted between the guest's marks, i.e. only
        // those of the rounds, not of its open and close.
        uint64_t at_open = 0, at_close = 0;
        bool exited = false;
        double ms = timeMs([&]() {
            bx.kernel().spawnRoot(
                {"/usr/bin/sysbench-writev", std::to_string(kWvRounds),
                 std::to_string(batch)},
                bx.kernel().defaultEnv, "/", [&](int) { exited = true; },
                [&](const bfs::Buffer &d) {
                    for (uint8_t c : d)
                        (c == '[' ? at_open : at_close) =
                            bx.kernel().stats().ringDoorbells;
                },
                [](const bfs::Buffer &) {}, [](int) {});
            bx.runUntil([&]() { return exited; }, 120000);
        });
        kernel::KernelStats after = bx.kernel().stats();
        double calls = static_cast<double>(after.ringSyscallCount -
                                           before.ringSyscallCount);
        double notifies = static_cast<double>(after.ringNotifies -
                                              before.ringNotifies);
        return WvResult{ms, calls > 0 ? notifies / calls : 0,
                        static_cast<double>(at_close - at_open) /
                            kWvRounds};
    };
    WvResult wv1 = writevRun(1);
    WvResult wv8 = writevRun(8);
    std::printf("\nvectored write traffic (writev, 4 iovs x 64 B, %d "
                "rounds):\n\n",
                kWvRounds);
    std::printf("%-24s | %10s | %18s | %18s\n", "mode", "ms",
                "notifies/ringcall", "messages/burst");
    std::printf("-------------------------+------------+----------------"
                "----+--------------------\n");
    std::printf("%-24s | %10.2f | %18.3f | %18.3f\n", "serial (batch 1)",
                wv1.ms, wv1.notifies_per_call, wv1.messages_per_burst);
    std::printf("%-24s | %10.2f | %18.3f | %18.3f\n", "batch 8", wv8.ms,
                wv8.notifies_per_call, wv8.messages_per_burst);
    recordMetric("syscall_micro", "writev_batch1_notifies_per_call",
                 wv1.notifies_per_call, "ratio");
    recordMetric("syscall_micro", "writev_batch8_notifies_per_call",
                 wv8.notifies_per_call, "ratio");
    recordMetric("syscall_micro", "writev_batch8_ms", wv8.ms, "ms");
    recordMetric("syscall_micro", "writev_batch8_messages_per_burst",
                 wv8.messages_per_burst, "ratio");
    (void)sink;
    return 0;
}
