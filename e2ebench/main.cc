/**
 * @file
 * The repository benchmark: whole Browsix scenarios timed at the
 * embedder, under BrowserProfile::fast() so every number is host time.
 *
 *   e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *   e2ebench --selftest
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs half the
 * window untraced and half traced, prints the per-layer metrics and the
 * tracing overhead, and writes the spans as Chrome trace-event JSON to
 * --trace-out. The last stdout line is always the result object.
 * See README.md for the workloads and the layer-to-metric mapping.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

using namespace e2ebench;
using browsix::kernel::KernelStats;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    bool selftest = false;
};

/** Metric name -> (value, unit), printed in insertion-independent order. */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/**
 * The tail percentile each workload reports as bench.op_tail_ms, fixed
 * per workload so a faster tree does not change what it means: p90
 * where a 20 s run yields hundreds of ops or more, p80 for latex_build
 * (~55 ops), so at least ten samples lie beyond it.
 */
double
tailPercentile(const std::string &workload)
{
    return workload == "latex_build" ? 80 : 90;
}

/** Number of set-ups per untraced run; setup_s is their median. A
 * single boot varies by a third between runs; the median of several
 * repeats within a tenth. */
int
setupRepeats(const std::string &workload)
{
    return workload == "latex_build" ? 5 : 9;
}

/** Process user+sys CPU time, all threads. */
double
cpuMs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ms = [](const timeval &tv) {
        return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double
rssMb()
{
    long pages = 0, resident = 0;
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) /
           (1024.0 * 1024.0);
}

/**
 * Samples the resident set every 50 ms on its own thread while alive.
 * The median of the samples is steadier than the peak: the peak of a
 * process that moves 300 KB bodies between threads depends on which
 * malloc arenas happened to grow.
 */
class RssSampler
{
  public:
    RssSampler() : thread_([this]() { loop(); }) {}
    ~RssSampler() { stop(); }
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Stop sampling; returns the samples (at least one). */
    std::vector<double>
    stop()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            done_ = true;
        }
        cv_.notify_one();
        if (thread_.joinable())
            thread_.join();
        if (samples_.empty())
            samples_.push_back(rssMb());
        return samples_;
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lk(mu_);
        while (!cv_.wait_for(lk, std::chrono::milliseconds(50),
                             [this]() { return done_; }))
            samples_.push_back(rssMb());
    }

    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;               ///< guarded by mu_
    std::vector<double> samples_;     ///< guarded by mu_ until joined
    std::thread thread_;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto &[name, vu] : m) {
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), vu.first,
                    vu.second.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

std::unique_ptr<Workload>
setUp(const std::string &name, uint64_t seed, Scale scale)
{
    auto w = makeWorkload(name, seed, scale);
    if (!w->setup()) {
        std::fprintf(stderr, "e2ebench: %s set-up failed\n", name.c_str());
        std::exit(1);
    }
    return w;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

int
runUntraced(const Args &a)
{
    // The timed window follows the first set-up, so rss_mb is the
    // resident set of one booted system; the remaining set-ups for
    // setup_s come after it, each in place of the last.
    std::vector<double> setups;
    int64_t t0 = nowUs();
    auto w = setUp(a.workload, a.seed, Scale::Full);
    setups.push_back((nowUs() - t0) / 1e6);

    OpLog log;
    RssSampler rss;
    t0 = nowUs();
    w->runFor(a.seconds, log);
    double wall_s = (nowUs() - t0) / 1e6;
    std::vector<double> rss_mb = rss.stop();

    for (int i = 1; i < setupRepeats(a.workload); i++) {
        w.reset();
        t0 = nowUs();
        w = setUp(a.workload, a.seed, Scale::Full);
        setups.push_back((nowUs() - t0) / 1e6);
    }
    w.reset();

    double ops = static_cast<double>(log.attempted);
    std::fprintf(stderr,
                 "%s: %llu ops, latency ms p50 %.3f p75 %.3f p90 %.3f "
                 "p95 %.3f p99 %.3f max %.3f\n",
                 a.workload.c_str(),
                 static_cast<unsigned long long>(log.attempted),
                 percentile(log.latMs, 50), percentile(log.latMs, 75),
                 percentile(log.latMs, 90), percentile(log.latMs, 95),
                 percentile(log.latMs, 99), percentile(log.latMs, 100));
    Metrics m;
    m["setup_s"] = {percentile(setups, 50), "s"};
    m["op_p50_ms"] = {percentile(log.latMs, 50), "ms"};
    m["ops_per_s"] = {ratio(ops, wall_s), "1/s"};
    m["rss_mb"] = {percentile(rss_mb, 50), "MB"};
    printResult(log.failed == 0 && log.attempted > 0, log.attempted,
                log.failed, m);
    return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

/** The syscalls whose mean dispatch->completion time is reported. */
const char *const kSyscalls[] = {"read",  "write",      "open",   "stat",
                                 "spawn", "wait4",      "epoll_wait",
                                 "writev", "sendfile",  "accept"};

double
meanUs(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return ratio(s, static_cast<double>(v.size()));
}

void
kernelMetrics(const KernelStats &a, const KernelStats &b, double ops,
              Metrics &m)
{
    auto per = [ops](uint64_t x, uint64_t y) {
        return ratio(static_cast<double>(y - x), ops);
    };
    m["kernel.async_calls_per_op"] = {
        per(a.asyncSyscallCount, b.asyncSyscallCount), "count"};
    m["kernel.sync_calls_per_op"] = {
        per(a.syncSyscallCount, b.syncSyscallCount), "count"};
    m["kernel.ring_calls_per_op"] = {
        per(a.ringSyscallCount, b.ringSyscallCount), "count"};
    m["kernel.messages_per_op"] = {per(a.messagesSent, b.messagesSent),
                                   "count"};
    m["kernel.spawns_per_op"] = {
        per(a.processesSpawned, b.processesSpawned), "count"};
    double zc = static_cast<double>(b.zeroCopyCompletions -
                                    a.zeroCopyCompletions);
    double cp = static_cast<double>(b.copiedCompletions -
                                    a.copiedCompletions);
    m["kernel.zero_copy_share"] = {ratio(zc, zc + cp), "ratio"};

    for (const char *name : kSyscalls) {
        const auto *ha = a.latency(name);
        const auto *hb = b.latency(name);
        double n = 0, us = 0;
        if (hb) {
            n = static_cast<double>(hb->count - (ha ? ha->count : 0));
            us = static_cast<double>(hb->sumUs - (ha ? ha->sumUs : 0));
        }
        m[std::string("kernel.syscall_us_mean.") + name] = {ratio(us, n),
                                                            "us"};
    }

    double ring = static_cast<double>(b.ringSyscallCount -
                                      a.ringSyscallCount);
    m["kernel.ring_notifies_per_call"] = {
        ratio(static_cast<double>(b.ringNotifies - a.ringNotifies), ring),
        "ratio"};
    m["kernel.ring_calls_per_doorbell"] = {
        ratio(ring,
              static_cast<double>(b.ringDoorbells - a.ringDoorbells)),
        "ratio"};
    m["kernel.ring_deferred_per_op"] = {
        per(a.ringDeferredCompletions, b.ringDeferredCompletions), "count"};
    double drains = static_cast<double>(b.ringDrainUs.count -
                                        a.ringDrainUs.count);
    m["kernel.ring_drain_us_mean"] = {
        ratio(static_cast<double>(b.ringDrainUs.sumUs - a.ringDrainUs.sumUs),
              drains),
        "us"};
}

int
runTraced(const Args &a)
{
    Tracer tracer; // outlives the workload that records into it
    auto w = setUp(a.workload, a.seed, Scale::Full);

    // First half untraced: the reference for the tracing overhead.
    OpLog plain;
    double cpu0 = cpuMs();
    w->runFor(a.seconds / 2, plain);
    double cpu1 = cpuMs();
    double plain_p50 = percentile(plain.latMs, 50);

    w->trace(tracer);
    KernelStats k0 = w->bx().kernel().stats();
    uint64_t steps0 = w->bx().kernel().scheduler().steps();
    OpLog log;
    w->runFor(a.seconds - a.seconds / 2, log);
    KernelStats k1 = w->bx().kernel().stats();
    uint64_t steps1 = w->bx().kernel().scheduler().steps();

    double ops = static_cast<double>(log.attempted);
    double traced_p50 = percentile(log.latMs, 50);
    Metrics m;
    m["bench.op_fail_frac"] = {
        ratio(static_cast<double>(plain.failed + log.failed),
              static_cast<double>(plain.attempted + log.attempted)),
        "ratio"};
    m["bench.op_tail_ms"] = {
        percentile(plain.latMs, tailPercentile(a.workload)), "ms"};
    m["bench.op_p99_ms"] = {percentile(plain.latMs, 99), "ms"};
    m["bench.cpu_ms_per_op"] = {
        ratio(cpu1 - cpu0, static_cast<double>(plain.attempted)), "ms"};
    m["trace.op_p50_ms_untraced"] = {plain_p50, "ms"};
    m["trace.op_p50_ms_traced"] = {traced_p50, "ms"};
    m["trace.overhead_frac"] = {ratio(traced_p50, plain_p50) - 1, "ratio"};

    const LoopStats &ls = w->loop().stats();
    m["jsvm.loop_iters_per_op"] = {ratio(ls.iters, ops), "count"};
    m["jsvm.loop_sleeps_per_op"] = {ratio(ls.sleeps, ops), "count"};
    m["jsvm.loop_gap_us_mean"] = {
        ratio(static_cast<double>(ls.gapUsSum), ls.iters), "us"};

    kernelMetrics(k0, k1, ops, m);
    m["sched.steps_per_op"] = {ratio(static_cast<double>(steps1 - steps0),
                                     ops),
                               "count"};
    m["sched.queue_depth_max"] = {static_cast<double>(ls.queueDepthMax),
                                  "count"};

    for (const char *mount : {"root", "texlive"}) {
        auto it = w->bfsStats().find(mount);
        for (int c = 0; c < static_cast<int>(BfsCall::kCount); c++) {
            BfsStats::Cell cell;
            if (it != w->bfsStats().end())
                cell = it->second.cells[c];
            std::string base = std::string("bfs.") + mount + "." +
                               bfsCallName(static_cast<BfsCall>(c));
            m[base + ".calls_per_op"] = {
                ratio(static_cast<double>(cell.calls), ops), "count"};
            m[base + ".us_per_op"] = {
                ratio(static_cast<double>(cell.us), ops), "us"};
        }
    }

    const NetStats &ns = w->netStats();
    m["net.connect_us_mean"] = {meanUs(ns.connectUs), "us"};
    m["net.ttfb_us_p50"] = {percentile(ns.ttfbUs, 50), "us"};
    m["net.body_us_p50"] = {percentile(ns.bodyUs, 50), "us"};
    m["net.bytes_per_op"] = {ratio(static_cast<double>(ns.bytes), ops),
                             "bytes"};

    // A workload without an emvm or tex reference reads 0 there, like
    // any layer it does not use; one whose reference failed fails the
    // run and reports nothing for it.
    std::map<std::string, double> own;
    bool own_ok = w->ownLayerMetrics(plain_p50, own);
    for (const char *name : {"emvm.vm_ms_per_op", "emvm.share",
                             "tex.native_ms_per_op", "tex.share"}) {
        bool ms = std::strstr(name, "_ms_") != nullptr;
        if (own_ok)
            m[name] = {own.count(name) ? own[name] : 0, ms ? "ms" : "ratio"};
    }
    w.reset();

    if (!a.traceOut.empty() && !tracer.write(a.traceOut)) {
        std::fprintf(stderr, "e2ebench: cannot write %s\n",
                     a.traceOut.c_str());
        return 1;
    }
    uint64_t attempted = plain.attempted + log.attempted;
    uint64_t failed = plain.failed + log.failed;
    printResult(own_ok && failed == 0 && attempted > 0, attempted, failed,
                m);
    return 0;
}

// ---------------------------------------------------------------------------
// --selftest
// ---------------------------------------------------------------------------

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    std::fflush(stdout);
    if (!ok)
        failures++;
}

/** Kernel counters over `ops` ops of a tiny-size workload. */
struct Split
{
    KernelStats before, after;
    OpLog log;
};

Split
countOps(Workload &w, uint64_t ops)
{
    Split s;
    s.before = w.bx().kernel().stats();
    w.runFor(60, s.log, ops);
    s.after = w.bx().kernel().stats();
    return s;
}

int
selftest(uint64_t seed)
{
    for (const std::string &name : kWorkloadNames) {
        auto w = setUp(name, seed, Scale::Tiny);

        // A corrupted expectation must turn a correct op into a failure.
        OpLog log;
        w->corruptNextExpectation();
        w->runFor(60, log, 3);
        expect(log.attempted == 3 && log.failed == 1,
               name + ": corrupted expected output counted as one failed "
                      "op of three");

        // Each workload touches only the conventions it claims.
        Split s = countOps(*w, 2);
        auto delta = [&s](uint64_t KernelStats::*f) {
            return s.after.*f - s.before.*f;
        };
        bool meme = name == "meme_http";
        bool latex = name == "latex_build";
        expect(s.log.failed == 0, name + ": ops succeed");
        expect((delta(&KernelStats::ringSyscallCount) > 0) == meme,
               name + ": ring calls only on meme_http");
        expect((delta(&KernelStats::syncSyscallCount) > 0) == latex,
               name + ": sync calls only on latex_build");
        if (meme)
            expect(delta(&KernelStats::processesSpawned) == 0,
                   name + ": no spawns in the timed window");

        // The bare emvm and apps/tex references run and check out.
        std::map<std::string, double> own;
        if (latex || name == "awfy_guests")
            expect(w->ownLayerMetrics(1, own) && own.size() == 2,
                   name + ": bare reference path checks out");
    }

    // The bfs decorator keeps the kernel's zero-copy paths.
    double share[2];
    for (int decorated = 0; decorated < 2; decorated++) {
        Tracer tracer; // outlives the workload that records into it
        auto w = setUp("latex_build", seed, Scale::Tiny);
        if (decorated)
            w->trace(tracer);
        Split s = countOps(*w, 2);
        Metrics m;
        kernelMetrics(s.before, s.after, 2, m);
        share[decorated] = m["kernel.zero_copy_share"].first;
        if (decorated)
            expect(w->bfsStats().at("texlive").cells[0].calls > 0,
                   "latex_build: decorator sees /texlive stat calls");
    }
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "latex_build: zero_copy_share %.6f undecorated == %.6f "
                  "decorated",
                  share[0], share[1]);
    expect(share[0] > 0 && share[0] == share[1], buf);

    std::printf("%s\n", failures ? "SELFTEST FAILED" : "SELFTEST PASSED");
    std::fflush(stdout);
    return failures ? 1 : 0;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v != "0";
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            return false;
    }
    if (a.selftest)
        return true;
    return a.seconds > 0 &&
           std::find(kWorkloadNames.begin(), kWorkloadNames.end(),
                     a.workload) != kWorkloadNames.end();
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: e2ebench --workload "
                     "{shell_pipeline|latex_build|meme_http|awfy_guests} "
                     "--seed N --seconds S --trace 0|1 [--trace-out F]\n"
                     "       e2ebench --selftest [--seed N]\n");
        return 2;
    }
    if (a.selftest)
        return selftest(a.seed);
    return a.trace ? runTraced(a) : runUntraced(a);
}
