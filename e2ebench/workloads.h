/**
 * @file
 * The benchmark's four workloads, each a closed loop over the public
 * embedder API of one Browsix booted under BrowserProfile::fast(), so
 * every time is host time. Every op's output is checked; an op that
 * exits non-zero, times out, is refused or returns the wrong bytes is a
 * failed op.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/browsix.h"
#include "probe.h"

namespace e2ebench {

/** The p-th percentile of v: the midpoint median at p == 50, nearest
 * rank otherwise; 0 for no samples. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    if (p == 50) {
        size_t n = v.size();
        return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    }
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

/** Op latencies and outcomes of one phase. */
struct OpLog
{
    std::vector<double> latMs;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    add(double ms, bool ok)
    {
        latMs.push_back(ms);
        attempted++;
        if (!ok)
            failed++;
    }
};

/** HTTP phase timings (net layer), from the embedder's connections. */
struct NetStats
{
    std::vector<double> connectUs;
    std::vector<double> ttfbUs;
    std::vector<double> bodyUs;
    uint64_t bytes = 0;
};

class Workload
{
  public:
    explicit Workload(uint64_t seed) : rng_(seed) {}
    virtual ~Workload() = default;

    /** Boot, stage the seeded inputs and warm up. False on failure. */
    virtual bool setup() = 0;

    /** Run ops in a closed loop for `seconds` (or until max_ops have
     * been issued), logging each into log. */
    virtual void runFor(double seconds, OpLog &log,
                        uint64_t max_ops = UINT64_MAX) = 0;

    browsix::Browsix &bx() { return *bx_; }
    Loop &loop() { return *loop_; }

    /** Turn on the traced run's instruments: loop probe, op and HTTP
     * spans, and the bfs decorator over every mount. */
    void trace(Tracer &tracer);

    /** Self-test hook: the next op's expected output is corrupted, so a
     * correct op must be counted as failed. */
    void corruptNextExpectation() { corrupt_ = true; }

    const std::map<std::string, BfsStats> &bfsStats() const
    {
        return bfsStats_;
    }
    const NetStats &netStats() const { return net_; }

    /** Per-layer metrics only this workload has (emvm, tex), given the
     * untraced op median they are a share of. False, with nothing put
     * into out, when the reference path failed or gave wrong output. */
    virtual bool
    ownLayerMetrics(double op_p50_ms,
                    std::map<std::string, double> &out)
    {
        (void)op_p50_ms;
        (void)out;
        return true;
    }

  protected:
    void boot(const browsix::BootConfig &cfg);

    /** Browsix::runArgv through loop(), so traced runs see every loop
     * iteration of the wait. */
    browsix::RunResult exec(const std::vector<std::string> &argv,
                            int64_t timeout_ms = 60000);

    /** Consume the corruption flag (self-test). */
    bool
    takeCorrupt()
    {
        bool c = corrupt_;
        corrupt_ = false;
        return c;
    }

    std::mt19937_64 rng_;
    Tracer *tracer_ = nullptr;
    NetStats net_;

  private:
    /// Declared before bx_: the decorated mounts inside bx_ record into
    /// it until bx_ is gone.
    std::map<std::string, BfsStats> bfsStats_;
    std::unique_ptr<browsix::Browsix> bx_;
    std::unique_ptr<Loop> loop_;
    bool corrupt_ = false;
};

/** A workload whose op is one synchronous embedder call sequence. */
class SequentialWorkload : public Workload
{
  public:
    void runFor(double seconds, OpLog &log,
                uint64_t max_ops = UINT64_MAX) override;

  protected:
    using Workload::Workload;
    /** Draw the next op's seeded input and expected output (untimed). */
    virtual void prepare() {}
    /** One op; true when its output checked out. */
    virtual bool op() = 0;
    /** Prepare, then run, time and log one op. */
    bool timedOp(OpLog &log);
};

/** Size knob for the self-test; Full is what the benchmark measures. */
enum class Scale { Full, Tiny };

extern const std::vector<std::string> kWorkloadNames;

/** nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, Scale scale);

} // namespace e2ebench
