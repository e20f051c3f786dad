/**
 * @file
 * Instruments for the traced run, all applied from outside the layers'
 * public functions: a span recorder that writes Chrome trace-event JSON,
 * a probe around the embedder's main-loop predicate (jsvm), and a timing
 * decorator over every mounted filesystem backend (bfs).
 *
 * Nothing here is active in an untraced run: Loop::until then forwards
 * straight to Browsix::runUntil and no decorator is mounted.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bfs/backend.h"
#include "bfs/vfs.h"
#include "core/browsix.h"
#include "jsvm/util.h"

namespace e2ebench {

using browsix::jsvm::nowUs;

/** Chrome trace-event track ids ("tid"), one per kind of span. */
enum Track : int {
    kOpTrack = 1,
    kLoopTrack = 2,
    kBfsTrack = 3,
    kHttpTrack = 10, ///< + connection index
};

/**
 * In-memory span list, written once at the end of the run. Spans past
 * kMaxSpans are counted, not kept, so a long traced window cannot grow
 * the benchmark's own memory without bound.
 */
class Tracer
{
  public:
    static constexpr size_t kMaxSpans = 400000;

    void
    span(const char *name, int track, int64_t start_us, int64_t end_us)
    {
        if (spans_.size() >= kMaxSpans) {
            dropped_++;
            return;
        }
        spans_.push_back(Span{name, track, start_us, end_us - start_us});
    }

    /** Write {"traceEvents": [...]} (complete "X" events, µs). */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        const std::pair<int, const char *> names[] = {
            {kOpTrack, "ops"}, {kLoopTrack, "jsvm main loop"},
            {kBfsTrack, "bfs"}};
        for (const auto &[tid, name] : names)
            std::fprintf(f,
                         "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                         "\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n",
                         tid, name);
        int max_track = 0;
        for (const Span &s : spans_)
            max_track = std::max(max_track, s.track);
        for (int tid = kHttpTrack; tid <= max_track; tid++)
            std::fprintf(f,
                         "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                         "\"tid\":%d,\"args\":{\"name\":\"http conn %d\"}},"
                         "\n",
                         tid, tid - kHttpTrack);
        for (const Span &s : spans_)
            std::fprintf(f,
                         "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%lld,\"dur\":%lld},\n",
                         s.name, s.track, static_cast<long long>(s.start),
                         static_cast<long long>(s.dur));
        std::fprintf(f,
                     "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
                     "\"args\":{\"name\":\"e2ebench (%llu spans "
                     "dropped)\"}}\n]}\n",
                     static_cast<unsigned long long>(dropped_));
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char *name; ///< static string
        int track;
        int64_t start;
        int64_t dur;
    };
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
};

/** jsvm layer counters, gathered at the embedder's runUntil predicate. */
struct LoopStats
{
    uint64_t iters = 0;
    uint64_t sleeps = 0; ///< predicate gaps >= kSleepGapUs
    int64_t gapUsSum = 0;
    size_t queueDepthMax = 0;

    /// Browser::runUntil sleeps 200 µs on an empty queue; a gap this long
    /// between two predicate calls means the loop slept, not worked.
    static constexpr int64_t kSleepGapUs = 150;
};

/**
 * Every wait the benchmark does on Browsix goes through until(), so
 * each main-loop iteration is visible to the traced run.
 */
class Loop
{
  public:
    explicit Loop(browsix::Browsix &bx) : bx_(bx) {}

    void trace(Tracer *tracer) { tracer_ = tracer; }
    const LoopStats &stats() const { return stats_; }

    bool
    until(const std::function<bool()> &pred, int64_t timeout_ms)
    {
        if (!tracer_)
            return bx_.runUntil(pred, timeout_ms);
        int64_t last = nowUs();
        return bx_.runUntil(
            [&]() {
                int64_t t = nowUs();
                stats_.iters++;
                stats_.gapUsSum += t - last;
                if (t - last >= LoopStats::kSleepGapUs)
                    stats_.sleeps++;
                stats_.queueDepthMax =
                    std::max(stats_.queueDepthMax,
                             bx_.kernel().scheduler().queueDepth());
                tracer_->span("loop", kLoopTrack, last, t);
                last = t;
                return pred();
            },
            timeout_ms);
    }

  private:
    browsix::Browsix &bx_;
    Tracer *tracer_ = nullptr;
    LoopStats stats_;
};

// ---------------------------------------------------------------------------
// bfs timing decorator
// ---------------------------------------------------------------------------

/** The backend calls the traced run times, per mount. */
enum class BfsCall { Stat, Open, Read, Write, Readdir, kCount };

inline const char *
bfsCallName(BfsCall c)
{
    static const char *names[] = {"stat", "open", "read", "write",
                                  "readdir"};
    return names[static_cast<int>(c)];
}

struct BfsStats
{
    struct Cell
    {
        uint64_t calls = 0;
        int64_t us = 0; ///< call to completion callback
    };
    Cell cells[static_cast<int>(BfsCall::kCount)];

    Cell &operator[](BfsCall c) { return cells[static_cast<int>(c)]; }
};

/**
 * Wrap a completion callback so it records the time from now (the call's
 * entry) to its completion before running.
 */
template <typename... Args>
std::function<void(Args...)>
timed(BfsStats &stats, Tracer &tracer, BfsCall call,
      std::function<void(Args...)> cb)
{
    int64_t start = nowUs();
    return [&stats, &tracer, call, start, cb = std::move(cb)](Args... a) {
        int64_t end = nowUs();
        BfsStats::Cell &cell = stats[call];
        cell.calls++;
        cell.us += end - start;
        tracer.span(bfsCallName(call), kBfsTrack, start, end);
        cb(std::forward<Args>(a)...);
    };
}

/**
 * Forwards every OpenFile override — preadInto and pwriteFrom included,
 * so the decorated mount keeps the kernel's zero-copy paths.
 */
class TimedFile : public browsix::bfs::OpenFile
{
  public:
    TimedFile(browsix::bfs::OpenFilePtr inner, BfsStats &stats,
              Tracer &tracer)
        : inner_(std::move(inner)), stats_(stats), tracer_(tracer)
    {
    }

    void
    pread(uint64_t off, size_t len, browsix::bfs::DataCb cb) override
    {
        inner_->pread(off, len, timer(BfsCall::Read, std::move(cb)));
    }
    void
    preadInto(uint64_t off, browsix::bfs::ByteSpan dst,
              browsix::bfs::SizeCb cb) override
    {
        inner_->preadInto(off, dst,
                          timer(BfsCall::Read, std::move(cb)));
    }
    void
    pwrite(uint64_t off, const uint8_t *data, size_t len,
           browsix::bfs::SizeCb cb) override
    {
        inner_->pwrite(off, data, len,
                       timer(BfsCall::Write, std::move(cb)));
    }
    void
    pwriteFrom(uint64_t off, browsix::bfs::ConstByteSpan src,
               browsix::bfs::SizeCb cb) override
    {
        inner_->pwriteFrom(off, src,
                           timer(BfsCall::Write, std::move(cb)));
    }
    void
    fstat(browsix::bfs::StatCb cb) override
    {
        inner_->fstat(std::move(cb));
    }
    void
    ftruncate(uint64_t size, browsix::bfs::ErrCb cb) override
    {
        inner_->ftruncate(size, std::move(cb));
    }
    void close() override { inner_->close(); }

  private:
    template <typename Cb>
    Cb
    timer(BfsCall c, Cb cb)
    {
        return timed(stats_, tracer_, c, std::move(cb));
    }

    browsix::bfs::OpenFilePtr inner_;
    BfsStats &stats_;
    Tracer &tracer_;
};

/** Forwards every Backend override; times stat/open/readdir. */
class TimedBackend : public browsix::bfs::Backend
{
  public:
    TimedBackend(browsix::bfs::BackendPtr inner, BfsStats &stats,
                 Tracer &tracer)
        : inner_(std::move(inner)), stats_(stats), tracer_(tracer)
    {
    }

    std::string name() const override { return inner_->name(); }
    bool readOnly() const override { return inner_->readOnly(); }

    void
    stat(const std::string &path, browsix::bfs::StatCb cb) override
    {
        inner_->stat(path, timer(BfsCall::Stat, std::move(cb)));
    }
    void
    open(const std::string &path, int oflags, uint32_t mode,
         browsix::bfs::OpenCb cb) override
    {
        BfsStats *stats = &stats_;
        Tracer *tracer = &tracer_;
        browsix::bfs::OpenCb wrapped =
            [stats, tracer, cb = std::move(cb)](
                int err, browsix::bfs::OpenFilePtr f) {
                if (f)
                    f = std::make_shared<TimedFile>(std::move(f), *stats,
                                                    *tracer);
                cb(err, std::move(f));
            };
        inner_->open(path, oflags, mode,
                     timer(BfsCall::Open, std::move(wrapped)));
    }
    void
    readdir(const std::string &path, browsix::bfs::DirCb cb) override
    {
        inner_->readdir(path, timer(BfsCall::Readdir, std::move(cb)));
    }
    void
    mkdir(const std::string &path, uint32_t mode,
          browsix::bfs::ErrCb cb) override
    {
        inner_->mkdir(path, mode, std::move(cb));
    }
    void
    rmdir(const std::string &path, browsix::bfs::ErrCb cb) override
    {
        inner_->rmdir(path, std::move(cb));
    }
    void
    unlink(const std::string &path, browsix::bfs::ErrCb cb) override
    {
        inner_->unlink(path, std::move(cb));
    }
    void
    rename(const std::string &from, const std::string &to,
           browsix::bfs::ErrCb cb) override
    {
        inner_->rename(from, to, std::move(cb));
    }
    void
    readlink(const std::string &path, browsix::bfs::StrCb cb) override
    {
        inner_->readlink(path, std::move(cb));
    }
    void
    symlink(const std::string &target, const std::string &path,
            browsix::bfs::ErrCb cb) override
    {
        inner_->symlink(target, path, std::move(cb));
    }
    void
    utimes(const std::string &path, int64_t atime_us, int64_t mtime_us,
           browsix::bfs::ErrCb cb) override
    {
        inner_->utimes(path, atime_us, mtime_us, std::move(cb));
    }

  private:
    template <typename Cb>
    Cb
    timer(BfsCall c, Cb cb)
    {
        return timed(stats_, tracer_, c, std::move(cb));
    }

    browsix::bfs::BackendPtr inner_;
    BfsStats &stats_;
    Tracer &tracer_;
};

/** Mount label used in metric names: "root" for "/", else the prefix
 * without its slashes ("/texlive" -> "texlive"). */
inline std::string
mountLabel(const std::string &prefix)
{
    if (prefix == "/")
        return "root";
    std::string s;
    for (char c : prefix)
        if (c != '/')
            s += c;
    return s;
}

/**
 * Put a TimedBackend over every mount of vfs; stats are keyed by
 * mountLabel. Vfs::mount appends, and an equal-length prefix keeps its
 * original order, so mounting the decorator at the same prefix would
 * leave the undecorated backend resolving first. The decorator
 * therefore takes the original's place in the mount table instead. The
 * table is only read on the main loop, which is not running here.
 */
inline void
decorateMounts(browsix::bfs::Vfs &vfs,
               std::map<std::string, BfsStats> &stats, Tracer &tracer)
{
    auto &mounts =
        const_cast<std::vector<browsix::bfs::Vfs::Mount> &>(vfs.mounts());
    for (auto &m : mounts)
        m.backend = std::make_shared<TimedBackend>(
            m.backend, stats[mountLabel(m.prefix)], tracer);
}

} // namespace e2ebench
