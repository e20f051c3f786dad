/**
 * @file
 * Shared benchmark harness: timing helpers, and NodeDirectApi — the
 * paper's "Node.js on Linux" configuration (Figure 9's middle column):
 * the same utility code, the same JavaScript costs (bundle parse, JS
 * arithmetic), but the C++ bindings call the filesystem directly instead
 * of making Browsix syscalls.
 */
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "apps/coreutils/coreutils.h"
#include "bfs/path.h"
#include "core/browsix.h"
#include "jsvm/util.h"
#include "runtime/node/node_runtime.h"

namespace browsix {
namespace bench {

/** Milliseconds elapsed running fn. */
inline double
timeMs(const std::function<void()> &fn)
{
    int64_t t0 = jsvm::nowUs();
    fn();
    return (jsvm::nowUs() - t0) / 1000.0;
}

struct Series
{
    std::vector<double> samples;

    void add(double v) { samples.push_back(v); }
    double
    mean() const
    {
        if (samples.empty())
            return 0;
        return std::accumulate(samples.begin(), samples.end(), 0.0) /
               samples.size();
    }
    double
    min() const
    {
        return samples.empty()
                   ? 0
                   : *std::min_element(samples.begin(), samples.end());
    }
};

/**
 * True when BROWSIX_BENCH_SMOKE is set: the `bench-smoke` ctest label
 * runs every benchmark this way — one un-warmed iteration, enough to
 * prove the workload still executes without paying for stable numbers.
 */
inline bool
smokeMode()
{
    static const bool v = []() {
        const char *s = std::getenv("BROWSIX_BENCH_SMOKE");
        return s && *s && std::string(s) != "0";
    }();
    return v;
}

/**
 * Machine-readable results: when BROWSIX_BENCH_JSON names a directory,
 * every metric recorded via recordMetric() is written to
 * `<dir>/<bench>.json` at process exit as
 *   {"bench": "...", "metrics": [{"name": ..., "value": ..., "unit":
 *   ...}, ...]}
 * — the per-bench JSON the CI uploads as its `bench-results` artifact so
 * successive PRs accumulate a perf trajectory. A no-op when the variable
 * is unset (interactive runs keep their human-readable tables).
 */
inline void
recordMetric(const std::string &bench, const std::string &name,
             double value, const std::string &unit = "us")
{
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    struct Sink
    {
        // Keyed by bench name: a binary recording under several names
        // gets one correctly-labelled file per name.
        std::map<std::string, std::vector<Row>> benches;

        ~Sink()
        {
            const char *dir = std::getenv("BROWSIX_BENCH_JSON");
            if (!dir || !*dir)
                return;
            for (const auto &[bench, rows] : benches) {
                std::string path =
                    std::string(dir) + "/" + bench + ".json";
                std::FILE *f = std::fopen(path.c_str(), "w");
                if (!f)
                    continue;
                std::fprintf(f, "{\"bench\": \"%s\", \"metrics\": [",
                             bench.c_str());
                for (size_t i = 0; i < rows.size(); i++) {
                    std::fprintf(
                        f,
                        "%s\n  {\"name\": \"%s\", \"value\": %.6g, "
                        "\"unit\": \"%s\"}",
                        i ? "," : "", rows[i].name.c_str(), rows[i].value,
                        rows[i].unit.c_str());
                }
                std::fprintf(f, "\n]}\n");
                std::fclose(f);
            }
        }
    };
    static Sink sink;
    sink.benches[bench].push_back(Row{name, value, unit});
}

/**
 * Serialize a kernel latency histogram through recordMetric: one row
 * each for p50/p99/mean/max (µs) plus the sample count, named
 * "<prefix>.p50" and so on. The JSON schema stays the plain
 * {"name", "value", "unit"} rows documented in BUILDING.md
 * ("Histogram JSON").
 */
inline void
recordHistogram(const std::string &bench, const std::string &prefix,
                const kernel::LatencyHistogram &h)
{
    recordMetric(bench, prefix + ".p50",
                 static_cast<double>(h.percentileUs(50)), "us");
    recordMetric(bench, prefix + ".p99",
                 static_cast<double>(h.percentileUs(99)), "us");
    recordMetric(bench, prefix + ".mean", h.meanUs(), "us");
    recordMetric(bench, prefix + ".max", static_cast<double>(h.maxUs),
                 "us");
    recordMetric(bench, prefix + ".count", static_cast<double>(h.count),
                 "calls");
}

/** Repeat fn `warmup + runs` times; collect the timed runs. */
inline Series
measure(int warmup, int runs, const std::function<void()> &fn)
{
    if (smokeMode()) {
        warmup = 0;
        runs = runs > 0 ? 1 : runs;
    }
    Series s;
    for (int i = 0; i < warmup; i++)
        fn();
    for (int i = 0; i < runs; i++)
        s.add(timeMs(fn));
    return s;
}

/**
 * Node bindings that skip the kernel: direct VFS access, inline
 * completion. Everything JavaScript about Node is still charged by the
 * caller (bundle parse, sha1Js); only the OS underneath differs.
 */
class NodeDirectApi : public rt::NodeApi,
                      public std::enable_shared_from_this<NodeDirectApi>
{
  public:
    NodeDirectApi(bfs::Vfs &vfs, std::vector<std::string> args)
        : vfs_(vfs)
    {
        argv = std::move(args);
        env["PATH"] = "/usr/bin:/bin";
        pid = 1;
    }

    int exitCode = -1;
    std::string out;
    std::string errOut;

    void
    readFile(const std::string &path, DataCb cb) override
    {
        bfs::Buffer data;
        int rc = vfs_.readFileSync(bfs::joinPath(cwd, path), data);
        cb(rc, std::move(data));
    }

    void
    writeFile(const std::string &path, bfs::Buffer data, VoidCb cb) override
    {
        int rc = -1;
        vfs_.writeFile(bfs::joinPath(cwd, path), std::move(data),
                       [&](int err) { rc = err; });
        if (cb)
            cb(rc);
    }

    void
    appendFile(const std::string &path, bfs::Buffer data, VoidCb cb) override
    {
        bfs::Buffer existing;
        vfs_.readFileSync(bfs::joinPath(cwd, path), existing);
        existing.insert(existing.end(), data.begin(), data.end());
        writeFile(path, std::move(existing), std::move(cb));
    }

    void
    readdir(const std::string &path, NamesCb cb) override
    {
        vfs_.readdir(bfs::joinPath(cwd, path),
                     [&](int err, std::vector<bfs::DirEntry> es) {
                         std::vector<std::string> names;
                         for (auto &e : es)
                             names.push_back(e.name);
                         cb(err, std::move(names));
                     });
    }

    void
    stat(const std::string &path, StatCb cb) override
    {
        bfs::Stat st;
        int rc = vfs_.statSync(bfs::joinPath(cwd, path), st);
        cb(rc, sys::statXFromBfs(st));
    }

    void
    lstat(const std::string &path, StatCb cb) override
    {
        vfs_.lstat(bfs::joinPath(cwd, path),
                   [&](int err, const bfs::Stat &st) {
                       cb(err, sys::statXFromBfs(st));
                   });
    }

    void
    unlink(const std::string &path, VoidCb cb) override
    {
        vfs_.unlink(bfs::joinPath(cwd, path),
                    [&](int err) {
                        if (cb)
                            cb(err);
                    });
    }

    void
    mkdir(const std::string &path, VoidCb cb) override
    {
        vfs_.mkdir(bfs::joinPath(cwd, path), 0755, [&](int err) {
            if (cb)
                cb(err);
        });
    }

    void
    rmdir(const std::string &path, VoidCb cb) override
    {
        vfs_.rmdir(bfs::joinPath(cwd, path), [&](int err) {
            if (cb)
                cb(err);
        });
    }

    void
    rename(const std::string &from, const std::string &to,
           VoidCb cb) override
    {
        vfs_.rename(bfs::joinPath(cwd, from), bfs::joinPath(cwd, to),
                    [&](int err) {
                        if (cb)
                            cb(err);
                    });
    }

    void
    utimes(const std::string &path, int64_t at, int64_t mt,
           VoidCb cb) override
    {
        vfs_.utimes(bfs::joinPath(cwd, path), at, mt, [&](int err) {
            if (cb)
                cb(err);
        });
    }

    void
    open(const std::string &path, int oflags, IntCb cb) override
    {
        bfs::OpenFilePtr f;
        int rc = -1;
        vfs_.open(bfs::joinPath(cwd, path), oflags, 0644,
                  [&](int err, bfs::OpenFilePtr file) {
                      rc = err;
                      f = std::move(file);
                  });
        if (rc != 0) {
            cb(-rc);
            return;
        }
        int fd = nextFd_++;
        files_[fd] = OpenState{f, 0};
        cb(fd);
    }

    void
    read(int fd, size_t n, DataCb cb) override
    {
        auto it = files_.find(fd);
        if (it == files_.end()) {
            cb(EBADF, {});
            return;
        }
        OpenState &st = it->second;
        bfs::Buffer out_data;
        int rc = -1;
        st.file->pread(st.offset, n, [&](int err, bfs::BufferPtr data) {
            rc = err;
            if (data)
                out_data = *data;
        });
        st.offset += out_data.size();
        cb(rc, std::move(out_data));
    }

    void
    write(int fd, bfs::Buffer data, IntCb cb) override
    {
        auto it = files_.find(fd);
        if (it == files_.end()) {
            // fd 1 and 2 are stdio, as in Node (utilities write bytes there).
            std::string *sink = fd == 1 ? &out : fd == 2 ? &errOut : nullptr;
            if (sink)
                sink->append(data.begin(), data.end());
            if (cb)
                cb(sink ? static_cast<int64_t>(data.size()) : -EBADF);
            return;
        }
        OpenState &st = it->second;
        size_t n = 0;
        st.file->pwrite(st.offset, data.data(), data.size(),
                        [&](int, size_t written) { n = written; });
        st.offset += n;
        if (cb)
            cb(static_cast<int64_t>(n));
    }

    void
    close(int fd, VoidCb cb) override
    {
        files_.erase(fd);
        if (cb)
            cb(0);
    }

    void
    stdoutWrite(const std::string &s, VoidCb cb) override
    {
        out += s;
        if (cb)
            cb(0);
    }

    void
    stderrWrite(const std::string &s, VoidCb cb) override
    {
        errOut += s;
        if (cb)
            cb(0);
    }

    void stdinRead(DataCb cb) override { cb(0, {}); }

    void
    spawn(const std::vector<std::string> &, IntCb cb) override
    {
        cb(-ENOSYS); // plain Node runs: no Browsix process tree
    }

    void
    waitPid(int, std::function<void(int, int)> cb) override
    {
        cb(-ECHILD, 0);
    }

    void
    kill(int, int, VoidCb cb) override
    {
        if (cb)
            cb(EPERM);
    }

    void exit(int code) override { exitCode = code; }
    int64_t nowMs() override { return jsvm::nowUs() / 1000; }

  private:
    struct OpenState
    {
        bfs::OpenFilePtr file;
        uint64_t offset;
    };

    bfs::Vfs &vfs_;
    int nextFd_ = 3;
    std::map<int, OpenState> files_;
};

/**
 * Run a registered utility under "Node.js on Linux": charge the node
 * bundle's parse cost (startup), then run the utility over direct
 * bindings. Returns captured stdout.
 */
inline std::string
runNodeDirect(bfs::Vfs &vfs, const jsvm::CostModel &costs,
              const std::vector<std::string> &util_argv)
{
    apps::registerAllPrograms();
    apps::registerCoreutils();
    const apps::ProgramSpec *node =
        apps::ProgramRegistry::instance().find("node");
    costs.chargeParse(node->bundleKb * 1024); // node startup: parse/JIT
    std::vector<std::string> argv = {"/usr/bin/node",
                                     "/usr/bin/" + util_argv[0]};
    argv.insert(argv.end(), util_argv.begin() + 1, util_argv.end());
    auto api = std::make_shared<NodeDirectApi>(vfs, argv);
    rt::NodeUtilFn fn = rt::lookupNodeUtil(util_argv[0]);
    if (!fn)
        return "";
    fn(api);
    return api->out;
}

/** A deterministic pseudo-random file (the sha1sum workload). */
inline bfs::Buffer
makeBlob(size_t bytes, uint32_t seed)
{
    bfs::Buffer out(bytes);
    uint32_t x = seed | 1;
    for (size_t i = 0; i < bytes; i++) {
        x = x * 1664525 + 1013904223;
        out[i] = static_cast<uint8_t>(x >> 24);
    }
    return out;
}

} // namespace bench
} // namespace browsix
