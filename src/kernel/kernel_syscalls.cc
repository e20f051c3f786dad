/**
 * @file
 * System-call handlers (Figure 3's table, plus Browsix extensions).
 *
 * Each handler is written once against SyscallCtx and so serves both the
 * asynchronous (message/CPS) and synchronous (shared heap + Atomics)
 * conventions. Handlers re-look-up the task in completion callbacks: the
 * process may have been killed while its call was in flight.
 */
#include <algorithm>
#include <cstring>
#include <functional>
#include <map>

#include "bfs/path.h"
#include "jsvm/util.h"
#include "kernel/epoll.h"
#include "kernel/kernel.h"
#include "kernel/syscall_ctx.h"
#include "runtime/syscall_ring.h"

namespace browsix {
namespace kernel {

namespace {

using Handler = std::function<void(Kernel &, Task &, SyscallCtxPtr)>;

KFilePtr
getFile(Task &t, int fd)
{
    auto it = t.files.find(fd);
    return it == t.files.end() ? nullptr : it->second;
}

std::string
resolvePath(Task &t, const std::string &path)
{
    return bfs::joinPath(t.cwd, path);
}

// ---------- process management ----------

void
sysExit(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    k.doExit(t, sys::statusFromExitCode(ctx->argInt(0)));
    // No reply: the calling context is gone.
}

void
sysFork(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    if (ctx->isSync()) {
        // §3.2: "fork is not compatible with synchronous system calls".
        ctx->completeErr(ENOSYS);
        return;
    }
    jsvm::Value snapshot = ctx->argValue(0);
    if (snapshot.isUndefined() || !snapshot.isBytes()) {
        // The runtime could not serialize its state (no Emterpreter).
        ctx->completeErr(ENOSYS);
        return;
    }
    // Parent sees the child pid; the restored child's runtime makes its
    // own fork() return 0 when it resumes from the snapshot.
    ctx->complete(k.doFork(t, std::move(snapshot)));
}

void
sysSpawn(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    if (ctx->isSync()) {
        ctx->completeErr(ENOSYS);
        return;
    }
    jsvm::Value argv_v = ctx->argValue(0);
    if (!argv_v.isArray() || argv_v.size() == 0) {
        ctx->completeErr(EINVAL);
        return;
    }
    std::vector<std::string> argv;
    for (const auto &a : argv_v.asArray())
        argv.push_back(a.isString() ? a.asString() : "");

    std::map<std::string, std::string> env = t.env;
    jsvm::Value env_v = ctx->argValue(1);
    if (env_v.isObject()) {
        env.clear();
        for (const auto &[key, val] : env_v.asObject())
            env[key] = val.isString() ? val.asString() : "";
    }

    std::string cwd = t.cwd;
    jsvm::Value cwd_v = ctx->argValue(2);
    if (cwd_v.isString() && !cwd_v.asString().empty())
        cwd = resolvePath(t, cwd_v.asString());

    // Descriptor inheritance: child fd i <- parent fd fds[i]; default
    // stdio passthrough.
    std::vector<int> inherit = {0, 1, 2};
    jsvm::Value fds_v = ctx->argValue(3);
    if (fds_v.isArray()) {
        inherit.clear();
        for (const auto &f : fds_v.asArray())
            inherit.push_back(f.asInt());
    }
    std::map<int, KFilePtr> child_fds;
    for (size_t i = 0; i < inherit.size(); i++) {
        if (inherit[i] < 0)
            continue; // explicitly closed in the child
        KFilePtr f = getFile(t, inherit[i]);
        if (!f) {
            for (auto &[fd, file] : child_fds)
                file->unref();
            ctx->completeErr(EBADF);
            return;
        }
        f->ref();
        child_fds[static_cast<int>(i)] = f;
    }

    k.doSpawn(&t, std::move(argv), std::move(env), cwd,
              std::move(child_fds), jsvm::Value::undefined(),
              [ctx](int pid_or_err) { ctx->complete(pid_or_err); });
}

void
sysExecve(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    if (ctx->isSync()) {
        ctx->completeErr(ENOSYS);
        return;
    }
    jsvm::Value argv_v = ctx->argValue(0);
    if (!argv_v.isArray() || argv_v.size() == 0) {
        ctx->completeErr(EINVAL);
        return;
    }
    std::vector<std::string> argv;
    for (const auto &a : argv_v.asArray())
        argv.push_back(a.isString() ? a.asString() : "");
    std::map<std::string, std::string> env;
    jsvm::Value env_v = ctx->argValue(1);
    if (env_v.isObject()) {
        for (const auto &[key, val] : env_v.asObject())
            env[key] = val.isString() ? val.asString() : "";
    }
    k.doExec(t, std::move(argv), std::move(env), [ctx](int rc) {
        // Only a *failed* exec is observable by the caller.
        if (rc < 0)
            ctx->complete(rc);
    });
}

void
sysWait4(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    // The wait status is returned in ret1 under both conventions (§3.3:
    // wait4 "returns immediately if the specified child has already
    // exited, or the WNOHANG option is specified"). Shared-heap callers
    // may additionally pass a status pointer at arg 1 (0 discards): the
    // status int is written into the guest window in place, so a ring
    // wait4's deferred CQE — pushed from completeWaits when the child
    // exits — carries everything the caller needs in r0 alone.
    int wait_pid = ctx->argInt(0);
    int options = ctx->isSync() ? ctx->argInt(2) : ctx->argInt(1);

    std::function<void(int)> put_status = [](int) {};
    if (ctx->isSync() && ctx->argInt(1) != 0) {
        SyscallCtx::HeapSpan win = ctx->heapSpan(1, 4);
        if (!win.ok()) {
            ctx->completeErr(EFAULT);
            return;
        }
        put_status = [win](int status) {
            std::memcpy(win.span.data, &status, 4);
        };
    }

    // Existing zombies are reaped in exit order (the parent's
    // zombieFifo), not pid order — deterministic FIFO across pid bands.
    int found = 0;
    for (int zombie : t.zombieFifo) {
        if (wait_pid == -1 || wait_pid == zombie) {
            found = zombie;
            break;
        }
    }
    if (found) {
        int status = k.task(found)->exitStatus;
        k.reapTask(found); // also drops it from children + zombieFifo
        put_status(status);
        ctx->complete(found, status);
        return;
    }

    bool has_candidate = false;
    for (int child : t.children) {
        if (wait_pid == -1 || wait_pid == child) {
            has_candidate = true;
            break;
        }
    }
    if (!has_candidate) {
        ctx->completeErr(ECHILD);
        return;
    }
    if (options & sys::WNOHANG) {
        ctx->complete(0, 0);
        return;
    }
    k.statsMut().wait4Parked++;
    t.addWaitWaiter(wait_pid, [ctx, put_status](int pid, int status) {
        put_status(status);
        ctx->complete(pid, status);
    });
}

void
sysGetpid(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    ctx->complete(t.pid);
}

void
sysGetppid(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    ctx->complete(t.ppid);
}

void
sysGetcwd(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    ctx->completeStr(t.cwd, 0, 1);
}

void
sysChdir(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    std::string path = resolvePath(t, ctx->argStr(0));
    int pid = t.pid;
    k.fs().stat(path, [&k, pid, path, ctx](int err, const bfs::Stat &st) {
        if (err) {
            ctx->completeErr(err);
            return;
        }
        if (!st.isDir()) {
            ctx->completeErr(ENOTDIR);
            return;
        }
        if (Task *t2 = k.task(pid))
            t2->cwd = path;
        ctx->complete(0);
    });
}

void
sysKill(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    // The caller is excluded from a kill(-1) broadcast (Linux style):
    // killing it mid-syscall would silently drop this completion.
    int rc = k.kill(ctx->argInt(0), ctx->argInt(1), t.pid);
    if (rc)
        ctx->completeErr(rc);
    else
        ctx->complete(0);
}

void
sysSigaction(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    int sig = ctx->argInt(0);
    int action = ctx->argInt(1);
    if (sig <= 0 || sig >= 32 || sig == sys::SIGKILL) {
        ctx->completeErr(EINVAL);
        return;
    }
    t.sigDisp[sig] = static_cast<sys::SigDisposition>(action);
    ctx->complete(0);
}

void
sysGettimeofday(Kernel &, Task &, SyscallCtxPtr ctx)
{
    ctx->complete(jsvm::nowUs() / 1000);
}

void
sysPersonality(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    // §3.2: the runtime passes its heap SharedArrayBuffer plus the return
    // value offset and wake offset (we add a signal slot).
    jsvm::Value sab = ctx->argValue(0);
    if (!sab.isShared()) {
        ctx->completeErr(EINVAL);
        return;
    }
    t.heap = sab.asShared();
    t.retOff = ctx->argInt(1);
    t.waitOff = ctx->argInt(2);
    t.sigOff = ctx->argInt(3);
    ctx->complete(0);
}

void
sysRingPersonality(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    // Ring convention: the runtime reserves a SQ/CQ region inside its
    // already-registered personality heap and hands over (offset,
    // entries). See runtime/syscall_ring.h for the layout contract.
    if (!t.heap) {
        ctx->completeErr(EINVAL); // sync personality must come first
        return;
    }
    if (t.ring.registered) {
        // One ring per process: silently replacing it would orphan SQEs
        // already written to the old region (and any facade still
        // submitting there would park forever).
        ctx->completeErr(EBUSY);
        return;
    }
    int32_t off = ctx->argInt(0);
    int32_t entries = ctx->argInt(1);
    if (!sys::RingLayout::valid(off, entries, t.heap->size())) {
        ctx->completeErr(EINVAL);
        return;
    }
    t.ring = Task::RingState{};
    t.ring.registered = true;
    t.ring.off = off;
    t.ring.entries = entries;
    ctx->complete(0);
}

// ---------- file I/O ----------

void
sysOpen(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    std::string path = resolvePath(t, ctx->argStr(0));
    int oflags = ctx->argInt(1);
    uint32_t mode = static_cast<uint32_t>(ctx->argInt(2));
    int pid = t.pid;

    k.fs().stat(path, [&k, pid, path, oflags, mode,
                       ctx](int serr, const bfs::Stat &st) {
        if (serr == 0 && st.isDir()) {
            if (bfs::flags::wantsWrite(oflags)) {
                ctx->completeErr(EISDIR);
                return;
            }
            Task *t2 = k.task(pid);
            if (!t2 || t2->state == TaskState::Zombie)
                return;
            int fd = t2->allocFd();
            t2->files[fd] = std::make_shared<DirFile>(&k.fs(), path);
            ctx->complete(fd);
            return;
        }
        k.fs().open(path, oflags, mode, [&k, pid, oflags,
                                         ctx](int err, bfs::OpenFilePtr f) {
            if (err) {
                ctx->completeErr(err);
                return;
            }
            Task *t2 = k.task(pid);
            if (!t2 || t2->state == TaskState::Zombie) {
                f->close();
                return;
            }
            int fd = t2->allocFd();
            t2->files[fd] = std::make_shared<RegularFile>(
                f, (oflags & bfs::flags::APPEND) != 0);
            ctx->complete(fd);
        });
    });
}

void
sysClose(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    int fd = ctx->argInt(0);
    KFilePtr f = getFile(t, fd);
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    t.files.erase(fd);
    f->unref();
    ctx->complete(0);
}

void
sysRead(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    int fd = ctx->argInt(0);
    size_t len = static_cast<uint32_t>(
        ctx->isSync() ? ctx->argInt(2) : ctx->argInt(1));
    KFilePtr f = getFile(t, fd);
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    if (ctx->isSync()) {
        // Zero-copy: resolve the guest destination up front and let the
        // file (ultimately the backend) fill it in place.
        SyscallCtx::HeapSpan dst = ctx->heapSpan(1, len);
        if (!dst.ok()) {
            ctx->completeErr(EFAULT);
            return;
        }
        f->readInto(dst.span, [ctx, f, dst](int err, size_t n) {
            if (err) {
                ctx->completeErr(err);
                return;
            }
            // Never report more than the window: a backend overriding
            // preadInto could lie about its count, and the runtime reads
            // exactly `n` bytes back out of the heap.
            ctx->completeFilled(
                static_cast<int64_t>(std::min(n, dst.span.len)),
                f->spanIoDirect());
        });
        return;
    }
    f->read(len, [ctx, f](int err, bfs::BufferPtr data) {
        if (err) {
            ctx->completeErr(err);
            return;
        }
        ctx->completeData(*data, 1);
    });
}

/**
 * POSIX: a write that fails with EPIPE also raises SIGPIPE in the
 * writer. Delivery goes through the regular signal path — SIG_IGN
 * leaves the plain EPIPE return, a handler runs it, and the default
 * disposition terminates the process. The task is re-looked-up by pid:
 * for a parked (deferred-CQE) writer the EPIPE may arrive from another
 * process's close long after the handler's Task& went stale.
 */
void
raiseSigpipe(Kernel &k, int pid)
{
    Task *t = k.task(pid);
    if (t && t->state != TaskState::Zombie)
        k.deliverSignal(*t, sys::SIGPIPE);
}

void
sysWrite(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    int fd = ctx->argInt(0);
    KFilePtr f = getFile(t, fd);
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    int pid = t.pid;
    if (ctx->isSync()) {
        // Zero-copy: resolve the guest source window up front and let
        // the file (ultimately the backend) consume it in place — the
        // write-direction mirror of sysRead, with no intermediate
        // argData Buffer. An out-of-heap window is EFAULT, matching the
        // ring drain validator.
        SyscallCtx::HeapConstSpan src = ctx->heapConstSpan(1, 2);
        if (!src.ok()) {
            ctx->completeErr(EFAULT);
            return;
        }
        f->writeFrom(src.span, [&k, pid, ctx, f, src](int err, size_t n) {
            if (err) {
                ctx->completeErr(err);
                if (err == EPIPE)
                    raiseSigpipe(k, pid);
                return;
            }
            // Never report more than the window: the runtime believes
            // exactly `n` bytes of its buffer were consumed.
            ctx->completeFilled(
                static_cast<int64_t>(std::min(n, src.span.len)),
                f->spanIoDirect());
        });
        return;
    }
    bfs::Buffer data = ctx->argData(1, 2);
    f->write(std::move(data), [&k, pid, ctx, f](int err, size_t n) {
        if (err) {
            ctx->completeErr(err);
            if (err == EPIPE)
                raiseSigpipe(k, pid);
            return;
        }
        ctx->complete(static_cast<int64_t>(n));
    });
}

void
sysPread(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    int fd = ctx->argInt(0);
    size_t len = static_cast<uint32_t>(
        ctx->isSync() ? ctx->argInt(2) : ctx->argInt(1));
    double off_arg = ctx->isSync() ? ctx->argNum(3) : ctx->argNum(2);
    if (off_arg < 0) {
        ctx->completeErr(EINVAL); // POSIX pread(2); see sysPwrite
        return;
    }
    uint64_t off = static_cast<uint64_t>(off_arg);
    KFilePtr f = getFile(t, fd);
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    if (ctx->isSync()) {
        SyscallCtx::HeapSpan dst = ctx->heapSpan(1, len);
        if (!dst.ok()) {
            ctx->completeErr(EFAULT);
            return;
        }
        f->preadInto(off, dst.span, [ctx, f, dst](int err, size_t n) {
            if (err) {
                ctx->completeErr(err);
                return;
            }
            ctx->completeFilled(
                static_cast<int64_t>(std::min(n, dst.span.len)),
                f->spanIoDirect());
        });
        return;
    }
    f->pread(off, len, [ctx, f](int err, bfs::BufferPtr data) {
        if (err) {
            ctx->completeErr(err);
            return;
        }
        ctx->completeData(*data, 1);
    });
}

void
sysPwrite(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    int fd = ctx->argInt(0);
    double off_arg = ctx->isSync() ? ctx->argNum(3) : ctx->argNum(2);
    if (off_arg < 0) {
        // POSIX EINVAL — and a safety boundary: a negative offset cast
        // to uint64 would wrap backend `off + len` arithmetic and send
        // a memcpy through a wild pointer.
        ctx->completeErr(EINVAL);
        return;
    }
    uint64_t off = static_cast<uint64_t>(off_arg);
    KFilePtr f = getFile(t, fd);
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    if (ctx->isSync()) {
        SyscallCtx::HeapConstSpan src = ctx->heapConstSpan(1, 2);
        if (!src.ok()) {
            ctx->completeErr(EFAULT);
            return;
        }
        f->pwriteFrom(off, src.span, [ctx, f, src](int err, size_t n) {
            if (err) {
                ctx->completeErr(err);
                return;
            }
            ctx->completeFilled(
                static_cast<int64_t>(std::min(n, src.span.len)),
                f->spanIoDirect());
        });
        return;
    }
    f->pwrite(off, ctx->argData(1, 2), [ctx, f](int err, size_t n) {
        if (err) {
            ctx->completeErr(err);
            return;
        }
        ctx->complete(static_cast<int64_t>(n));
    });
}

void
sysLlseek(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    int fd = ctx->argInt(0);
    int64_t off = static_cast<int64_t>(ctx->argNum(1));
    int whence = ctx->argInt(2);
    KFilePtr f = getFile(t, fd);
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    f->seek(off, whence, [ctx, f](int64_t result) { ctx->complete(result); });
}

void
sysGetdents(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    int fd = ctx->argInt(0);
    size_t len = static_cast<uint32_t>(
        ctx->isSync() ? ctx->argInt(2) : ctx->argInt(1));
    KFilePtr f = getFile(t, fd);
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    if (ctx->isSync()) {
        // Zero-copy: the directory encodes its records straight into the
        // guest window instead of the clamped bounce copy completeData
        // used to make.
        SyscallCtx::HeapSpan dst = ctx->heapSpan(1, len);
        if (!dst.ok()) {
            ctx->completeErr(EFAULT);
            return;
        }
        f->getdentsInto(dst.span, [ctx, f, dst](int err, size_t n) {
            if (err) {
                ctx->completeErr(err);
                return;
            }
            ctx->completeFilled(
                static_cast<int64_t>(std::min(n, dst.span.len)),
                f->spanIoDirect());
        });
        return;
    }
    f->getdents(len, [ctx, f](int err, bfs::BufferPtr data) {
        if (err) {
            ctx->completeErr(err);
            return;
        }
        ctx->completeData(*data, 1, -1);
    });
}

// ---------- vectored I/O (readv/writev/preadv/pwritev) ----------

/**
 * Resolve the iovec-array argument (ptr at arg 1, count at arg 2; see
 * sys::IoVec for the layout) into bounds-checked heap spans, merging
 * adjacent iovs that are contiguous in the heap so the drive loop issues
 * one backend call per contiguous run. Returns 0 and fills `out`, or the
 * errno to complete with: EINVAL for a count outside [1, kIovMax],
 * EFAULT for any byte — of the array or of an iov's span — outside the
 * personality heap. Shared-heap conventions only.
 */
int
resolveIovs(Task &t, const SyscallCtxPtr &ctx,
            std::vector<bfs::ByteSpan> &out)
{
    if (!t.heap)
        return EFAULT;
    int32_t cnt = ctx->argInt(2);
    if (cnt < 1 || cnt > sys::kIovMax)
        return EINVAL;
    size_t heap_len = t.heap->size();
    size_t arr = static_cast<uint32_t>(ctx->argInt(1));
    size_t arr_bytes = static_cast<size_t>(cnt) * sys::IOVEC_BYTES;
    if (ctx->argInt(1) < 0 || arr > heap_len ||
        arr_bytes > heap_len - arr)
        return EFAULT;
    uint8_t *heap = t.heap->data();
    out.clear();
    out.reserve(static_cast<size_t>(cnt));
    for (int32_t i = 0; i < cnt; i++) {
        sys::IoVec iov;
        std::memcpy(&iov, heap + arr + i * sys::IOVEC_BYTES,
                    sys::IOVEC_BYTES);
        size_t off = static_cast<uint32_t>(iov.ptr);
        size_t len = static_cast<uint32_t>(iov.len);
        if (iov.ptr < 0 || iov.len < 0 || off > heap_len ||
            len > heap_len - off)
            return EFAULT;
        if (len == 0)
            continue; // zero-length iovs contribute nothing
        uint8_t *data = heap + off;
        if (!out.empty() && out.back().data + out.back().len == data)
            out.back().len += len; // coalesce a contiguous run
        else
            out.push_back(bfs::ByteSpan{data, len});
    }
    return 0;
}

/**
 * One in-flight vectored call: drives one zero-copy file operation per
 * contiguous run, accumulating POSIX short-count semantics — a run that
 * moves fewer bytes than its span (EOF, backend short count) or an error
 * after partial progress completes with the bytes moved so far; an error
 * on the first run is the call's error.
 */
struct VectoredIo : std::enable_shared_from_this<VectoredIo>
{
    SyscallCtxPtr ctx;
    KFilePtr f;
    Kernel *k = nullptr; ///< for SIGPIPE on EPIPE write completions
    int pid = 0;
    jsvm::SabPtr heap; ///< pins the spans' backing memory
    std::vector<bfs::ByteSpan> spans;
    size_t i = 0;
    uint64_t done = 0;
    bool positional = false;
    bool writing = false;
    uint64_t off = 0;

    void
    step()
    {
        if (i >= spans.size()) {
            ctx->completeFilled(static_cast<int64_t>(done),
                                f->spanIoDirect());
            return;
        }
        bfs::ByteSpan span = spans[i];
        auto self = shared_from_this();
        bfs::SizeCb finish = [self](int err, size_t n) {
            bfs::ByteSpan cur = self->spans[self->i];
            n = std::min(n, cur.len);
            if (err) {
                if (self->done > 0)
                    self->ctx->completeFilled(
                        static_cast<int64_t>(self->done),
                        self->f->spanIoDirect());
                else {
                    self->ctx->completeErr(err);
                    // A call that *completes* EPIPE raises SIGPIPE;
                    // partial progress returns the short count instead.
                    if (self->writing && err == EPIPE && self->k)
                        raiseSigpipe(*self->k, self->pid);
                }
                return;
            }
            self->done += n;
            if (n < cur.len) { // short run ends the call
                self->ctx->completeFilled(
                    static_cast<int64_t>(self->done),
                    self->f->spanIoDirect());
                return;
            }
            self->i++;
            self->step();
        };
        if (writing) {
            bfs::ConstByteSpan src{span.data, span.len};
            if (positional)
                f->pwriteFrom(off + done, src, std::move(finish));
            else
                f->writeFrom(src, std::move(finish));
        } else {
            if (positional)
                f->preadInto(off + done, span, std::move(finish));
            else
                f->readInto(span, std::move(finish));
        }
    }
};

void
vectoredCommon(Kernel &k, Task &t, SyscallCtxPtr ctx, bool positional,
               bool writing)
{
    if (!ctx->isSync()) {
        // The iovec encoding is heap-offset based; the async convention
        // has no personality heap for the entries to point into.
        ctx->completeErr(ENOSYS);
        return;
    }
    KFilePtr f = getFile(t, ctx->argInt(0));
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    auto io = std::make_shared<VectoredIo>();
    int rc = resolveIovs(t, ctx, io->spans);
    if (rc) {
        ctx->completeErr(rc);
        return;
    }
    io->positional = positional;
    io->writing = writing;
    if (positional) {
        double off_arg = ctx->argNum(3);
        if (off_arg < 0) { // see sysPwrite: EINVAL before the cast wraps
            ctx->completeErr(EINVAL);
            return;
        }
        io->off = static_cast<uint64_t>(off_arg);
    }
    io->ctx = std::move(ctx);
    io->f = std::move(f);
    io->k = &k;
    io->pid = t.pid;
    io->heap = t.heap;
    io->step();
}

void
sysReadv(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    vectoredCommon(k, t, std::move(ctx), false, false);
}

void
sysWritev(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    vectoredCommon(k, t, std::move(ctx), false, true);
}

void
sysPreadv(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    vectoredCommon(k, t, std::move(ctx), true, false);
}

void
sysPwritev(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    vectoredCommon(k, t, std::move(ctx), true, true);
}

void
sysReaddir(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    // Async convenience used by the Node runtime: names as an array.
    std::string path = resolvePath(t, ctx->argStr(0));
    k.fs().readdir(path, [ctx](int err, std::vector<bfs::DirEntry> es) {
        if (err) {
            ctx->completeErr(err);
            return;
        }
        jsvm::Value names = jsvm::Value::array();
        for (const auto &e : es)
            names.push(jsvm::Value(e.name));
        ctx->completeValue(static_cast<int64_t>(es.size()),
                           std::move(names));
    });
}

void
sysDup(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    KFilePtr f = getFile(t, ctx->argInt(0));
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    int fd = t.allocFd();
    f->ref();
    t.files[fd] = f;
    ctx->complete(fd);
}

void
sysDup2(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    int oldfd = ctx->argInt(0);
    int newfd = ctx->argInt(1);
    KFilePtr f = getFile(t, oldfd);
    if (!f || newfd < 0) {
        ctx->completeErr(EBADF);
        return;
    }
    if (oldfd == newfd) {
        ctx->complete(newfd);
        return;
    }
    if (KFilePtr old = getFile(t, newfd)) {
        t.files.erase(newfd);
        old->unref();
    }
    f->ref();
    t.files[newfd] = f;
    ctx->complete(newfd);
}

void
sysIoctl(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    KFilePtr f = getFile(t, ctx->argInt(0));
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    // Only the isatty probe (TCGETS) is supported.
    ctx->complete(f->isTty() ? 0 : -ENOTTY);
}

// ---------- file metadata & directories ----------

void
statCommon(Kernel &k, Task &t, SyscallCtxPtr ctx, bool follow)
{
    std::string path = resolvePath(t, ctx->argStr(0));
    auto cb = [ctx](int err, const bfs::Stat &st) {
        if (err) {
            ctx->completeErr(err);
            return;
        }
        ctx->completeStat(sys::statXFromBfs(st), 1);
    };
    if (follow)
        k.fs().stat(path, cb);
    else
        k.fs().lstat(path, cb);
}

void
sysStat(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    statCommon(k, t, ctx, true);
}

void
sysLstat(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    statCommon(k, t, ctx, false);
}

void
sysFstat(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    KFilePtr f = getFile(t, ctx->argInt(0));
    if (!f) {
        ctx->completeErr(EBADF);
        return;
    }
    f->fstat([ctx, f](int err, const bfs::Stat &st) {
        if (err) {
            ctx->completeErr(err);
            return;
        }
        ctx->completeStat(sys::statXFromBfs(st), 1);
    });
}

void
sysAccess(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    std::string path = resolvePath(t, ctx->argStr(0));
    k.fs().access(path, ctx->argInt(1), [ctx](int err) {
        if (err)
            ctx->completeErr(err);
        else
            ctx->complete(0);
    });
}

void
sysUnlink(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    k.fs().unlink(resolvePath(t, ctx->argStr(0)), [ctx](int err) {
        if (err)
            ctx->completeErr(err);
        else
            ctx->complete(0);
    });
}

void
sysMkdir(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    k.fs().mkdir(resolvePath(t, ctx->argStr(0)),
                 static_cast<uint32_t>(ctx->argInt(1)), [ctx](int err) {
                     if (err)
                         ctx->completeErr(err);
                     else
                         ctx->complete(0);
                 });
}

void
sysRmdir(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    k.fs().rmdir(resolvePath(t, ctx->argStr(0)), [ctx](int err) {
        if (err)
            ctx->completeErr(err);
        else
            ctx->complete(0);
    });
}

void
sysRename(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    k.fs().rename(resolvePath(t, ctx->argStr(0)),
                  resolvePath(t, ctx->argStr(1)), [ctx](int err) {
                      if (err)
                          ctx->completeErr(err);
                      else
                          ctx->complete(0);
                  });
}

void
sysReadlink(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    if (ctx->isSync()) {
        // POSIX readlink(2): silently truncate to bufsiz — no ERANGE, no
        // NUL terminator — and return the number of bytes placed.
        // (completeStr's ERANGE is getcwd's contract, not readlink's.)
        int32_t bufsiz = ctx->argInt(2);
        if (bufsiz <= 0) {
            ctx->completeErr(EINVAL);
            return;
        }
        SyscallCtx::HeapSpan dst =
            ctx->heapSpan(1, static_cast<uint32_t>(bufsiz));
        if (!dst.ok()) {
            ctx->completeErr(EFAULT);
            return;
        }
        k.fs().readlink(
            resolvePath(t, ctx->argStr(0)),
            [ctx, dst](int err, const std::string &target) {
                if (err) {
                    ctx->completeErr(err);
                    return;
                }
                size_t n = std::min(target.size(), dst.span.len);
                if (n > 0)
                    std::memcpy(dst.span.data, target.data(), n);
                ctx->completeFilled(static_cast<int64_t>(n));
            });
        return;
    }
    k.fs().readlink(resolvePath(t, ctx->argStr(0)),
                    [ctx](int err, const std::string &target) {
                        if (err) {
                            ctx->completeErr(err);
                            return;
                        }
                        ctx->completeStr(target, 1, 2);
                    });
}

void
sysSymlink(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    k.fs().symlink(ctx->argStr(0), resolvePath(t, ctx->argStr(1)),
                   [ctx](int err) {
                       if (err)
                           ctx->completeErr(err);
                       else
                           ctx->complete(0);
                   });
}

void
sysUtimes(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    int64_t atime = static_cast<int64_t>(ctx->argNum(1));
    int64_t mtime = static_cast<int64_t>(ctx->argNum(2));
    if (ctx->isSync()) { // seconds in the sync convention
        atime *= 1000000;
        mtime *= 1000000;
    }
    k.fs().utimes(resolvePath(t, ctx->argStr(0)), atime, mtime,
                  [ctx](int err) {
                      if (err)
                          ctx->completeErr(err);
                      else
                          ctx->complete(0);
                  });
}

// ---------- pipes ----------

void
sysPipe2(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    auto pipe = std::make_shared<Pipe>();
    int rfd = t.allocFd();
    t.files[rfd] = std::make_shared<PipeEndFile>(pipe, true);
    int wfd = t.allocFd();
    t.files[wfd] = std::make_shared<PipeEndFile>(pipe, false);
    if (ctx->isSync()) {
        int32_t fds[2] = {rfd, wfd};
        bfs::Buffer out(8);
        std::memcpy(out.data(), fds, 8);
        ctx->completeData(out, 0); // fds written at the pointer arg
    } else {
        ctx->complete(rfd, wfd);
    }
}

// ---------- sockets ----------

void
sysSocket(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    int fd = t.allocFd();
    t.files[fd] = std::make_shared<SocketFile>();
    ctx->complete(fd);
}

void
sysBind(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    auto *sock = dynamic_cast<SocketFile *>(getFile(t, ctx->argInt(0)).get());
    if (!sock) {
        ctx->completeErr(ENOTSOCK);
        return;
    }
    int port = k.net().allocBindPort(ctx->argInt(1));
    if (port < 0) {
        ctx->completeErr(-port);
        return;
    }
    int rc = sock->bind(port);
    if (rc)
        ctx->completeErr(rc);
    else
        ctx->complete(0);
}

void
sysListen(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    auto sock =
        std::dynamic_pointer_cast<SocketFile>(getFile(t, ctx->argInt(0)));
    if (!sock) {
        ctx->completeErr(ENOTSOCK);
        return;
    }
    if (k.net().portListening(sock->port())) {
        ctx->completeErr(EADDRINUSE);
        return;
    }
    int rc = sock->listen(ctx->argInt(1));
    if (rc) {
        ctx->completeErr(rc);
        return;
    }
    // Socket notification (§4.1): tell the web application the server is
    // ready, so it need not poll.
    int port = sock->port();
    k.notifyListen(port, std::move(sock));
    ctx->complete(0);
}

void
sysAccept(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    auto file = getFile(t, ctx->argInt(0));
    auto *sock = dynamic_cast<SocketFile *>(file.get());
    if (!sock) {
        ctx->completeErr(ENOTSOCK);
        return;
    }
    int pid = t.pid;
    // The waiter is stored in the listener and runs only from its methods,
    // so it must not own the listener: a cycle no unfinished accept frees.
    sock->accept([&k, pid, ctx](int err, SocketFilePtr peer) {
        if (err) {
            ctx->completeErr(err);
            return;
        }
        Task *t2 = k.task(pid);
        if (!t2 || t2->state == TaskState::Zombie)
            return; // peer collapses when its pipes are dropped
        int fd = t2->allocFd();
        t2->files[fd] = peer;
        ctx->complete(fd, peer->remotePort());
    });
}

void
sysConnect(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    auto sock =
        std::dynamic_pointer_cast<SocketFile>(getFile(t, ctx->argInt(0)));
    if (!sock) {
        ctx->completeErr(ENOTSOCK);
        return;
    }
    // The rendezvous may park (live listener, backlog full) — the
    // completion then rides the deferral protocol and lands when accept
    // frees a slot (0) or the listener closes (ECONNREFUSED). Immediate
    // outcomes run the callback before connectOrPark returns.
    k.connectOrPark(std::move(sock), ctx->argInt(1), [ctx](int err) {
        if (err)
            ctx->completeErr(err);
        else
            ctx->complete(0);
    });
}

void
sysGetsockname(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    auto *sock = dynamic_cast<SocketFile *>(getFile(t, ctx->argInt(0)).get());
    if (!sock) {
        ctx->completeErr(ENOTSOCK);
        return;
    }
    ctx->complete(sock->port());
}

void
sysShutdown(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    auto *sock = dynamic_cast<SocketFile *>(getFile(t, ctx->argInt(0)).get());
    if (!sock) {
        ctx->completeErr(ENOTSOCK);
        return;
    }
    int rc = sock->shutdown(ctx->argInt(1));
    if (rc)
        ctx->completeErr(rc);
    else
        ctx->complete(0);
}

// ---------- poll (readiness over the deferral protocol) ----------

/** Readiness mask for one polled descriptor. POLLHUP/POLLERR report
 * regardless of the requested events, POSIX-style. Descriptor kinds
 * without a wait condition (regular files, ttys, /dev/null) are always
 * ready for whatever was asked. */
int16_t
pollRevents(KFile *f, int16_t events)
{
    int16_t r = 0;
    if (auto *pe = dynamic_cast<PipeEndFile *>(f)) {
        PipePtr p = pe->pipe();
        if (pe->isReader()) {
            if ((events & sys::POLLIN_) &&
                (p->buffered() > 0 || p->writerClosed()))
                r |= sys::POLLIN_;
            if (p->writerClosed())
                r |= sys::POLLHUP_;
        } else {
            if ((events & sys::POLLOUT_) &&
                p->buffered() < p->capacity())
                r |= sys::POLLOUT_;
            if (p->readerClosed())
                r |= sys::POLLERR_;
        }
        return r;
    }
    if (auto *sock = dynamic_cast<SocketFile *>(f)) {
        if ((events & sys::POLLIN_) && sock->readable())
            r |= sys::POLLIN_;
        if ((events & sys::POLLOUT_) && sock->writable())
            r |= sys::POLLOUT_;
        return r;
    }
    return events & (sys::POLLIN_ | sys::POLLOUT_);
}

/**
 * The poll-shaped readiness trap (shared-heap conventions only): one
 * SQE covers the whole fd set. Records are re-read from the guest
 * window on every evaluation — the set lives in the caller's heap for
 * the life of the call. When nothing is ready the completion parks
 * against every polled pipe/socket's one-shot readiness watcher; the
 * first event re-evaluates and pushes the deferred CQE (ready count in
 * r0, revents written in place). A spurious wake — the watcher fired
 * but another poller consumed the event first — re-arms the watchers,
 * so a parked poll is never stranded.
 */
void
sysPoll(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    if (!ctx->isSync()) {
        ctx->completeErr(ENOSYS); // record layout needs the shared heap
        return;
    }
    int32_t nfds = ctx->argInt(1);
    if (nfds < 1 || nfds > sys::kPollMaxFds) {
        ctx->completeErr(EINVAL);
        return;
    }
    SyscallCtx::HeapSpan recs = ctx->heapSpan(
        0, static_cast<size_t>(nfds) * sys::POLLFD_BYTES);
    if (!recs.ok()) {
        ctx->completeErr(EFAULT);
        return;
    }
    int pid = t.pid;

    // Evaluate the whole set: write revents in place, complete with the
    // ready count when any descriptor is ready. Returns true when the
    // call is finished (completed, or its task died — the parked SQE
    // dies with it; finishRing no-ops on a dead task).
    auto attempt = [&k, pid, ctx, recs, nfds]() -> bool {
        Task *t2 = k.task(pid);
        if (!t2 || t2->state == TaskState::Zombie)
            return true;
        int ready = 0;
        for (int32_t i = 0; i < nfds; i++) {
            uint8_t *rec = recs.span.data + i * sys::POLLFD_BYTES;
            sys::PollFd p;
            std::memcpy(&p, rec, sys::POLLFD_BYTES);
            KFilePtr f = getFile(*t2, p.fd);
            p.revents =
                f ? pollRevents(f.get(), p.events) : sys::POLLNVAL_;
            std::memcpy(rec, &p, sys::POLLFD_BYTES);
            if (p.revents)
                ready++;
        }
        if (ready == 0)
            return false;
        ctx->complete(ready);
        return true;
    };
    if (attempt())
        return;

    // Park: one-shot watchers on every waitable descriptor, sharing one
    // wake that re-evaluates the set and, on a spurious wake, re-arms.
    // Each turn builds its wake holding the loop strongly; the loop does
    // not hold the wake, so no cycle outlives the watchers.
    auto registerAll = jsvm::AsyncLoop<>::make([&k, pid, ctx, attempt, recs,
                                                nfds](const auto &self) {
        Task *t2 = k.task(pid);
        if (!t2 || t2->state == TaskState::Zombie)
            return;
        auto wake = [ctx, attempt, self]() {
            if (ctx->completed())
                return;
            if (!attempt())
                (*self)();
        };
        for (int32_t i = 0; i < nfds; i++) {
            sys::PollFd p;
            std::memcpy(&p, recs.span.data + i * sys::POLLFD_BYTES,
                        sys::POLLFD_BYTES);
            KFilePtr f = getFile(*t2, p.fd);
            if (!f)
                continue;
            if (auto *pe = dynamic_cast<PipeEndFile *>(f.get())) {
                // Readers watch readability even when events omit
                // POLLIN (the HUP wake); writers mirror with POLLERR.
                if (pe->isReader())
                    pe->pipe()->watchReadable(wake);
                else
                    pe->pipe()->watchWritable(wake);
            } else if (auto *sock =
                           dynamic_cast<SocketFile *>(f.get())) {
                if (p.events & sys::POLLOUT_)
                    sock->watchWritable(wake);
                if ((p.events & sys::POLLIN_) || !(p.events & sys::POLLOUT_))
                    sock->watchReadable(wake);
            }
        }
    });
    (*registerAll)();
}

// ---------- epoll (stateful readiness over the deferral protocol) ----------

void
sysEpollCreate(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    int fd = t.allocFd();
    t.files[fd] = std::make_shared<EpollFile>();
    ctx->complete(fd);
}

void
sysEpollCtl(Kernel &, Task &t, SyscallCtxPtr ctx)
{
    auto *ep = dynamic_cast<EpollFile *>(getFile(t, ctx->argInt(0)).get());
    if (!ep) {
        ctx->completeErr(EINVAL);
        return;
    }
    int op = ctx->argInt(1);
    int fd = ctx->argInt(2);
    if (op == sys::EPOLL_CTL_ADD_ && !getFile(t, fd)) {
        ctx->completeErr(EBADF);
        return;
    }
    int rc = ep->ctl(op, fd, ctx->argInt(3));
    if (rc)
        ctx->completeErr(rc);
    else
        ctx->complete(0);
}

/**
 * epoll_wait over the kernel-side interest list (shared-heap conventions
 * only): (epfd, events_ptr, maxevents). Unlike poll, nothing is
 * re-marshalled per call — the registered set lives in the EpollFile and
 * only ready EpollEvent records travel back through the guest window.
 * Readiness is level-triggered; when nothing is ready the completion
 * parks against every registered object's one-shot watcher (same
 * re-arming shape as sysPoll's) and the CQE is deferred. A registered fd
 * that has since been closed reports POLLERR_|POLLHUP_ — the descriptor
 * table has no close-time back-pointers to epoll sets, so the caller
 * prunes it with EPOLL_CTL_DEL_.
 */
void
sysEpollWait(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    if (!ctx->isSync()) {
        ctx->completeErr(ENOSYS); // record layout needs the shared heap
        return;
    }
    int32_t maxevents = ctx->argInt(2);
    if (maxevents < 1 || maxevents > sys::kEpollMaxEvents) {
        ctx->completeErr(EINVAL);
        return;
    }
    auto ep =
        std::dynamic_pointer_cast<EpollFile>(getFile(t, ctx->argInt(0)));
    if (!ep) {
        ctx->completeErr(EINVAL);
        return;
    }
    SyscallCtx::HeapSpan recs = ctx->heapSpan(
        1, static_cast<size_t>(maxevents) * sys::EPOLL_EVENT_BYTES);
    if (!recs.ok()) {
        ctx->completeErr(EFAULT);
        return;
    }
    int pid = t.pid;

    // Evaluate the interest list: write ready records, complete with the
    // count. Returns true when the call is finished (completed, or its
    // task died — finishRing no-ops on a dead task).
    auto attempt = [&k, pid, ctx, ep, recs, maxevents]() -> bool {
        Task *t2 = k.task(pid);
        if (!t2 || t2->state == TaskState::Zombie)
            return true;
        int32_t ready = 0;
        for (const auto &[fd, mask] : ep->interest()) {
            if (ready >= maxevents)
                break;
            KFilePtr f = getFile(*t2, fd);
            int16_t r =
                f ? pollRevents(f.get(), static_cast<int16_t>(mask))
                  : static_cast<int16_t>(sys::POLLERR_ | sys::POLLHUP_);
            if (!r)
                continue;
            sys::EpollEvent ev;
            ev.events = r;
            ev.fd = fd;
            std::memcpy(recs.span.data + ready * sys::EPOLL_EVENT_BYTES,
                        &ev, sys::EPOLL_EVENT_BYTES);
            ready++;
        }
        if (ready == 0)
            return false;
        ctx->complete(ready);
        return true;
    };
    if (attempt())
        return;

    k.statsMut().epollWaitsParked++;
    // Same cycle-free re-arming shape as sysPoll's.
    auto registerAll = jsvm::AsyncLoop<>::make([&k, pid, ctx, attempt,
                                                ep](const auto &self) {
        Task *t2 = k.task(pid);
        if (!t2 || t2->state == TaskState::Zombie)
            return;
        auto wake = [ctx, attempt, self]() {
            if (ctx->completed())
                return;
            if (!attempt())
                (*self)();
        };
        for (const auto &[fd, mask] : ep->interest()) {
            KFilePtr f = getFile(*t2, fd);
            if (!f)
                continue;
            if (auto *pe = dynamic_cast<PipeEndFile *>(f.get())) {
                // Readers watch readability even when the mask omits
                // POLLIN (the HUP wake); writers mirror with POLLERR.
                if (pe->isReader())
                    pe->pipe()->watchReadable(wake);
                else
                    pe->pipe()->watchWritable(wake);
            } else if (auto *sock = dynamic_cast<SocketFile *>(f.get())) {
                if (mask & sys::POLLOUT_)
                    sock->watchWritable(wake);
                if ((mask & sys::POLLIN_) || !(mask & sys::POLLOUT_))
                    sock->watchReadable(wake);
            }
        }
    });
    (*registerAll)();
}

// ---------- sendfile (file → pipe/socket, kernel-side) ----------

/**
 * One in-flight sendfile: drives preadInto → writeFrom through a kernel
 * staging buffer in 64KiB chunks, so the payload never touches the guest
 * heap — the capstone of the deferral protocol, since a full pipe parks
 * the writeFrom kernel-side and the CQE arrives deferred. A short or
 * empty read is EOF (complete with the bytes moved so far); an error
 * after partial progress is a short count; an error on zero progress is
 * the call's error, with EPIPE raising SIGPIPE like a plain write.
 */
struct SendfileIo : std::enable_shared_from_this<SendfileIo>
{
    static constexpr size_t kChunk = 64 * 1024;

    SyscallCtxPtr ctx;
    KFilePtr in, out;
    Kernel *k = nullptr;
    int pid = 0;
    uint64_t off = 0;
    uint64_t count = 0;
    uint64_t done = 0;
    bfs::Buffer staging;

    void
    step()
    {
        uint64_t left = count - done;
        if (left == 0) {
            finish();
            return;
        }
        size_t chunk =
            static_cast<size_t>(std::min<uint64_t>(left, kChunk));
        staging.resize(chunk);
        auto self = shared_from_this();
        in->preadInto(
            off + done, bfs::ByteSpan{staging.data(), chunk},
            [self, chunk](int err, size_t got) {
                got = std::min(got, chunk);
                if (err) {
                    if (self->done > 0)
                        self->finish();
                    else
                        self->ctx->completeErr(err);
                    return;
                }
                if (got == 0) { // EOF: the short count callers loop on
                    self->finish();
                    return;
                }
                bool eof = got < chunk;
                self->out->writeFrom(
                    bfs::ConstByteSpan{self->staging.data(), got},
                    [self, got, eof](int werr, size_t n) {
                        n = std::min(n, got);
                        if (werr) {
                            if (self->done > 0)
                                self->finish();
                            else {
                                self->ctx->completeErr(werr);
                                if (werr == EPIPE && self->k)
                                    raiseSigpipe(*self->k, self->pid);
                            }
                            return;
                        }
                        self->done += n;
                        if (eof || n < got) {
                            self->finish();
                            return;
                        }
                        self->step();
                    });
            });
    }

    void
    finish()
    {
        if (k)
            k->statsMut().sendfileBytes += done;
        ctx->complete(static_cast<int64_t>(done));
    }
};

void
sysSendfile(Kernel &k, Task &t, SyscallCtxPtr ctx)
{
    // (out_fd, in_fd, off, count): all-integer arguments, so the trap
    // works identically under every convention and needs no pointer
    // validation at ring drain time.
    KFilePtr out = getFile(t, ctx->argInt(0));
    KFilePtr in = getFile(t, ctx->argInt(1));
    if (!out || !in) {
        ctx->completeErr(EBADF);
        return;
    }
    double off_arg = ctx->argNum(2);
    int64_t cnt = static_cast<int64_t>(ctx->argNum(3));
    if (off_arg < 0 || cnt < 0) {
        ctx->completeErr(EINVAL); // see sysPwrite: reject before the cast
        return;
    }
    if (cnt == 0) {
        ctx->complete(0);
        return;
    }
    auto io = std::make_shared<SendfileIo>();
    io->ctx = std::move(ctx);
    io->in = std::move(in);
    io->out = std::move(out);
    io->k = &k;
    io->pid = t.pid;
    io->off = static_cast<uint64_t>(off_arg);
    io->count = static_cast<uint64_t>(cnt);
    io->step();
}

const std::map<std::string, Handler> &
handlerTable()
{
    static const std::map<std::string, Handler> table = {
        {"exit", sysExit},
        {"fork", sysFork},
        {"spawn", sysSpawn},
        {"execve", sysExecve},
        {"wait4", sysWait4},
        {"getpid", sysGetpid},
        {"getppid", sysGetppid},
        {"getcwd", sysGetcwd},
        {"chdir", sysChdir},
        {"kill", sysKill},
        {"sigaction", sysSigaction},
        {"gettimeofday", sysGettimeofday},
        {"personality", sysPersonality},
        {"ring_personality", sysRingPersonality},
        {"open", sysOpen},
        {"close", sysClose},
        {"read", sysRead},
        {"write", sysWrite},
        {"pread", sysPread},
        {"pwrite", sysPwrite},
        {"readv", sysReadv},
        {"writev", sysWritev},
        {"preadv", sysPreadv},
        {"pwritev", sysPwritev},
        {"llseek", sysLlseek},
        {"getdents", sysGetdents},
        {"getdents64", sysGetdents},
        {"readdir", sysReaddir},
        {"dup", sysDup},
        {"dup2", sysDup2},
        {"ioctl", sysIoctl},
        {"stat", sysStat},
        {"lstat", sysLstat},
        {"fstat", sysFstat},
        {"access", sysAccess},
        {"unlink", sysUnlink},
        {"mkdir", sysMkdir},
        {"rmdir", sysRmdir},
        {"rename", sysRename},
        {"readlink", sysReadlink},
        {"symlink", sysSymlink},
        {"utimes", sysUtimes},
        {"pipe2", sysPipe2},
        {"socket", sysSocket},
        {"bind", sysBind},
        {"listen", sysListen},
        {"accept", sysAccept},
        {"connect", sysConnect},
        {"getsockname", sysGetsockname},
        {"shutdown", sysShutdown},
        {"poll", sysPoll},
        {"epoll_create", sysEpollCreate},
        {"epoll_ctl", sysEpollCtl},
        {"epoll_wait", sysEpollWait},
        {"sendfile", sysSendfile},
    };
    return table;
}

} // namespace

void
Kernel::dispatchSyscall(Task &t, SyscallCtxPtr ctx)
{
    auto it = handlerTable().find(ctx->name());
    if (it == handlerTable().end()) {
        ctx->completeErr(ENOSYS);
        return;
    }
    it->second(*this, t, std::move(ctx));
}

void
Kernel::replyTo(Task &, const jsvm::Value &)
{
    // (folded into SyscallCtx; kept for interface stability)
}

} // namespace kernel
} // namespace browsix
