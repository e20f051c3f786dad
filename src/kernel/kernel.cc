#include "kernel/kernel.h"

#include <algorithm>
#include <utility>

#include "bfs/path.h"
#include "jsvm/util.h"
#include "kernel/syscall_ctx.h"
#include "runtime/syscall_ring.h"

namespace browsix {
namespace kernel {

Kernel::Kernel(jsvm::Browser &browser, bfs::VfsPtr vfs,
               net::NetBackendPtr net)
    : browser_(browser), vfs_(std::move(vfs)),
      net_(net ? std::move(net)
               : std::make_shared<net::LoopbackBackend>())
{
}

Kernel::~Kernel()
{
    forEachTask([](Task &t) {
        if (t.worker)
            t.worker->terminate();
    });
    // Retire the browser's pool before the Tasks (and their workers) are
    // destroyed: shutdown steps every queued worker so terminated guests
    // unwind. A Browser hosts a single Kernel.
    scheduler().shutdown();
}

void
Kernel::setPoolThreads(unsigned threads)
{
    if (taskCount() != 0)
        jsvm::panic("Kernel.setPoolThreads: processes already running");
    scheduler().resize(threads);
}

RunState
Kernel::runState(int pid)
{
    Task *t = task(pid);
    if (!t || t->state == TaskState::Zombie || !t->worker)
        return RunState::Zombie;
    switch (t->worker->runPhase()) {
      case jsvm::Worker::RunPhase::Queued:
        return RunState::Runnable;
      case jsvm::Worker::RunPhase::Parked:
        return RunState::Parked;
      case jsvm::Worker::RunPhase::Running:
        break;
    }
    return RunState::Running;
}

Task *
Kernel::task(int pid)
{
    return tasks_.find(pid);
}

std::vector<int>
Kernel::pids() const
{
    return tasks_.pids();
}

int
Kernel::allocPid()
{
    // The cursor hands out consecutive pids (round-robining the table's
    // bands) and wraps at kMaxPid. A pid still present in the table —
    // live or zombie — is skipped, so a long-lived session can never
    // hand out a duplicate.
    int pid = nextPid_;
    nextPid_ = nextPid_ >= kMaxPid ? 1 : nextPid_ + 1;
    if (!tasks_.find(pid))
        return pid; // fast path: the cursor pid is free
    // Collision: the cursor landed on a live pid (wraparound under a
    // well-populated table). Instead of probing one pid at a time,
    // consult the per-band free-pid hints — amortized O(1) even when
    // the table is nearly full.
    int band = TaskTable::bandOf(pid);
    for (int i = 0; i < TaskTable::kBands; i++) {
        int b = (band + i) & (TaskTable::kBands - 1);
        int p = tasks_.lowestFreeInBand(b, kMaxPid);
        if (p > 0) {
            nextPid_ = p >= kMaxPid ? 1 : p + 1;
            return p;
        }
    }
    return -EAGAIN; // kMaxPid live tasks: the table is genuinely full
}

void
Kernel::resolveExecutable(
    std::vector<std::string> argv, const std::string &cwd, int depth,
    std::function<void(int err, bfs::BufferPtr, std::vector<std::string>)>
        cb)
{
    if (argv.empty()) {
        cb(EINVAL, nullptr, {});
        return;
    }
    if (depth > 4) { // runaway shebang chain
        cb(ELOOP, nullptr, {});
        return;
    }
    std::string path = bfs::joinPath(cwd, argv[0]);
    vfs_->readFile(path, [this, argv = std::move(argv), cwd, depth, path,
                          cb](int err, bfs::BufferPtr data) mutable {
        if (err) {
            cb(err, nullptr, {});
            return;
        }
        argv[0] = path;
        // Shebang (§3.3): executables include "file[s] beginning with a
        // shebang line"; the kernel re-spawns the named interpreter.
        if (data->size() > 2 && (*data)[0] == '#' && (*data)[1] == '!') {
            size_t eol = 2;
            while (eol < data->size() && (*data)[eol] != '\n')
                eol++;
            std::string line(data->begin() + 2, data->begin() + eol);
            std::vector<std::string> words;
            std::string cur;
            for (char c : line) {
                if (c == ' ' || c == '\t' || c == '\r') {
                    if (!cur.empty()) {
                        words.push_back(cur);
                        cur.clear();
                    }
                } else {
                    cur.push_back(c);
                }
            }
            if (!cur.empty())
                words.push_back(cur);
            if (words.empty()) {
                cb(ENOEXEC, nullptr, {});
                return;
            }
            std::vector<std::string> next;
            if (bfs::basename(words[0]) == "env" && words.size() >= 2) {
                // "#!/usr/bin/env node": resolve the named program.
                next.push_back("/usr/bin/" + words[1]);
                next.insert(next.end(), words.begin() + 2, words.end());
            } else {
                next = words;
            }
            next.push_back(path); // the script itself
            next.insert(next.end(), argv.begin() + 1, argv.end());
            resolveExecutable(std::move(next), cwd, depth + 1, cb);
            return;
        }
        cb(0, std::move(data), std::move(argv));
    });
}

void
Kernel::doSpawn(Task *parent, std::vector<std::string> argv,
                std::map<std::string, std::string> env, std::string cwd,
                std::map<int, KFilePtr> fds, jsvm::Value snapshot,
                SpawnCb cb, ExitCb root_exit)
{
    int ppid = parent ? parent->pid : 0;
    // NPROC quota (charged up front, released on any failure path): a
    // child joins its parent's tenant counter; a root process starts a
    // fresh one. Checking before the async executable resolution keeps a
    // fork bomb from queueing unbounded spawn work.
    std::shared_ptr<int> nproc = parent ? parent->nproc : nullptr;
    if (nproc && *nproc >= nprocLimit_) {
        for (auto &[fd, f] : fds)
            f->unref();
        cb(-EAGAIN);
        return;
    }
    if (!nproc)
        nproc = std::make_shared<int>(0);
    ++*nproc;
    resolveExecutable(
        std::move(argv), cwd, 0,
        [this, ppid, nproc, env = std::move(env), cwd,
         fds = std::move(fds), snapshot = std::move(snapshot),
         cb = std::move(cb), root_exit = std::move(root_exit)](
            int err, bfs::BufferPtr code,
            std::vector<std::string> final_argv) mutable {
            if (err) {
                // Inherited descriptors were pre-referenced by the caller.
                for (auto &[fd, f] : fds)
                    f->unref();
                --*nproc;
                cb(-err);
                return;
            }
            if (!bootstrapper_)
                jsvm::panic("Kernel: no bootstrapper registered");

            int pid = allocPid();
            if (pid < 0) {
                for (auto &[fd, f] : fds)
                    f->unref();
                --*nproc;
                cb(pid);
                return;
            }
            std::string url =
                browser_.blobs().createObjectUrl(std::move(code));
            auto worker = browser_.createWorker(url, bootstrapper_);

            auto t = std::make_unique<Task>();
            t->pid = pid;
            t->ppid = ppid;
            t->worker = worker;
            t->cwd = cwd.empty() ? "/" : bfs::normalizePath(cwd);
            t->files = std::move(fds);
            t->argv = final_argv;
            t->env = env;
            t->blobUrl = url;
            t->execPath = final_argv.empty() ? "" : final_argv[0];
            t->state = TaskState::Running;
            t->onExit = std::move(root_exit);
            t->nproc = std::move(nproc);

            worker->setOnMessage([this, pid](jsvm::Value msg) {
                onWorkerMessage(pid, std::move(msg));
            });

            if (Task *p = ppid ? task(ppid) : nullptr)
                p->children.insert(pid);

            jsvm::Value init = jsvm::Value::object();
            init.set("t", jsvm::Value("init"));
            init.set("pid", jsvm::Value(pid));
            jsvm::Value args = jsvm::Value::array();
            for (const auto &a : final_argv)
                args.push(jsvm::Value(a));
            init.set("args", std::move(args));
            jsvm::Value envv = jsvm::Value::object();
            for (const auto &[k, v] : env)
                envv.set(k, jsvm::Value(v));
            init.set("env", std::move(envv));
            init.set("cwd", jsvm::Value(t->cwd));
            if (!snapshot.isUndefined())
                init.set("snapshot", std::move(snapshot));

            tasks_.insert(std::move(t));
            stats_.processesSpawned++;
            stats_.messagesSent++;
            worker->postMessage(init);
            cb(pid);
        });
}

void
Kernel::doExec(Task &t, std::vector<std::string> argv,
               std::map<std::string, std::string> env, SpawnCb cb)
{
    int pid = t.pid;
    resolveExecutable(
        std::move(argv), t.cwd, 0,
        [this, pid, env = std::move(env), cb = std::move(cb)](
            int err, bfs::BufferPtr code,
            std::vector<std::string> final_argv) mutable {
            Task *t = task(pid);
            if (!t || t->state == TaskState::Zombie) {
                cb(-ESRCH);
                return;
            }
            if (err) {
                cb(-err); // caller survives a failed exec
                return;
            }
            // Point of no return: replace the process image.
            t->worker->terminate();
            if (!t->blobUrl.empty())
                browser_.blobs().revokeObjectUrl(t->blobUrl);

            std::string url =
                browser_.blobs().createObjectUrl(std::move(code));
            auto worker = browser_.createWorker(url, bootstrapper_);
            t->worker = worker;
            t->blobUrl = url;
            t->argv = final_argv;
            if (!env.empty())
                t->env = std::move(env);
            t->execPath = final_argv.empty() ? "" : final_argv[0];
            t->heap = nullptr; // personality does not survive exec
            t->retOff = t->waitOff = t->sigOff = -1;
            t->ring = Task::RingState{};
            t->sigDisp.clear();

            worker->setOnMessage([this, pid](jsvm::Value msg) {
                onWorkerMessage(pid, std::move(msg));
            });

            jsvm::Value init = jsvm::Value::object();
            init.set("t", jsvm::Value("init"));
            init.set("pid", jsvm::Value(pid));
            jsvm::Value args = jsvm::Value::array();
            for (const auto &a : final_argv)
                args.push(jsvm::Value(a));
            init.set("args", std::move(args));
            jsvm::Value envv = jsvm::Value::object();
            for (const auto &[k, v] : t->env)
                envv.set(k, jsvm::Value(v));
            init.set("env", std::move(envv));
            init.set("cwd", jsvm::Value(t->cwd));
            stats_.messagesSent++;
            worker->postMessage(init);
            cb(pid);
        });
}

int
Kernel::doFork(Task &parent, jsvm::Value snapshot)
{
    auto code = browser_.blobs().resolve(parent.blobUrl);
    if (!code)
        return -ENOENT;
    // NPROC quota: the forked child shares the parent's tenant counter.
    // This is the fork-bomb fence — `while(1) fork()` hits -EAGAIN once
    // its tree holds nprocLimit_ live processes.
    if (parent.nproc && *parent.nproc >= nprocLimit_)
        return -EAGAIN;
    int pid = allocPid();
    if (pid < 0)
        return pid;
    if (parent.nproc)
        ++*parent.nproc;
    // Workers cannot be cloned (§3.3): boot a fresh worker from the same
    // executable and hand it the serialized memory + program counter.
    // The child gets its own blob URL over the parent's bytes (shared,
    // not copied): revocation at its exit/exec must not strand the
    // parent's executable.
    std::string child_url =
        browser_.blobs().createObjectUrl(std::move(code));
    auto worker = browser_.createWorker(child_url, bootstrapper_);

    auto t = std::make_unique<Task>();
    t->pid = pid;
    t->ppid = parent.pid;
    t->worker = worker;
    t->cwd = parent.cwd;
    t->argv = parent.argv;
    t->env = parent.env;
    t->blobUrl = child_url;
    t->execPath = parent.execPath;
    t->state = TaskState::Running;
    t->sigDisp = parent.sigDisp;
    t->nproc = parent.nproc;

    // Children inherit the descriptor table (§3.6): same file objects,
    // reference counts bumped.
    for (auto &[fd, f] : parent.files) {
        f->ref();
        t->files[fd] = f;
    }

    worker->setOnMessage([this, pid](jsvm::Value msg) {
        onWorkerMessage(pid, std::move(msg));
    });
    parent.children.insert(pid);

    jsvm::Value init = jsvm::Value::object();
    init.set("t", jsvm::Value("init"));
    init.set("pid", jsvm::Value(pid));
    jsvm::Value args = jsvm::Value::array();
    for (const auto &a : parent.argv)
        args.push(jsvm::Value(a));
    init.set("args", std::move(args));
    jsvm::Value envv = jsvm::Value::object();
    for (const auto &[k, v] : parent.env)
        envv.set(k, jsvm::Value(v));
    init.set("env", std::move(envv));
    init.set("cwd", jsvm::Value(t->cwd));
    init.set("snapshot", std::move(snapshot));
    init.set("forked", jsvm::Value(true));

    tasks_.insert(std::move(t));
    stats_.processesSpawned++;
    stats_.messagesSent++;
    worker->postMessage(init);
    return pid;
}

void
Kernel::doExit(Task &t, int status)
{
    if (t.state == TaskState::Zombie)
        return;
    t.state = TaskState::Zombie;
    t.exitStatus = status;

    // Listening ports owned by this task die with it.
    for (auto &[fd, f] : t.files) {
        if (auto *sock = dynamic_cast<SocketFile *>(f.get())) {
            if (sock->state() == SocketFile::State::Listening)
                net_->dropListener(sock->port());
        }
    }
    for (auto &[fd, f] : t.files)
        f->unref();
    t.files.clear();
    t.clearWaitWaiters();

    if (t.worker) {
        t.worker->terminate();
        t.worker = nullptr;
    }
    if (!t.blobUrl.empty()) {
        browser_.blobs().revokeObjectUrl(t.blobUrl);
        t.blobUrl.clear();
    }

    // Orphaned children are re-parented to the kernel and auto-reaped.
    for (int child : t.children) {
        if (Task *c = task(child)) {
            c->ppid = 0;
            c->onExit = nullptr;
            if (c->state == TaskState::Zombie)
                reapTask(child);
        }
    }
    t.children.clear();
    t.zombieFifo.clear();

    int pid = t.pid;
    if (t.ppid != 0) {
        if (Task *parent = task(t.ppid)) {
            // "required us to implement the zombie task state" (§3.3).
            // Exit order is recorded per parent: wait-any reaps FIFO.
            parent->zombieFifo.push_back(pid);
            if (parent->dispositionFor(sys::SIGCHLD) ==
                sys::SigDisposition::Handler)
                deliverSignal(*parent, sys::SIGCHLD);
            completeWaits(*parent);
            return;
        }
    }
    // Root (embedder-owned) task: notify and reap immediately.
    auto on_exit = std::move(t.onExit);
    reapTask(pid);
    if (on_exit)
        on_exit(status);
}

void
Kernel::completeWaits(Task &parent)
{
    // Zombies are consulted in exit order (the parent's zombieFifo), and
    // each is matched against the earliest-registered waiter selecting
    // it through the by-pid index — the wait-specific bucket for its own
    // pid plus the wait-any (-1) bucket — so completion cost scales with
    // the zombie count, not the waiter-list length.
    for (;;) {
        int found = 0;
        uint64_t seq = 0;
        for (int zombie : parent.zombieFifo) {
            uint64_t best = UINT64_MAX;
            auto consider = [&parent, &best](int key) {
                auto it = parent.waitersByPid.find(key);
                if (it != parent.waitersByPid.end() &&
                    !it->second.empty())
                    best = std::min(best, *it->second.begin());
            };
            consider(zombie);
            consider(-1);
            if (best != UINT64_MAX) {
                found = zombie;
                seq = best;
                break;
            }
        }
        if (!found)
            return;
        auto wit = parent.waitWaiters.find(seq);
        auto done = std::move(wit->second.done);
        int wait_for = wit->second.waitFor;
        parent.waitWaiters.erase(wit);
        auto bit = parent.waitersByPid.find(wait_for);
        bit->second.erase(seq);
        if (bit->second.empty())
            parent.waitersByPid.erase(bit);
        int status = task(found)->exitStatus;
        reapTask(found); // also drops it from children + zombieFifo
        done(found, status);
    }
}

void
Kernel::reapTask(int pid)
{
    Task *t = task(pid);
    if (!t)
        return;
    if (t->nproc)
        --*t->nproc; // release the tenant's NPROC charge
    if (t->ppid != 0) {
        if (Task *parent = task(t->ppid)) {
            parent->children.erase(pid);
            auto &fifo = parent->zombieFifo;
            fifo.erase(std::remove(fifo.begin(), fifo.end(), pid),
                       fifo.end());
        }
    }
    tasks_.erase(pid);
}

int
Kernel::kill(int pid, int sig, int skip_pid)
{
    if (pid == -1) {
        // POSIX kill(-1): signal every process (except the issuing one,
        // per Linux — sysKill passes it as skip_pid). Snapshot the pids
        // first: delivery can exit tasks, reparent children, and reap
        // zombies, all of which mutate the table mid-walk.
        int hit = 0;
        for (int p : tasks_.pids()) {
            if (p == skip_pid)
                continue;
            Task *t = task(p);
            if (!t || t->state == TaskState::Zombie)
                continue;
            deliverSignal(*t, sig);
            hit++;
        }
        return hit ? 0 : ESRCH;
    }
    Task *t = task(pid);
    if (!t || t->state == TaskState::Zombie)
        return ESRCH;
    deliverSignal(*t, sig);
    return 0;
}

void
Kernel::deliverSignal(Task &t, int sig)
{
    stats_.signalsDelivered++;
    if (sig == sys::SIGKILL) {
        doExit(t, sys::statusFromSignal(sig));
        return;
    }
    if (sig == sys::SIGSTOP || sig == sys::SIGCONT)
        return; // job control is out of scope, as in the paper

    switch (t.dispositionFor(sig)) {
      case sys::SigDisposition::Ignore:
        return;
      case sys::SigDisposition::Default: {
        static const std::set<int> terminating = {
            sys::SIGHUP, sys::SIGINT, sys::SIGQUIT, sys::SIGPIPE,
            sys::SIGTERM, sys::SIGUSR1, sys::SIGUSR2};
        if (terminating.count(sig))
            doExit(t, sys::statusFromSignal(sig));
        return;
      }
      case sys::SigDisposition::Handler:
        break;
    }

    if (t.usesSyncCalls()) {
        // §3.2: a blocked process "is awakened when the system call has
        // completed or a signal is received". The signal number is placed
        // in the agreed heap slot and the wait word is poked; a process
        // parked on its ring's wait word is woken the same way.
        jsvm::Atomics::store(*t.heap, static_cast<uint32_t>(t.sigOff), sig);
        jsvm::Atomics::notify(*t.heap, static_cast<uint32_t>(t.waitOff));
        if (t.ring.registered)
            ringNotify(t);
        return;
    }
    jsvm::Value msg = jsvm::Value::object();
    msg.set("t", jsvm::Value("signal"));
    msg.set("sig", jsvm::Value(sig));
    msg.set("name", jsvm::Value(sys::signalName(sig)));
    stats_.messagesSent++;
    if (t.worker)
        t.worker->postMessage(msg);
}

// The connect/listen surface below delegates to the NetBackend, which
// owns the port namespace, the rendezvous, and the per-connection byte
// streams (Pipe pairs for loopback, shaped links for netsim).

int
Kernel::doConnect(Task *, SocketFile &client, int port)
{
    return net_->connect(client, port);
}

bool
Kernel::connectOrPark(SocketFilePtr client, int port,
                      std::function<void(int err)> done)
{
    bool parked = net_->connectOrPark(std::move(client), port,
                                      std::move(done));
    if (parked)
        stats_.connectsParked++;
    return parked;
}

void
Kernel::notifyListen(int port, SocketFilePtr listener)
{
    net_->addListener(port, std::move(listener));
}

void
Kernel::onPortListen(int port, std::function<void()> cb)
{
    net_->onPortListen(port, std::move(cb));
}

bool
Kernel::portListening(int port) const
{
    return net_->portListening(port);
}

void
Kernel::connect(int port, std::function<void(const bfs::Buffer &)> on_data,
                std::function<void()> on_close,
                std::function<void(int err, std::shared_ptr<HostConn>)> cb)
{
    auto client = std::make_shared<SocketFile>();
    int rc = doConnect(nullptr, *client, port);
    if (rc != 0) {
        cb(rc, nullptr);
        return;
    }
    auto conn = std::make_shared<HostConn>();
    conn->write = [client](bfs::Buffer data) {
        client->write(std::move(data), [](int, size_t) {});
    };
    conn->close = [client]() { client->unref(); };

    // Pump received bytes to the host callback.
    auto pump = jsvm::AsyncLoop<>::make(
        [client, on_data, on_close](const auto &pump) {
            client->read(64 * 1024, [on_data, on_close,
                                     pump](int err, bfs::BufferPtr data) {
                if (err || !data || data->empty()) {
                    if (on_close)
                        on_close();
                    return;
                }
                if (on_data)
                    on_data(*data);
                (*pump)();
            });
        });
    (*pump)();
    cb(0, conn);
}

void
Kernel::spawnRoot(std::vector<std::string> argv,
                  std::map<std::string, std::string> env, std::string cwd,
                  ExitCb on_exit, OutputCb out, OutputCb err, SpawnCb cb,
                  bfs::Buffer stdin_data)
{
    std::map<int, KFilePtr> fds;
    if (stdin_data.empty())
        fds[0] = std::make_shared<NullFile>();
    else
        fds[0] = std::make_shared<BufferSourceFile>(std::move(stdin_data));
    fds[1] = std::make_shared<CallbackSinkFile>(out);
    fds[2] = std::make_shared<CallbackSinkFile>(err);
    doSpawn(nullptr, std::move(argv), std::move(env), std::move(cwd),
            std::move(fds), jsvm::Value::undefined(), std::move(cb),
            std::move(on_exit));
}

void
Kernel::system(const std::string &cmd, ExitCb on_exit, OutputCb out,
               OutputCb err)
{
    // A missing or unreadable /bin/sh is an embedder-visible error, not a
    // kernel bug: surface the negative errno through on_exit (once — the
    // shared slot is cleared so a spawn failure can't double-fire it).
    auto exit_cb = std::make_shared<ExitCb>(std::move(on_exit));
    spawnRoot(
        {"/bin/sh", "-c", cmd}, defaultEnv, "/",
        [exit_cb](int status) {
            if (auto cb = std::exchange(*exit_cb, nullptr))
                cb(status);
        },
        std::move(out), std::move(err),
        [exit_cb](int rc) {
            if (rc < 0)
                if (auto cb = std::exchange(*exit_cb, nullptr))
                    cb(rc);
        });
}

void
Kernel::onWorkerMessage(int pid, jsvm::Value msg)
{
    Task *t = task(pid);
    if (!t || t->state == TaskState::Zombie)
        return;
    const jsvm::Value &type = msg.get("t");
    if (!type.isString())
        return;
    const std::string &ty = type.asString();

    if (ty == "syscall") {
        stats_.syscallCount++;
        stats_.asyncSyscallCount++;
        auto ctx = std::make_shared<SyscallCtx>(
            *this, pid, msg.get("id").asNumber(),
            msg.get("name").asString(), msg.get("args").clone());
        dispatchSyscall(*t, std::move(ctx));
        return;
    }
    if (ty == "sys") {
        stats_.syscallCount++;
        stats_.syncSyscallCount++;
        std::array<int32_t, 6> args{};
        const jsvm::Value &av = msg.get("args");
        for (size_t i = 0; i < 6 && i < av.size(); i++)
            args[i] = av.at(i).asInt();
        auto ctx = std::make_shared<SyscallCtx>(
            *this, pid, msg.get("trap").asInt(), args);
        dispatchSyscall(*t, std::move(ctx));
        return;
    }
    if (ty == "ring") {
        // Doorbell: the process published SQEs and rang once for the
        // whole batch (the CAS-guarded doorbell word suppresses
        // duplicates). One doorbell -> one drain pass.
        stats_.ringDoorbells++;
        drainSyscallRing(pid);
        return;
    }
}

void
Kernel::ringNotify(Task &t)
{
    if (!t.ring.registered || !t.heap)
        return;
    sys::RingLayout ring(static_cast<uint32_t>(t.ring.off),
                         static_cast<uint32_t>(t.ring.entries));
    jsvm::Atomics::store(*t.heap, ring.waitOff(), 1);
    jsvm::Atomics::notify(*t.heap, ring.waitOff());
    stats_.ringNotifies++;
}

void
Kernel::drainSyscallRing(int pid)
{
    Task *t = task(pid);
    if (!t || t->state == TaskState::Zombie || !t->ring.registered ||
        !t->heap)
        return;
    // The SAB outlives the task: a handler in this batch may exit the
    // process, freeing the Task while we still reference the rings.
    jsvm::SabPtr heap = t->heap;
    sys::RingLayout ring(static_cast<uint32_t>(t->ring.off),
                         static_cast<uint32_t>(t->ring.entries));
    jsvm::RingIndices sq(*heap, ring.sqHeadOff(), ring.sqTailOff(),
                         ring.entries());

    // The doorbell invariant (syscall_ring.h): clear it BEFORE reading
    // the tail, or a producer whose CAS fails meanwhile is stranded.
    jsvm::Atomics::store(*heap, ring.doorbellOff(), 0);
    t->ring.draining = true;
    t->ring.deferredNotify = false;

    int64_t pass_start_us = jsvm::nowUs();
    size_t consumed = 0;
    while (!sq.empty()) {
        sys::Sqe e = ring.readSqe(*heap, sq.slot(sq.head()));
        // Release the SQ slot before dispatching: a handler completing
        // synchronously frees a parked producer that much sooner.
        sq.consume();
        consumed++;
        stats_.syscallCount++;
        stats_.ringSyscallCount++;
        auto ctx =
            std::make_shared<SyscallCtx>(*this, pid, e.trap, e.args, e.seq);
        Task *cur = task(pid);
        if (!cur || cur->state == TaskState::Zombie)
            return;
        // Only the submitting process writes SQEs, so a heap-offset
        // argument outside the personality heap means a corrupt (or
        // hostile) entry: complete it with -EFAULT at the boundary
        // instead of letting a handler reach heapWrite out of bounds.
        if (!sys::sqeHeapArgsValid(e, *heap)) {
            stats_.ringEfaults++;
            ctx->completeErr(EFAULT);
            continue;
        }
        dispatchSyscall(*cur, std::move(ctx));
        // The handler may have exited or exec'd the process.
        cur = task(pid);
        if (!cur || cur->state == TaskState::Zombie ||
            !cur->ring.registered)
            return;
    }
    t->ring.draining = false;
    if (consumed > 0) {
        // Batches count consumed work: a doorbell that raced an earlier
        // drain and found the SQ empty is not a batch.
        stats_.ringBatchesDrained++;
        stats_.ringBatchDepth.record(consumed);
        stats_.ringDrainUs.record(
            static_cast<uint64_t>(jsvm::nowUs() - pass_start_us));
    }
    // One notify per pass: for the completions (and SQ slots) it freed,
    // or for a deferred CQE pushed while it ran.
    if (consumed > 0 || t->ring.deferredNotify)
        ringNotify(*t);
}

} // namespace kernel
} // namespace browsix
