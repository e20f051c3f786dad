#include "runtime/syscall_client.h"

#include <cstring>

#include "jsvm/fiber.h"
#include "jsvm/util.h"

namespace browsix {
namespace rt {

SyscallClient::SyscallClient(jsvm::WorkerScope &scope) : scope_(scope)
{
    scope_.setOnMessage([this](jsvm::Value msg) { onMessage(std::move(msg)); });
}

void
SyscallClient::onMessage(jsvm::Value msg)
{
    const jsvm::Value &type = msg.get("t");
    if (!type.isString())
        return;
    const std::string &ty = type.asString();

    if (ty == "init") {
        init_.pid = msg.get("pid").asInt();
        init_.args.clear();
        if (msg.get("args").isArray()) {
            for (const auto &a : msg.get("args").asArray())
                init_.args.push_back(a.isString() ? a.asString() : "");
        }
        init_.env.clear();
        if (msg.get("env").isObject()) {
            for (const auto &[k, v] : msg.get("env").asObject())
                init_.env[k] = v.isString() ? v.asString() : "";
        }
        if (msg.get("cwd").isString())
            init_.cwd = msg.get("cwd").asString();
        if (msg.get("snapshot").isBytes() && msg.get("snapshot").asBytes())
            init_.snapshot = *msg.get("snapshot").asBytes();
        init_.forked = msg.get("forked").isBool() &&
                       msg.get("forked").asBool();
        initReceived_ = true;
        if (initCb_) {
            auto cb = std::move(initCb_);
            initCb_ = nullptr;
            cb(init_);
        }
        return;
    }
    if (ty == "ret") {
        double id = msg.get("id").asNumber();
        auto it = outstanding_.find(id);
        if (it == outstanding_.end())
            return;
        RetCb cb = std::move(it->second);
        outstanding_.erase(it);
        const jsvm::Value &ret = msg.get("ret");
        cb(ret.at(0).asInt64(), ret.at(1).asInt64(),
           msg.get("data").clone());
        return;
    }
    if (ty == "signal") {
        if (signalCb_)
            signalCb_(msg.get("sig").asInt());
        return;
    }
}

void
SyscallClient::onInit(std::function<void(const InitInfo &)> cb)
{
    if (initReceived_) {
        cb(init_);
        return;
    }
    initCb_ = std::move(cb);
}

void
SyscallClient::onSignal(std::function<void(int)> cb)
{
    signalCb_ = std::move(cb);
}

void
SyscallClient::dropCallbacks()
{
    initCb_ = nullptr;
    signalCb_ = nullptr;
    outstanding_.clear();
}

void
SyscallClient::call(const std::string &name, jsvm::Value::Array args,
                    RetCb cb)
{
    double id = nextId_++;
    calls_++;
    outstanding_[id] = std::move(cb);
    jsvm::Value msg = jsvm::Value::object();
    msg.set("t", jsvm::Value("syscall"));
    msg.set("id", jsvm::Value(id));
    msg.set("name", jsvm::Value(name));
    msg.set("args", jsvm::Value(std::move(args)));
    scope_.postMessage(msg);
}

void
SyscallClient::post(const std::string &name, jsvm::Value::Array args)
{
    jsvm::Value msg = jsvm::Value::object();
    msg.set("t", jsvm::Value("syscall"));
    msg.set("id", jsvm::Value(0.0));
    msg.set("name", jsvm::Value(name));
    msg.set("args", jsvm::Value(std::move(args)));
    scope_.postMessage(msg);
}

CallResult
blockingCall(SyscallClient &client, const std::string &name,
             jsvm::Value::Array args)
{
    jsvm::Fiber *f = jsvm::Fiber::current();
    if (!f)
        jsvm::panic("blockingCall called outside a guest fiber");
    // Fiber execution is serialized with the worker loop's tasks (both run
    // inside Worker::step), so the call can be issued directly; the reply
    // callback runs on a later loop pump and wakes the parked fiber.
    jsvm::InterruptToken &token = client.scope().token();
    struct State
    {
        bool done = false;
        CallResult result;
    };
    auto st = std::make_shared<State>();
    uint64_t waker = token.addWaker([f]() { f->wake(); });
    client.call(name, std::move(args),
                [st, f](int64_t r0, int64_t r1, jsvm::Value data) {
                    st->result.r0 = r0;
                    st->result.r1 = r1;
                    st->result.data = std::move(data);
                    st->done = true;
                    f->wake();
                });
    while (!st->done) {
        if (token.interrupted()) {
            token.removeWaker(waker);
            throw jsvm::WorkerTerminated{};
        }
        jsvm::Fiber::park();
    }
    token.removeWaker(waker);
    return st->result;
}

SyncSyscalls::SyncSyscalls(SyscallClient &client, size_t heap_bytes)
    : client_(client)
{
    heap_ = std::make_shared<jsvm::SharedArrayBuffer>(
        std::max(heap_bytes, size_t{4096}));
    // Register the personality: heap + offsets, via an async syscall.
    CallResult r = blockingCall(
        client_, "personality",
        {jsvm::Value(heap_), jsvm::Value(static_cast<int>(kRetOff)),
         jsvm::Value(static_cast<int>(kWaitOff)),
         jsvm::Value(static_cast<int>(kSigOff))});
    if (r.r0 != 0)
        jsvm::panic("SyncSyscalls: personality registration failed");
}

uint32_t
SyncSyscalls::pushString(const std::string &s)
{
    uint32_t off = alloc(s.size() + 1);
    std::memcpy(heap_->data() + off, s.data(), s.size());
    heap_->data()[off + s.size()] = 0;
    return off;
}

uint32_t
SyncSyscalls::pushIovArray(const std::vector<sys::IoVec> &iovs)
{
    uint32_t arr = alloc(iovs.size() * sys::IOVEC_BYTES);
    for (size_t i = 0; i < iovs.size(); i++) {
        std::memcpy(heap_->data() + arr + i * sys::IOVEC_BYTES, &iovs[i],
                    sys::IOVEC_BYTES);
    }
    return arr;
}

uint32_t
SyncSyscalls::alloc(size_t n)
{
    size_t off = (scratchTop_ + 7) & ~size_t{7};
    if (off + n > heap_->size())
        jsvm::panic("SyncSyscalls: scratch overflow");
    scratchTop_ = off + n;
    return static_cast<uint32_t>(off);
}

uint32_t
SyncSyscalls::reserve(size_t n)
{
    uint32_t off = alloc(n);
    scratchBase_ = scratchTop_;
    return off;
}

void
SyncSyscalls::pollSignal()
{
    int sig = jsvm::Atomics::load(*heap_, kSigOff);
    if (sig != 0) {
        jsvm::Atomics::store(*heap_, kSigOff, 0);
        if (signalHandler)
            signalHandler(sig);
    }
}

int64_t
SyncSyscalls::call(int trap, std::array<int32_t, 6> args, int32_t *r1_out)
{
    jsvm::InterruptToken &token = client_.scope().token();
    if (token.interrupted())
        throw jsvm::WorkerTerminated{};

    jsvm::Atomics::store(*heap_, kWaitOff, 0);

    jsvm::Value msg = jsvm::Value::object();
    msg.set("t", jsvm::Value("sys"));
    msg.set("trap", jsvm::Value(trap));
    jsvm::Value av = jsvm::Value::array();
    for (int32_t a : args)
        av.push(jsvm::Value(a));
    msg.set("args", std::move(av));
    client_.scope().postMessage(msg);

    // §3.2: block until the kernel completes the call or a signal lands.
    for (;;) {
        jsvm::WaitResult wr =
            jsvm::Atomics::wait(*heap_, kWaitOff, 0, -1, &token);
        if (wr == jsvm::WaitResult::Interrupted)
            throw jsvm::WorkerTerminated{};
        pollSignal();
        if (jsvm::Atomics::load(*heap_, kWaitOff) != 0)
            break;
        // Spurious wake / signal-only wake: keep waiting.
        if (wr == jsvm::WaitResult::NotEqual)
            break;
    }

    int32_t r0, r1;
    std::memcpy(&r0, heap_->data() + kRetOff, 4);
    std::memcpy(&r1, heap_->data() + kRetOff + 4, 4);
    if (r1_out)
        *r1_out = r1;
    return r0;
}

// ---------------------------------------------------------------------------
// RingSyscalls
// ---------------------------------------------------------------------------

RingSyscalls::RingSyscalls(SyncSyscalls &sync, uint32_t entries)
    : sync_(sync),
      layout_(sync.reserve(sys::RingLayout::bytesFor(entries)), entries),
      sq_(sync.heap(), layout_.sqHeadOff(), layout_.sqTailOff(), entries),
      cq_(sync.heap(), layout_.cqHeadOff(), layout_.cqTailOff(), entries)
{
    CallResult r = blockingCall(
        sync_.client(), "ring_personality",
        {jsvm::Value(static_cast<int>(layout_.sqHeadOff())),
         jsvm::Value(static_cast<int>(entries))});
    if (r.r0 != 0)
        jsvm::panic("RingSyscalls: ring registration failed");
}

bool
RingSyscalls::ringEligible(int trap)
{
    switch (trap) {
      // Metadata, descriptors, and I/O whose completion needs no input
      // the caller itself must provide. The kernel never parks — a CQE
      // may simply land late (WRITE defers under pipe backpressure until
      // a reader drains, exactly where the sync convention would block);
      // a late CQE only ties up one in-flight slot meanwhile.
      case sys::GETPID:
      case sys::GETPPID:
      case sys::GETTIMEOFDAY:
      case sys::GETCWD:
      case sys::CHDIR:
      case sys::OPEN:
      case sys::CLOSE:
      case sys::LLSEEK:
      case sys::STAT:
      case sys::LSTAT:
      case sys::FSTAT:
      case sys::ACCESS:
      case sys::UNLINK:
      case sys::MKDIR:
      case sys::RMDIR:
      case sys::RENAME:
      case sys::READLINK:
      case sys::SYMLINK:
      case sys::UTIMES:
      case sys::GETDENTS:
      case sys::GETDENTS64:
      case sys::DUP:
      case sys::DUP2:
      case sys::IOCTL:
      case sys::PREAD:
      case sys::PWRITE:
      case sys::WRITE:
      // Vectored I/O batches like its scalar counterparts.
      case sys::WRITEV:
      case sys::PREADV:
      case sys::PWRITEV:
      // Blocking traps ride the completion-deferral protocol: when the
      // drained SQE would block (read/readv on an empty pipe, accept
      // with no pending connection, poll with nothing ready) the kernel
      // parks the completion against the pipe/socket waiter list and
      // pushes the CQE — with its own notify — when the event arrives.
      // The parked SQE keeps its CQ reservation (in-flight slot), so
      // the late CQE always has room; submitting a blocking trap and
      // then more work behind it is fine, because the kernel drains and
      // dispatches the rest of the batch without waiting on it.
      case sys::READ:
      case sys::READV:
      case sys::ACCEPT:
      case sys::POLL:
      // The process table (wait-waiter list), the socket rendezvous
      // (connect waiters on a full backlog), and the epoll interest
      // list give the same park-and-complete shape to process and
      // readiness waits; sendfile is all-integer arguments and at most
      // blocks in its kernel-side writeFrom, which parks like WRITE.
      case sys::WAIT4:
      case sys::CONNECT:
      case sys::EPOLL_CREATE:
      case sys::EPOLL_CTL:
      case sys::EPOLL_WAIT:
      case sys::SENDFILE:
      // The rest of the socket-lifecycle family is integer-in/
      // integer-out and completes immediately (bind/listen mutate
      // kernel-side state, getsockname/shutdown read or flag it) — a
      // ring-native server's whole setup and teardown batches.
      case sys::SOCKET:
      case sys::BIND:
      case sys::LISTEN:
      case sys::GETSOCKNAME:
      case sys::SHUTDOWN:
        return true;
      default:
        // Only fork still completes through a per-call convention: its
        // reply carries a structured-clone state snapshot that cannot
        // ride a 16-byte CQE.
        return false;
    }
}

void
RingSyscalls::reap()
{
    jsvm::SharedArrayBuffer &heap = sync_.heap();
    while (!cq_.empty()) {
        sys::Cqe e = layout_.readCqe(heap, cq_.slot(cq_.head()));
        cq_.consume();
        done_[e.seq] = Completion{e.r0, e.r1};
        if (inflight_ > 0)
            inflight_--;
    }
}

void
RingSyscalls::park(const std::function<bool()> &pred)
{
    jsvm::SharedArrayBuffer &heap = sync_.heap();
    jsvm::InterruptToken &token = sync_.client().scope().token();
    for (;;) {
        reap();
        if (pred())
            return;
        jsvm::Atomics::store(heap, layout_.waitOff(), 0);
        // Re-check after arming: the kernel may have completed + notified
        // between the reap above and the store (lost-wake guard).
        reap();
        if (pred())
            return;
        jsvm::WaitResult wr = jsvm::Atomics::wait(heap, layout_.waitOff(),
                                                  0, -1, &token);
        if (wr == jsvm::WaitResult::Interrupted)
            throw jsvm::WorkerTerminated{};
        sync_.pollSignal();
    }
}

uint32_t
RingSyscalls::submit(int trap, std::array<int32_t, 6> args)
{
    // Backpressure: the in-flight window doubles as the CQ reservation,
    // so the kernel can never overflow the completion queue.
    if (inflight_ >= capacity() || sq_.full()) {
        flush(); // the kernel must see the batch or we park forever
        park([this]() { return inflight_ < capacity() && !sq_.full(); });
    }
    uint32_t seq = nextSeq_++;
    sys::Sqe e;
    e.trap = trap;
    e.seq = seq;
    e.args = args;
    layout_.writeSqe(sync_.heap(), sq_.slot(sq_.tail()), e);
    sq_.publish();
    inflight_++;
    unflushed_++;
    return seq;
}

uint32_t
RingSyscalls::submitv(int trap, int32_t fd,
                      const std::vector<sys::IoVec> &iovs, int64_t off)
{
    // Marshal the iovec array into scratch; the spans it points at were
    // already placed in the heap by the caller. One SQE then carries the
    // whole gather/scatter list.
    uint32_t arr = sync_.pushIovArray(iovs);
    return submit(trap, {fd, static_cast<int32_t>(arr),
                         static_cast<int32_t>(iovs.size()),
                         static_cast<int32_t>(off), 0, 0});
}

void
RingSyscalls::flush()
{
    // Idempotent per batch: once every local submission is covered by a
    // doorbell, later flush() calls (wait() flushes defensively) are
    // no-ops — probing the shared SQ indices here could double-ring for
    // a batch the kernel is mid-drain on.
    if (unflushed_ == 0)
        return;
    unflushed_ = 0;
    jsvm::SharedArrayBuffer &heap = sync_.heap();
    // Only the 0 -> 1 transition posts a message. A CAS failure means a
    // doorbell is already in flight, and the kernel clears the flag
    // before reading the tail — so it will see everything published up
    // to this point either way.
    if (jsvm::Atomics::compareExchange(heap, layout_.doorbellOff(), 0, 1) ==
        0) {
        doorbells_++;
        jsvm::Value msg = jsvm::Value::object();
        msg.set("t", jsvm::Value("ring"));
        sync_.client().scope().postMessage(msg);
    }
}

RingSyscalls::Completion
RingSyscalls::wait(uint32_t seq)
{
    flush();
    Completion out;
    park([this, seq, &out]() {
        auto it = done_.find(seq);
        if (it == done_.end())
            return false;
        out = it->second;
        done_.erase(it);
        return true;
    });
    return out;
}

int64_t
RingSyscalls::call(int trap, std::array<int32_t, 6> args, int32_t *r1_out)
{
    if (!ringEligible(trap))
        return sync_.call(trap, args, r1_out);
    uint32_t seq = submit(trap, args);
    Completion c = wait(seq);
    if (r1_out)
        *r1_out = c.r1;
    return c.r0;
}

} // namespace rt
} // namespace browsix
