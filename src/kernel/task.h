/**
 * @file
 * The per-process task structure (§3.3): "Each BROWSIX process has an
 * associated task structure that lives in the kernel that contains its
 * process ID, parent's process ID, Web Worker object, current working
 * directory, and map of open file descriptors."
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "jsvm/sab.h"
#include "jsvm/worker.h"
#include "kernel/file.h"
#include "runtime/syscall_proto.h"

namespace browsix {
namespace kernel {

enum class TaskState { Starting, Running, Zombie };

struct Task
{
    int pid = 0;
    int ppid = 0;
    std::shared_ptr<jsvm::Worker> worker;
    std::string cwd = "/";
    std::map<int, KFilePtr> files;
    TaskState state = TaskState::Starting;
    int exitStatus = 0;

    std::vector<std::string> argv;
    std::map<std::string, std::string> env;

    /// The executable this task was booted from (reused by fork/exec).
    std::string blobUrl;
    std::string execPath;

    /// Synchronous-syscall personality (§3.2): heap + agreed offsets.
    jsvm::SabPtr heap;
    int32_t retOff = -1;
    int32_t waitOff = -1;
    int32_t sigOff = -1;

    /// Ring personality: the io_uring-style SQ/CQ region inside `heap`
    /// (see runtime/syscall_ring.h). `draining` and `deferredNotify` are
    /// kernel-side batch state: completions that land while the kernel is
    /// draining this task's SQ coalesce into one end-of-batch notify.
    ///
    /// Parked (deferred-CQE) SQEs have no representation here: the
    /// in-flight call IS its SyscallCtx, held alive by whatever waiter
    /// list it parked on (pipe read queue, socket accept queue, poll
    /// watchers). On task exit the file teardown collapses those lists,
    /// each parked ctx completes, and finishRing drops the late CQE on
    /// the floor because the task is gone — nothing to unwind by hand.
    struct RingState
    {
        bool registered = false;
        int32_t off = -1;
        int32_t entries = 0;
        bool draining = false;
        bool deferredNotify = false;
    };
    RingState ring;

    /// Signal dispositions registered via sigaction.
    std::map<int, sys::SigDisposition> sigDisp;

    std::set<int> children;

    /// Zombie children in exit order. wait-any reaps from the front —
    /// deterministic FIFO regardless of which pid band a child lives in —
    /// while wait-specific and reapTask remove from the middle.
    std::deque<int> zombieFifo;

    /// Pending wait4 completions: (pid-selector, completion).
    struct WaitWaiter
    {
        int waitFor; // pid or -1 for any child
        std::function<void(int pid, int status)> done;
    };
    /// Waiters keyed by registration sequence (earliest-first priority
    /// when several select the same zombie), with a by-awaited-pid index
    /// (-1 = wait-any bucket) so completeWaits matches a zombie without
    /// scanning the whole waiter list — shells running hundreds of jobs
    /// keep wait4 completion O(log waiters) per exit.
    std::map<uint64_t, WaitWaiter> waitWaiters;
    std::unordered_map<int, std::set<uint64_t>> waitersByPid;
    uint64_t nextWaiterSeq = 1;

    /** Register a wait4 waiter in both structures. */
    void addWaitWaiter(int wait_for,
                       std::function<void(int pid, int status)> done)
    {
        uint64_t seq = nextWaiterSeq++;
        waitWaiters.emplace(seq, WaitWaiter{wait_for, std::move(done)});
        waitersByPid[wait_for].insert(seq);
    }

    void clearWaitWaiters()
    {
        waitWaiters.clear();
        waitersByPid.clear();
    }

    /// Root-task (ppid 0) exit notification for the embedder.
    std::function<void(int status)> onExit;

    /// Live-process counter shared by this task's whole tenant tree (the
    /// root process and every descendant). Charged at spawn/fork against
    /// the kernel's NPROC limit, released at reap — the fork-bomb fence.
    std::shared_ptr<int> nproc;

    /** Lowest unused descriptor number. */
    int allocFd() const
    {
        int fd = 0;
        while (files.count(fd))
            fd++;
        return fd;
    }

    bool usesSyncCalls() const { return heap != nullptr; }

    sys::SigDisposition dispositionFor(int sig) const
    {
        auto it = sigDisp.find(sig);
        return it == sigDisp.end() ? sys::SigDisposition::Default
                                   : it->second;
    }
};

} // namespace kernel
} // namespace browsix
