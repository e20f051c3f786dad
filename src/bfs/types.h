/**
 * @file
 * Shared filesystem types for the BrowserFS-equivalent layer.
 *
 * All backend operations are callback-based (BrowserFS's own convention,
 * which also matches Node.js fs). Errors are positive errno values; 0 is
 * success. The kernel's syscall layer converts these to -errno returns.
 */
#pragma once

#include <cerrno>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace browsix {
namespace bfs {

enum class FileType { Regular, Directory, Symlink };

struct Stat
{
    FileType type = FileType::Regular;
    uint64_t size = 0;
    uint64_t ino = 0;
    uint32_t mode = 0644; ///< permission bits only; type is in `type`
    uint32_t nlink = 1;
    int64_t atimeUs = 0;
    int64_t mtimeUs = 0;
    int64_t ctimeUs = 0;

    bool isDir() const { return type == FileType::Directory; }
    bool isFile() const { return type == FileType::Regular; }
    bool isSymlink() const { return type == FileType::Symlink; }
};

struct DirEntry
{
    std::string name;
    FileType type = FileType::Regular;
    uint64_t ino = 0;
};

using Buffer = std::vector<uint8_t>;
/**
 * Bytes handed between layers: shared and immutable. A whole-file
 * in-memory read hands out the file's own buffer through one of these
 * (the file copies on its next write), so the same bytes can flow on to
 * a blob and a worker without a host copy.
 */
using BufferPtr = std::shared_ptr<const Buffer>;

/** Append `more` to `acc`; into an empty `acc` it moves, not copies. */
inline void
append(Buffer &acc, Buffer &&more)
{
    if (acc.empty())
        acc = std::move(more);
    else
        acc.insert(acc.end(), more.begin(), more.end());
}

/**
 * A caller-owned destination window for zero-copy reads (preadInto): the
 * backend writes at most `len` bytes at `data` and reports the count via
 * SizeCb. The caller guarantees the memory outlives the callback — for
 * syscalls the window aliases the process's shared heap, which the kernel
 * pins for the duration of the call.
 */
struct ByteSpan
{
    uint8_t *data = nullptr;
    size_t len = 0;
};

/**
 * A caller-owned source window for zero-copy writes (pwriteFrom): the
 * backend reads at most `len` bytes at `data`. Same lifetime contract as
 * ByteSpan — the caller guarantees the memory outlives the completion
 * callback; for syscalls the window aliases the process's shared heap,
 * which the kernel pins for the duration of the call.
 */
struct ConstByteSpan
{
    const uint8_t *data = nullptr;
    size_t len = 0;
};

using ErrCb = std::function<void(int err)>;
using StatCb = std::function<void(int err, const Stat &)>;
using DataCb = std::function<void(int err, BufferPtr data)>;
using SizeCb = std::function<void(int err, size_t n)>;
using DirCb = std::function<void(int err, std::vector<DirEntry>)>;
using StrCb = std::function<void(int err, const std::string &)>;

/// Open flags (Linux numeric values, for syscall-layer fidelity).
namespace flags {
constexpr int RDONLY = 0;
constexpr int WRONLY = 01;
constexpr int RDWR = 02;
constexpr int CREAT = 0100;
constexpr int EXCL = 0200;
constexpr int TRUNC = 01000;
constexpr int APPEND = 02000;

inline bool wantsWrite(int f) { return (f & 03) != RDONLY; }
inline bool wantsRead(int f) { return (f & 03) != WRONLY; }
} // namespace flags

/** Allocate a process-unique inode number. */
uint64_t nextIno();

} // namespace bfs
} // namespace browsix
