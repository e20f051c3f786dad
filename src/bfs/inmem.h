/**
 * @file
 * In-memory filesystem backend (BrowserFS "InMemory" analogue).
 *
 * Completes all callbacks inline. Supports symlinks; the writable layer of
 * the overlay backend is one of these.
 */
#pragma once

#include <map>
#include <memory>
#include <string>

#include "bfs/backend.h"

namespace browsix {
namespace bfs {

class InMemBackend : public Backend
{
  public:
    InMemBackend();

    std::string name() const override { return "inmem"; }

    void stat(const std::string &path, StatCb cb) override;
    void open(const std::string &path, int oflags, uint32_t mode,
              OpenCb cb) override;
    void readdir(const std::string &path, DirCb cb) override;
    void mkdir(const std::string &path, uint32_t mode, ErrCb cb) override;
    void rmdir(const std::string &path, ErrCb cb) override;
    void unlink(const std::string &path, ErrCb cb) override;
    void rename(const std::string &from, const std::string &to,
                ErrCb cb) override;
    void readlink(const std::string &path, StrCb cb) override;
    void symlink(const std::string &target, const std::string &path,
                 ErrCb cb) override;
    void utimes(const std::string &path, int64_t atime_us, int64_t mtime_us,
                ErrCb cb) override;

    // --- synchronous conveniences (complete inline; used widely by the
    // kernel boot path, tests, and filesystem staging) ---

    /** Create all missing directories along path. */
    int mkdirAll(const std::string &path);
    /** Write a whole file, creating parents as needed. A Buffer becomes
     * the file's buffer (moved in, not copied, when the caller passes
     * an rvalue). */
    int writeFile(const std::string &path, const std::string &data);
    int writeFile(const std::string &path, Buffer data);
    /** Share `bytes` (a Buffer not itself created const) as the file's
     * buffer, without a copy. While the caller keeps its reference, the
     * file copies before it writes, so `bytes` never change. */
    int writeFile(const std::string &path, BufferPtr bytes);
    /** Read a whole file. */
    int readFile(const std::string &path, Buffer &out) const;

  private:
    struct Node;
    using NodePtr = std::shared_ptr<Node>;

    struct Node
    {
        FileType type = FileType::Regular;
        uint64_t ino = 0;
        uint32_t mode = 0644;
        int64_t atimeUs = 0;
        int64_t mtimeUs = 0;
        int64_t ctimeUs = 0;
        /// Regular. The one mutable owner of the file's bytes; whole-file
        /// preads share it, so writers copy it first while it is shared.
        std::shared_ptr<Buffer> data;
        std::map<std::string, NodePtr> children; // Directory
        std::string linkTarget;               // Symlink

        Stat toStat() const;
    };

    NodePtr lookup(const std::string &path) const;
    NodePtr lookupParent(const std::string &path, std::string &leaf) const;

    NodePtr root_;

    class MemOpenFile;
};

} // namespace bfs
} // namespace browsix
