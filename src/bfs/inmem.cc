#include "bfs/inmem.h"

#include <algorithm>
#include <cstring>

#include "bfs/path.h"
#include "jsvm/util.h"

namespace browsix {
namespace bfs {

uint64_t
nextIno()
{
    static uint64_t counter = 1;
    return counter++;
}

Stat
InMemBackend::Node::toStat() const
{
    Stat st;
    st.type = type;
    st.ino = ino;
    st.mode = mode;
    st.size = type == FileType::Regular ? (data ? data->size() : 0)
              : type == FileType::Symlink ? linkTarget.size()
                                          : 4096;
    st.atimeUs = atimeUs;
    st.mtimeUs = mtimeUs;
    st.ctimeUs = ctimeUs;
    return st;
}

/**
 * Positional I/O over an in-memory node. Holds the node alive; an unlinked
 * file stays readable through open descriptors (Unix semantics).
 *
 * A whole-file pread hands out the node's own buffer, so an executable's
 * bytes reach the blob and the worker without a host copy. The mutators
 * are therefore copy-on-write: while anyone else holds the buffer, they
 * first give the node a private copy, and the holders keep the bytes they
 * read.
 */
class InMemBackend::MemOpenFile : public OpenFile
{
  public:
    explicit MemOpenFile(NodePtr node) : node_(std::move(node)) {}

    void
    pread(uint64_t off, size_t len, DataCb cb) override
    {
        node_->atimeUs = jsvm::nowUs();
        const Buffer &d = *node_->data;
        if (off == 0 && len >= d.size()) {
            cb(0, node_->data);
            return;
        }
        auto out = std::make_shared<Buffer>();
        if (off < d.size()) {
            size_t n = std::min<uint64_t>(len, d.size() - off);
            out->assign(d.begin() + off, d.begin() + off + n);
        }
        cb(0, std::move(out));
    }

    void
    preadInto(uint64_t off, ByteSpan dst, SizeCb cb) override
    {
        const Buffer &d = *node_->data;
        size_t n = 0;
        if (off < d.size()) {
            n = std::min<uint64_t>(dst.len, d.size() - off);
            if (n > 0)
                std::memcpy(dst.data, d.data() + off, n);
        }
        node_->atimeUs = jsvm::nowUs();
        cb(0, n);
    }

    void
    pwrite(uint64_t off, const uint8_t *data, size_t len, SizeCb cb) override
    {
        pwriteFrom(off, ConstByteSpan{data, len}, std::move(cb));
    }

    void
    pwriteFrom(uint64_t off, ConstByteSpan src, SizeCb cb) override
    {
        if (off + src.len < off) { // end-offset wrap: never index with it
            cb(EFBIG, 0);
            return;
        }
        // The source window (for syscalls: the guest heap) is consumed
        // directly into the resident node data — the single necessary
        // copy, with no intermediate Buffer on either side.
        Buffer &d = ownData();
        if (off + src.len > d.size())
            d.resize(off + src.len, 0);
        if (src.len > 0) // zero-length writes carry a null data pointer
            std::memcpy(d.data() + off, src.data, src.len);
        node_->mtimeUs = jsvm::nowUs();
        cb(0, src.len);
    }

    void fstat(StatCb cb) override { cb(0, node_->toStat()); }

    void
    ftruncate(uint64_t size, ErrCb cb) override
    {
        ownData(size).resize(size, 0);
        node_->mtimeUs = jsvm::nowUs();
        cb(0);
    }

  private:
    /**
     * The node's buffer, writable: first replaced by a private copy (of
     * at most its first `keep` bytes) while a reader or blob shares it.
     */
    Buffer &
    ownData(uint64_t keep = UINT64_MAX)
    {
        std::shared_ptr<Buffer> &d = node_->data;
        if (d.use_count() > 1) {
            size_t n = std::min<uint64_t>(keep, d->size());
            d = std::make_shared<Buffer>(d->begin(), d->begin() + n);
        }
        return *d;
    }

    NodePtr node_;
};

InMemBackend::InMemBackend() : root_(std::make_shared<Node>())
{
    root_->type = FileType::Directory;
    root_->ino = nextIno();
    root_->mode = 0755;
}

InMemBackend::NodePtr
InMemBackend::lookup(const std::string &path) const
{
    NodePtr cur = root_;
    for (const auto &part : splitPath(normalizePath(path))) {
        if (!cur || cur->type != FileType::Directory)
            return nullptr;
        auto it = cur->children.find(part);
        if (it == cur->children.end())
            return nullptr;
        cur = it->second;
    }
    return cur;
}

InMemBackend::NodePtr
InMemBackend::lookupParent(const std::string &path, std::string &leaf) const
{
    std::string norm = normalizePath(path);
    if (norm == "/")
        return nullptr;
    leaf = basename(norm);
    return lookup(dirname(norm));
}

void
InMemBackend::stat(const std::string &path, StatCb cb)
{
    NodePtr n = lookup(path);
    if (!n) {
        cb(ENOENT, Stat{});
        return;
    }
    cb(0, n->toStat());
}

void
InMemBackend::open(const std::string &path, int oflags, uint32_t mode,
                   OpenCb cb)
{
    NodePtr n = lookup(path);
    if (n && n->type == FileType::Directory) {
        cb(EISDIR, nullptr);
        return;
    }
    if (!n) {
        if (!(oflags & flags::CREAT)) {
            cb(ENOENT, nullptr);
            return;
        }
        std::string leaf;
        NodePtr parent = lookupParent(path, leaf);
        if (!parent || parent->type != FileType::Directory) {
            cb(ENOENT, nullptr);
            return;
        }
        n = std::make_shared<Node>();
        n->type = FileType::Regular;
        n->ino = nextIno();
        n->mode = mode ? mode : 0644;
        n->data = std::make_shared<Buffer>();
        n->ctimeUs = n->mtimeUs = n->atimeUs = jsvm::nowUs();
        parent->children[leaf] = n;
    } else {
        if ((oflags & flags::CREAT) && (oflags & flags::EXCL)) {
            cb(EEXIST, nullptr);
            return;
        }
        if (oflags & flags::TRUNC) {
            n->data = std::make_shared<Buffer>();
            n->mtimeUs = jsvm::nowUs();
        }
    }
    if (!n->data)
        n->data = std::make_shared<Buffer>();
    cb(0, std::make_shared<MemOpenFile>(n));
}

void
InMemBackend::readdir(const std::string &path, DirCb cb)
{
    NodePtr n = lookup(path);
    if (!n) {
        cb(ENOENT, {});
        return;
    }
    if (n->type != FileType::Directory) {
        cb(ENOTDIR, {});
        return;
    }
    std::vector<DirEntry> out;
    out.reserve(n->children.size());
    for (const auto &[name, child] : n->children)
        out.push_back(DirEntry{name, child->type, child->ino});
    cb(0, std::move(out));
}

void
InMemBackend::mkdir(const std::string &path, uint32_t mode, ErrCb cb)
{
    if (lookup(path)) {
        cb(EEXIST);
        return;
    }
    std::string leaf;
    NodePtr parent = lookupParent(path, leaf);
    if (!parent || parent->type != FileType::Directory) {
        cb(ENOENT);
        return;
    }
    auto n = std::make_shared<Node>();
    n->type = FileType::Directory;
    n->ino = nextIno();
    n->mode = mode ? mode : 0755;
    n->ctimeUs = n->mtimeUs = jsvm::nowUs();
    parent->children[leaf] = n;
    cb(0);
}

void
InMemBackend::rmdir(const std::string &path, ErrCb cb)
{
    NodePtr n = lookup(path);
    if (!n) {
        cb(ENOENT);
        return;
    }
    if (n->type != FileType::Directory) {
        cb(ENOTDIR);
        return;
    }
    if (!n->children.empty()) {
        cb(ENOTEMPTY);
        return;
    }
    std::string leaf;
    NodePtr parent = lookupParent(path, leaf);
    if (!parent) { // removing the mount root
        cb(EBUSY);
        return;
    }
    parent->children.erase(leaf);
    cb(0);
}

void
InMemBackend::unlink(const std::string &path, ErrCb cb)
{
    NodePtr n = lookup(path);
    if (!n) {
        cb(ENOENT);
        return;
    }
    if (n->type == FileType::Directory) {
        cb(EISDIR);
        return;
    }
    std::string leaf;
    NodePtr parent = lookupParent(path, leaf);
    parent->children.erase(leaf);
    cb(0);
}

void
InMemBackend::rename(const std::string &from, const std::string &to, ErrCb cb)
{
    NodePtr n = lookup(from);
    if (!n) {
        cb(ENOENT);
        return;
    }
    std::string to_leaf;
    NodePtr to_parent = lookupParent(to, to_leaf);
    if (!to_parent || to_parent->type != FileType::Directory) {
        cb(ENOENT);
        return;
    }
    NodePtr existing = lookup(to);
    if (existing && existing->type == FileType::Directory &&
        !existing->children.empty()) {
        cb(ENOTEMPTY);
        return;
    }
    std::string from_leaf;
    NodePtr from_parent = lookupParent(from, from_leaf);
    from_parent->children.erase(from_leaf);
    to_parent->children[to_leaf] = n;
    cb(0);
}

void
InMemBackend::readlink(const std::string &path, StrCb cb)
{
    NodePtr n = lookup(path);
    if (!n) {
        cb(ENOENT, "");
        return;
    }
    if (n->type != FileType::Symlink) {
        cb(EINVAL, "");
        return;
    }
    cb(0, n->linkTarget);
}

void
InMemBackend::symlink(const std::string &target, const std::string &path,
                      ErrCb cb)
{
    if (lookup(path)) {
        cb(EEXIST);
        return;
    }
    std::string leaf;
    NodePtr parent = lookupParent(path, leaf);
    if (!parent || parent->type != FileType::Directory) {
        cb(ENOENT);
        return;
    }
    auto n = std::make_shared<Node>();
    n->type = FileType::Symlink;
    n->ino = nextIno();
    n->linkTarget = target;
    n->ctimeUs = jsvm::nowUs();
    parent->children[leaf] = n;
    cb(0);
}

void
InMemBackend::utimes(const std::string &path, int64_t atime_us,
                     int64_t mtime_us, ErrCb cb)
{
    NodePtr n = lookup(path);
    if (!n) {
        cb(ENOENT);
        return;
    }
    n->atimeUs = atime_us;
    n->mtimeUs = mtime_us;
    cb(0);
}

int
InMemBackend::mkdirAll(const std::string &path)
{
    NodePtr cur = root_;
    for (const auto &part : splitPath(normalizePath(path))) {
        auto it = cur->children.find(part);
        if (it == cur->children.end()) {
            auto n = std::make_shared<Node>();
            n->type = FileType::Directory;
            n->ino = nextIno();
            n->mode = 0755;
            cur->children[part] = n;
            cur = n;
        } else {
            if (it->second->type != FileType::Directory)
                return ENOTDIR;
            cur = it->second;
        }
    }
    return 0;
}

int
InMemBackend::writeFile(const std::string &path, const std::string &data)
{
    return writeFile(path, Buffer(data.begin(), data.end()));
}

int
InMemBackend::writeFile(const std::string &path, Buffer data)
{
    int rc = mkdirAll(dirname(path));
    if (rc != 0)
        return rc;
    int result = 0;
    open(path, flags::CREAT | flags::TRUNC | flags::WRONLY, 0644,
         [&](int err, OpenFilePtr) { result = err; });
    if (result == 0)
        lookup(path)->data = std::make_shared<Buffer>(std::move(data));
    return result;
}

int
InMemBackend::writeFile(const std::string &path, BufferPtr bytes)
{
    int rc = writeFile(path, Buffer{});
    // Writers go through ownData, which copies while anyone else holds
    // the buffer: `bytes` are written in place only once the caller has
    // let go of them, hence the non-const-Buffer requirement.
    if (rc == 0)
        lookup(path)->data =
            std::const_pointer_cast<Buffer>(std::move(bytes));
    return rc;
}

int
InMemBackend::readFile(const std::string &path, Buffer &out) const
{
    NodePtr n = lookup(path);
    if (!n)
        return ENOENT;
    if (n->type == FileType::Directory)
        return EISDIR;
    out = n->data ? *n->data : Buffer{};
    return 0;
}

} // namespace bfs
} // namespace browsix
