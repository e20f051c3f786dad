#include "bfs/overlay.h"

#include "bfs/path.h"
#include "jsvm/util.h"

namespace browsix {
namespace bfs {

void
PathLockManager::withLock(const std::string &path,
                          std::function<void(Release)> fn)
{
    if (held_.count(path)) {
        contention_++;
        queues_[path].push_back(std::move(fn));
        return;
    }
    held_.insert(path);
    Release release = [this, path]() { runNext(path); };
    fn(release);
}

void
PathLockManager::runNext(const std::string &path)
{
    auto it = queues_.find(path);
    if (it == queues_.end() || it->second.empty()) {
        held_.erase(path);
        queues_.erase(path);
        return;
    }
    auto fn = std::move(it->second.front());
    it->second.pop_front();
    Release release = [this, path]() { runNext(path); };
    fn(release);
}

OverlayBackend::OverlayBackend(BackendPtr writable, BackendPtr readonly,
                               Options opts)
    : upper_(std::move(writable)), lower_(std::move(readonly)), opts_(opts)
{
}

void
OverlayBackend::initialize(ErrCb cb)
{
    if (opts_.lazy) {
        cb(0);
        return;
    }
    eagerCopyTree("/", std::move(cb));
}

void
OverlayBackend::eagerCopyTree(const std::string &path, ErrCb cb)
{
    lower_->readdir(path, [this, path, cb](int err,
                                           std::vector<DirEntry> entries) {
        if (err) {
            cb(err);
            return;
        }
        // Copy entries sequentially (mirrors the original BrowserFS loop).
        auto entriesPtr =
            std::make_shared<std::vector<DirEntry>>(std::move(entries));
        auto step = jsvm::AsyncLoop<size_t>::make(
            [this, path, cb, entriesPtr](const auto &step, size_t i) {
                if (i >= entriesPtr->size()) {
                    cb(0);
                    return;
                }
                const DirEntry &e = (*entriesPtr)[i];
                std::string child = joinPath(path, e.name);
                // An unreadable entry is skipped: keep walking.
                auto next = [step, i](int) { (*step)(i + 1); };
                if (e.type == FileType::Directory) {
                    upper_->mkdir(child, 0755, [this, child, next](int) {
                        eagerCopyTree(child, next);
                    });
                } else if (e.type == FileType::Regular) {
                    copyUp(child, [this, next](int err2) {
                        if (!err2)
                            eagerFiles_++;
                        next(err2);
                    });
                } else {
                    next(0);
                }
            });
        (*step)(0);
    });
}

bool
OverlayBackend::isDeleted(const std::string &path) const
{
    return deleted_.count(normalizePath(path)) > 0;
}

void
OverlayBackend::markDeleted(const std::string &path)
{
    deleted_.insert(normalizePath(path));
}

void
OverlayBackend::clearDeleted(const std::string &path)
{
    deleted_.erase(normalizePath(path));
}

void
OverlayBackend::shadowDirs(const std::string &dirpath, ErrCb cb)
{
    std::string norm = normalizePath(dirpath);
    if (norm == "/") {
        cb(0);
        return;
    }
    upper_->stat(norm, [this, norm, cb](int err, const Stat &st) {
        if (err == 0) {
            cb(st.isDir() ? 0 : ENOTDIR);
            return;
        }
        shadowDirs(dirname(norm), [this, norm, cb](int perr) {
            if (perr) {
                cb(perr);
                return;
            }
            upper_->mkdir(norm, 0755, [cb](int merr) {
                cb(merr == EEXIST ? 0 : merr);
            });
        });
    });
}

void
OverlayBackend::copyUp(const std::string &path, ErrCb cb)
{
    lower_->open(path, flags::RDONLY, 0, [this, path, cb](int err,
                                                          OpenFilePtr f) {
        if (err) {
            cb(err);
            return;
        }
        f->fstat([this, path, cb, f](int serr, const Stat &st) {
            if (serr) {
                cb(serr);
                return;
            }
            f->pread(0, st.size, [this, path, cb, st](int rerr,
                                                      BufferPtr data) {
                if (rerr) {
                    cb(rerr);
                    return;
                }
                shadowDirs(dirname(path), [this, path, cb, data,
                                           st](int derr) {
                    if (derr) {
                        cb(derr);
                        return;
                    }
                    upper_->open(
                        path, flags::CREAT | flags::TRUNC | flags::WRONLY,
                        st.mode, [this, cb, data](int oerr, OpenFilePtr out) {
                            if (oerr) {
                                cb(oerr);
                                return;
                            }
                            // The lower layer's bytes are already
                            // resident in `data`; hand the window to the
                            // upper layer's zero-copy write (the
                            // callback keeps `data` alive past it).
                            out->pwriteFrom(
                                0,
                                ConstByteSpan{data->data(), data->size()},
                                [this, cb, data](int werr, size_t) {
                                    if (!werr) {
                                        copyUps_++;
                                        eagerBytes_ += data->size();
                                    }
                                    cb(werr);
                                });
                        });
                });
            });
        });
    });
}

void
OverlayBackend::stat(const std::string &path, StatCb cb)
{
    if (isDeleted(path)) {
        cb(ENOENT, Stat{});
        return;
    }
    upper_->stat(path, [this, path, cb](int err, const Stat &st) {
        if (err == 0) {
            cb(0, st);
            return;
        }
        lower_->stat(path, cb);
    });
}

void
OverlayBackend::open(const std::string &path, int oflags, uint32_t mode,
                     OpenCb cb)
{
    bool wants_write = flags::wantsWrite(oflags) || (oflags & flags::CREAT);
    if (isDeleted(path)) {
        if (!(oflags & flags::CREAT)) {
            cb(ENOENT, nullptr);
            return;
        }
        // Re-creating a deleted file: it lives in the writable layer.
        locks_.withLock(normalizePath(path),
                        [this, path, oflags, mode,
                         cb](PathLockManager::Release release) {
            clearDeleted(path);
            shadowDirs(dirname(path),
                       [this, path, oflags, mode, cb, release](int derr) {
                if (derr) {
                    release();
                    cb(derr, nullptr);
                    return;
                }
                upper_->open(path, oflags, mode,
                             [cb, release](int err, OpenFilePtr f) {
                                 release();
                                 cb(err, f);
                             });
            });
        });
        return;
    }
    if (!wants_write) {
        upper_->open(path, oflags, mode,
                     [this, path, oflags, mode, cb](int err, OpenFilePtr f) {
                         if (err == 0 || err != ENOENT) {
                             cb(err, f);
                             return;
                         }
                         lower_->open(path, oflags, mode, cb);
                     });
        return;
    }
    // Write path: serialize the (possibly multi-step) copy-up per path.
    locks_.withLock(normalizePath(path),
                    [this, path, oflags, mode,
                     cb](PathLockManager::Release release) {
        auto openUpper = [this, path, oflags, mode, cb, release]() {
            shadowDirs(dirname(path),
                       [this, path, oflags, mode, cb, release](int derr) {
                if (derr) {
                    release();
                    cb(derr, nullptr);
                    return;
                }
                upper_->open(path, oflags, mode,
                             [cb, release](int err, OpenFilePtr f) {
                                 release();
                                 cb(err, f);
                             });
            });
        };
        upper_->stat(path, [this, path, oflags, openUpper, cb,
                            release](int uerr, const Stat &) {
            if (uerr == 0) {
                openUpper();
                return;
            }
            lower_->stat(path, [this, path, oflags, openUpper, cb,
                                release](int lerr, const Stat &lst) {
                if (lerr != 0) {
                    // Brand new file (CREAT) or a genuine ENOENT.
                    openUpper();
                    return;
                }
                if (lst.isDir()) {
                    release();
                    cb(EISDIR, nullptr);
                    return;
                }
                if (oflags & flags::TRUNC) {
                    // Contents are discarded anyway; skip the copy.
                    openUpper();
                    return;
                }
                copyUp(path, [openUpper, cb, release](int cerr) {
                    if (cerr) {
                        release();
                        cb(cerr, nullptr);
                        return;
                    }
                    openUpper();
                });
            });
        });
    });
}

void
OverlayBackend::readdir(const std::string &path, DirCb cb)
{
    if (isDeleted(path)) {
        cb(ENOENT, {});
        return;
    }
    upper_->readdir(path, [this, path, cb](int uerr,
                                           std::vector<DirEntry> upper) {
        lower_->readdir(path, [this, path, cb, uerr,
                               upper = std::move(upper)](
                                  int lerr, std::vector<DirEntry> lower) {
            if (uerr != 0 && lerr != 0) {
                cb(uerr == ENOTDIR || lerr == ENOTDIR ? ENOTDIR : ENOENT,
                   {});
                return;
            }
            std::vector<DirEntry> out;
            std::set<std::string> seen;
            if (uerr == 0) {
                for (auto &e : upper) {
                    if (seen.insert(e.name).second)
                        out.push_back(e);
                }
            }
            if (lerr == 0) {
                for (auto &e : lower) {
                    if (isDeleted(joinPath(path, e.name)))
                        continue;
                    if (seen.insert(e.name).second)
                        out.push_back(e);
                }
            }
            cb(0, std::move(out));
        });
    });
}

void
OverlayBackend::mkdir(const std::string &path, uint32_t mode, ErrCb cb)
{
    stat(path, [this, path, mode, cb](int err, const Stat &) {
        if (err == 0) {
            cb(EEXIST);
            return;
        }
        clearDeleted(path);
        shadowDirs(dirname(path), [this, path, mode, cb](int derr) {
            if (derr) {
                cb(derr);
                return;
            }
            upper_->mkdir(path, mode, [cb](int merr) {
                cb(merr == EEXIST ? 0 : merr);
            });
        });
    });
}

void
OverlayBackend::rmdir(const std::string &path, ErrCb cb)
{
    readdir(path, [this, path, cb](int err, std::vector<DirEntry> entries) {
        if (err) {
            cb(err);
            return;
        }
        if (!entries.empty()) {
            cb(ENOTEMPTY);
            return;
        }
        upper_->rmdir(path, [this, path, cb](int uerr) {
            lower_->stat(path, [this, path, cb, uerr](int lerr,
                                                      const Stat &st) {
                if (lerr == 0 && st.isDir()) {
                    markDeleted(path);
                    cb(0);
                    return;
                }
                cb(uerr);
            });
        });
    });
}

void
OverlayBackend::unlink(const std::string &path, ErrCb cb)
{
    stat(path, [this, path, cb](int err, const Stat &st) {
        if (err) {
            cb(err);
            return;
        }
        if (st.isDir()) {
            cb(EISDIR);
            return;
        }
        upper_->unlink(path, [this, path, cb](int) {
            lower_->stat(path, [this, path, cb](int lerr, const Stat &) {
                if (lerr == 0)
                    markDeleted(path);
                cb(0);
            });
        });
    });
}

void
OverlayBackend::rename(const std::string &from, const std::string &to,
                       ErrCb cb)
{
    upper_->stat(from, [this, from, to, cb](int uerr, const Stat &ust) {
        lower_->stat(from, [this, from, to, cb, uerr,
                            ust](int lerr, const Stat &) {
            if (uerr != 0 && lerr != 0) {
                cb(ENOENT);
                return;
            }
            if (uerr == 0 && lerr != 0) {
                shadowDirs(dirname(to), [this, from, to, cb](int derr) {
                    if (derr) {
                        cb(derr);
                        return;
                    }
                    clearDeleted(to);
                    upper_->rename(from, to, cb);
                });
                return;
            }
            // Source (at least partly) in the underlay: copy-up + delete.
            // The destination's parent chain may itself exist only in the
            // underlay, so it must be shadowed before the upper rename.
            if (uerr != 0 && lerr == 0) {
                copyUp(from, [this, from, to, cb](int cerr) {
                    if (cerr) {
                        cb(cerr);
                        return;
                    }
                    shadowDirs(dirname(to), [this, from, to, cb](int derr) {
                        if (derr) {
                            cb(derr);
                            return;
                        }
                        markDeleted(from);
                        clearDeleted(to);
                        upper_->rename(from, to, cb);
                    });
                });
                return;
            }
            // Present in both layers (shadowed): move upper, hide lower.
            shadowDirs(dirname(to), [this, from, to, cb](int derr) {
                if (derr) {
                    cb(derr);
                    return;
                }
                markDeleted(from);
                clearDeleted(to);
                upper_->rename(from, to, cb);
            });
        });
    });
}

void
OverlayBackend::readlink(const std::string &path, StrCb cb)
{
    if (isDeleted(path)) {
        cb(ENOENT, "");
        return;
    }
    upper_->readlink(path, [this, path, cb](int err, const std::string &t) {
        if (err == 0 || err == EINVAL) {
            cb(err, t);
            return;
        }
        lower_->readlink(path, cb);
    });
}

void
OverlayBackend::symlink(const std::string &target, const std::string &path,
                        ErrCb cb)
{
    stat(path, [this, target, path, cb](int err, const Stat &) {
        if (err == 0) {
            cb(EEXIST);
            return;
        }
        clearDeleted(path);
        shadowDirs(dirname(path), [this, target, path, cb](int derr) {
            if (derr) {
                cb(derr);
                return;
            }
            upper_->symlink(target, path, cb);
        });
    });
}

void
OverlayBackend::utimes(const std::string &path, int64_t atime_us,
                       int64_t mtime_us, ErrCb cb)
{
    if (isDeleted(path)) {
        cb(ENOENT);
        return;
    }
    upper_->stat(path, [this, path, atime_us, mtime_us,
                        cb](int uerr, const Stat &) {
        if (uerr == 0) {
            upper_->utimes(path, atime_us, mtime_us, cb);
            return;
        }
        lower_->stat(path, [this, path, atime_us, mtime_us,
                            cb](int lerr, const Stat &lst) {
            if (lerr) {
                cb(lerr);
                return;
            }
            if (lst.isDir()) {
                cb(0); // directory times in the underlay: best effort
                return;
            }
            copyUp(path, [this, path, atime_us, mtime_us, cb](int cerr) {
                if (cerr) {
                    cb(cerr);
                    return;
                }
                upper_->utimes(path, atime_us, mtime_us, cb);
            });
        });
    });
}

} // namespace bfs
} // namespace browsix
