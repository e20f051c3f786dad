/**
 * @file
 * Filesystem tests: paths, in-memory backend, HTTP-lazy backend (with
 * cache + network counters), overlay (copy-up, whiteouts, locking,
 * lazy-vs-eager), VFS mounts and symlink resolution, plus a randomized
 * model-based property test of the overlay.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <random>

#include "bfs/http_backend.h"
#include "bfs/inmem.h"
#include "bfs/overlay.h"
#include "bfs/path.h"
#include "bfs/vfs.h"
#include "jsvm/util.h"

using namespace browsix;
using namespace browsix::bfs;

namespace {

/** Synchronous helpers for inline backends. */
int
statOf(Backend &b, const std::string &path, Stat *out = nullptr)
{
    int result = -1;
    b.stat(path, [&](int err, const Stat &st) {
        result = err;
        if (out)
            *out = st;
    });
    return result;
}

int
writeWhole(Backend &b, const std::string &path, const std::string &data)
{
    int result = -1;
    b.open(path, flags::CREAT | flags::TRUNC | flags::WRONLY, 0644,
           [&](int err, OpenFilePtr f) {
               if (err) {
                   result = err;
                   return;
               }
               f->pwrite(0, reinterpret_cast<const uint8_t *>(data.data()),
                         data.size(),
                         [&](int werr, size_t) { result = werr; });
           });
    return result;
}

int
readWhole(Backend &b, const std::string &path, std::string &out)
{
    int result = -1;
    b.open(path, flags::RDONLY, 0, [&](int err, OpenFilePtr f) {
        if (err) {
            result = err;
            return;
        }
        f->fstat([&, f](int serr, const Stat &st) {
            if (serr) {
                result = serr;
                return;
            }
            f->pread(0, st.size, [&](int rerr, BufferPtr data) {
                result = rerr;
                if (!rerr)
                    out.assign(data->begin(), data->end());
            });
        });
    });
    return result;
}

std::vector<std::string>
namesOf(Backend &b, const std::string &path, int *err_out = nullptr)
{
    std::vector<std::string> names;
    b.readdir(path, [&](int err, std::vector<DirEntry> es) {
        if (err_out)
            *err_out = err;
        for (auto &e : es)
            names.push_back(e.name);
    });
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace

// ---------- path helpers ----------

struct PathCase
{
    const char *in;
    const char *want;
};

class PathNormalize : public ::testing::TestWithParam<PathCase>
{
};

TEST_P(PathNormalize, Normalizes)
{
    EXPECT_EQ(normalizePath(GetParam().in), GetParam().want);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, PathNormalize,
    ::testing::Values(PathCase{"/", "/"}, PathCase{"", "/"},
                      PathCase{"/a/b", "/a/b"}, PathCase{"a/b", "/a/b"},
                      PathCase{"/a//b/", "/a/b"},
                      PathCase{"/a/./b", "/a/b"},
                      PathCase{"/a/../b", "/b"},
                      PathCase{"/../..", "/"},
                      PathCase{"/a/b/../../c", "/c"},
                      PathCase{"/a/b/..", "/a"}));

TEST(Path, JoinRespectsAbsoluteRhs)
{
    EXPECT_EQ(joinPath("/a/b", "c"), "/a/b/c");
    EXPECT_EQ(joinPath("/a/b", "/c"), "/c");
    EXPECT_EQ(joinPath("/a", "../c"), "/c");
}

TEST(Path, DirnameBasename)
{
    EXPECT_EQ(bfs::dirname("/a/b/c"), "/a/b");
    EXPECT_EQ(bfs::dirname("/a"), "/");
    EXPECT_EQ(bfs::dirname("/"), "/");
    EXPECT_EQ(bfs::basename("/a/b/c"), "c");
    EXPECT_EQ(bfs::basename("/"), "");
}

TEST(Path, PrefixMatchingIsComponentWise)
{
    EXPECT_TRUE(pathHasPrefix("/a/b/c", "/a/b"));
    EXPECT_TRUE(pathHasPrefix("/a/b", "/a/b"));
    EXPECT_FALSE(pathHasPrefix("/a/bc", "/a/b"))
        << "prefix must end at a component boundary";
    EXPECT_TRUE(pathHasPrefix("/anything", "/"));
}

// ".." must never climb above the root, no matter how it is spelled, and
// trailing/doubled slashes must collapse — these are the inputs a hostile
// or sloppy process hands the VFS.
INSTANTIATE_TEST_SUITE_P(
    PathEdges, PathNormalize,
    ::testing::Values(PathCase{"/../a", "/a"}, PathCase{"..", "/"},
                      PathCase{"../..", "/"},
                      PathCase{"/a/../../..", "/"},
                      PathCase{"/a/../../etc/passwd", "/etc/passwd"},
                      PathCase{"./..", "/"}, PathCase{"a/..", "/"},
                      PathCase{"/a/b/", "/a/b"}, PathCase{"/a/", "/a"},
                      PathCase{"///", "/"}, PathCase{"/a//b//", "/a/b"},
                      PathCase{"/a/./", "/a"},
                      PathCase{"/..//../b/", "/b"}));

TEST(Path, TrailingSlashVariantsAgree)
{
    EXPECT_EQ(bfs::dirname("/a/b/"), "/a");
    EXPECT_EQ(bfs::basename("/a/b/"), "b");
    EXPECT_EQ(joinPath("/a/b/", "../c"), "/a/c");
    EXPECT_EQ(joinPath("/a/", "b/"), "/a/b");
    EXPECT_EQ(joinPath("/", ".."), "/");
    EXPECT_EQ(joinPath("/a", "..//..//.."), "/");
    EXPECT_EQ(splitPath("///a//b/"),
              (std::vector<std::string>{"a", "b"}));
}

// ---------- in-memory backend ----------

TEST(InMem, WriteThenReadBack)
{
    InMemBackend fs;
    ASSERT_EQ(writeWhole(fs, "/f.txt", "hello"), 0);
    std::string got;
    ASSERT_EQ(readWhole(fs, "/f.txt", got), 0);
    EXPECT_EQ(got, "hello");
}

TEST(InMem, OpenMissingWithoutCreatFails)
{
    InMemBackend fs;
    int err = -1;
    fs.open("/nope", flags::RDONLY, 0,
            [&](int e, OpenFilePtr) { err = e; });
    EXPECT_EQ(err, ENOENT);
}

TEST(InMem, ExclFailsOnExisting)
{
    InMemBackend fs;
    writeWhole(fs, "/f", "x");
    int err = -1;
    fs.open("/f", flags::CREAT | flags::EXCL | flags::WRONLY, 0644,
            [&](int e, OpenFilePtr) { err = e; });
    EXPECT_EQ(err, EEXIST);
}

TEST(InMem, TruncClearsContent)
{
    InMemBackend fs;
    writeWhole(fs, "/f", "longcontent");
    writeWhole(fs, "/f", "x"); // helper uses TRUNC
    std::string got;
    readWhole(fs, "/f", got);
    EXPECT_EQ(got, "x");
}

TEST(InMem, PreadBeyondEofIsEmpty)
{
    InMemBackend fs;
    writeWhole(fs, "/f", "abc");
    fs.open("/f", flags::RDONLY, 0, [&](int, OpenFilePtr f) {
        f->pread(100, 10, [&](int err, BufferPtr data) {
            EXPECT_EQ(err, 0);
            EXPECT_TRUE(data->empty());
        });
    });
}

TEST(InMem, PwriteExtendsWithZeros)
{
    InMemBackend fs;
    writeWhole(fs, "/f", "ab");
    fs.open("/f", flags::WRONLY, 0, [&](int, OpenFilePtr f) {
        uint8_t b = 'z';
        f->pwrite(5, &b, 1, [](int, size_t) {});
    });
    std::string got;
    readWhole(fs, "/f", got);
    EXPECT_EQ(got, std::string("ab\0\0\0z", 6));
}

namespace {

OpenFilePtr
openRw(Backend &b, const std::string &path)
{
    OpenFilePtr out;
    b.open(path, flags::RDWR, 0, [&](int err, OpenFilePtr f) {
        EXPECT_EQ(err, 0);
        out = f;
    });
    return out;
}

BufferPtr
preadOf(OpenFile &f, uint64_t off, size_t len)
{
    BufferPtr out;
    f.pread(off, len, [&](int err, BufferPtr data) {
        EXPECT_EQ(err, 0);
        out = data;
    });
    return out;
}

std::string
str(const Buffer &b)
{
    return std::string(b.begin(), b.end());
}

} // namespace

TEST(InMem, WholeFilePreadSharesTheFileBufferPartialCopies)
{
    InMemBackend fs;
    writeWhole(fs, "/f", "abcdef");
    OpenFilePtr f = openRw(fs, "/f");
    BufferPtr whole = preadOf(*f, 0, 6);
    EXPECT_EQ(str(*whole), "abcdef");
    EXPECT_EQ(preadOf(*f, 0, 4096).get(), whole.get())
        << "a read past EOF from offset 0 is still the whole file";
    BufferPtr head = preadOf(*f, 0, 3);
    BufferPtr tail = preadOf(*f, 2, 4096);
    EXPECT_NE(head.get(), whole.get());
    EXPECT_NE(tail.get(), whole.get());
    EXPECT_EQ(str(*head), "abc");
    EXPECT_EQ(str(*tail), "cdef");
}

TEST(InMem, EveryMutatorCopiesASharedBufferFirst)
{
    struct Case
    {
        const char *name;
        std::function<void(OpenFile &)> mutate;
        std::string after;
    };
    const uint8_t xy[] = {'X', 'Y'};
    std::vector<Case> cases = {
        {"pwrite",
         [&](OpenFile &f) { f.pwrite(1, xy, 2, [](int, size_t) {}); },
         "aXYdef"},
        {"pwriteFrom",
         [&](OpenFile &f) {
             f.pwriteFrom(4, ConstByteSpan{xy, 2}, [](int, size_t) {});
         },
         "abcdXY"},
        {"ftruncate", [](OpenFile &f) { f.ftruncate(2, [](int) {}); },
         "ab"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        InMemBackend fs;
        writeWhole(fs, "/f", "abcdef");
        OpenFilePtr f = openRw(fs, "/f");
        BufferPtr before = preadOf(*f, 0, 4096);
        c.mutate(*f);
        EXPECT_EQ(str(*before), "abcdef")
            << "a reader's whole-file buffer must never change under it";
        std::string got;
        readWhole(fs, "/f", got);
        EXPECT_EQ(got, c.after);
        EXPECT_NE(preadOf(*f, 0, 4096).get(), before.get());
    }
}

TEST(InMem, SharedWriteFileCopiesBeforeItsFirstWrite)
{
    // writeFile(path, BufferPtr) installs the caller's buffer itself (boot
    // stages every executable bundle this way); the file's first write
    // copies it, so the caller's bytes never change.
    InMemBackend fs;
    auto shared = std::make_shared<Buffer>(Buffer{'a', 'b', 'c'});
    ASSERT_EQ(fs.writeFile("/f", BufferPtr(shared)), 0);
    OpenFilePtr f = openRw(fs, "/f");
    EXPECT_EQ(preadOf(*f, 0, 4096).get(), shared.get());
    const uint8_t x = 'X';
    f->pwrite(0, &x, 1, [](int, size_t) {});
    EXPECT_EQ(str(*shared), "abc");
    EXPECT_EQ(str(*preadOf(*f, 0, 4096)), "Xbc");
}

TEST(InMem, UnsharedWritesStayInPlace)
{
    // Copy-on-write copies only while someone holds the buffer.
    InMemBackend fs;
    writeWhole(fs, "/f", "abcdef");
    OpenFilePtr f = openRw(fs, "/f");
    const Buffer *buf = preadOf(*f, 0, 4096).get(); // reference dropped
    const uint8_t z = 'Z';
    f->pwrite(0, &z, 1, [](int, size_t) {});
    f->ftruncate(3, [](int) {});
    BufferPtr now = preadOf(*f, 0, 4096);
    EXPECT_EQ(now.get(), buf);
    EXPECT_EQ(str(*now), "Zbc");
}

TEST(InMem, MkdirRmdirSemantics)
{
    InMemBackend fs;
    int err = -1;
    fs.mkdir("/d", 0755, [&](int e) { err = e; });
    EXPECT_EQ(err, 0);
    fs.mkdir("/d", 0755, [&](int e) { err = e; });
    EXPECT_EQ(err, EEXIST);
    writeWhole(fs, "/d/f", "x");
    fs.rmdir("/d", [&](int e) { err = e; });
    EXPECT_EQ(err, ENOTEMPTY);
    fs.unlink("/d/f", [&](int e) { err = e; });
    EXPECT_EQ(err, 0);
    fs.rmdir("/d", [&](int e) { err = e; });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(statOf(fs, "/d"), ENOENT);
}

TEST(InMem, MkdirWithoutParentFails)
{
    InMemBackend fs;
    int err = -1;
    fs.mkdir("/a/b/c", 0755, [&](int e) { err = e; });
    EXPECT_EQ(err, ENOENT);
    EXPECT_EQ(fs.mkdirAll("/a/b/c"), 0);
    EXPECT_EQ(statOf(fs, "/a/b/c"), 0);
}

TEST(InMem, UnlinkedFileStaysReadableThroughOpenHandle)
{
    InMemBackend fs;
    writeWhole(fs, "/f", "data");
    OpenFilePtr held;
    fs.open("/f", flags::RDONLY, 0,
            [&](int, OpenFilePtr f) { held = f; });
    int err = -1;
    fs.unlink("/f", [&](int e) { err = e; });
    ASSERT_EQ(err, 0);
    held->pread(0, 4, [&](int rerr, BufferPtr data) {
        EXPECT_EQ(rerr, 0);
        EXPECT_EQ(data->size(), 4u);
    });
}

TEST(InMem, RenameMovesAndReplaces)
{
    InMemBackend fs;
    writeWhole(fs, "/a", "A");
    writeWhole(fs, "/b", "B");
    int err = -1;
    fs.rename("/a", "/b", [&](int e) { err = e; });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(statOf(fs, "/a"), ENOENT);
    std::string got;
    readWhole(fs, "/b", got);
    EXPECT_EQ(got, "A");
}

TEST(InMem, SymlinkReadlink)
{
    InMemBackend fs;
    writeWhole(fs, "/target", "T");
    int err = -1;
    fs.symlink("/target", "/link", [&](int e) { err = e; });
    ASSERT_EQ(err, 0);
    std::string t;
    fs.readlink("/link", [&](int e, const std::string &s) {
        err = e;
        t = s;
    });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(t, "/target");
    Stat st;
    ASSERT_EQ(statOf(fs, "/link", &st), 0);
    EXPECT_TRUE(st.isSymlink()) << "backend stat is lstat-like";
}

TEST(InMem, ReaddirListsEntriesWithTypes)
{
    InMemBackend fs;
    fs.mkdirAll("/d/sub");
    fs.writeFile("/d/f", std::string("x"));
    std::vector<DirEntry> entries;
    fs.readdir("/d", [&](int, std::vector<DirEntry> es) { entries = es; });
    ASSERT_EQ(entries.size(), 2u);
    std::map<std::string, FileType> types;
    for (auto &e : entries)
        types[e.name] = e.type;
    EXPECT_EQ(types["sub"], FileType::Directory);
    EXPECT_EQ(types["f"], FileType::Regular);
}

TEST(InMem, UtimesUpdatesStat)
{
    InMemBackend fs;
    fs.writeFile("/f", std::string("x"));
    int err = -1;
    fs.utimes("/f", 111, 222, [&](int e) { err = e; });
    ASSERT_EQ(err, 0);
    Stat st;
    statOf(fs, "/f", &st);
    EXPECT_EQ(st.atimeUs, 111);
    EXPECT_EQ(st.mtimeUs, 222);
}

// ---------- HTTP backend ----------

TEST(HttpBackend, ReadOnlySemantics)
{
    auto store = std::make_shared<HttpStore>();
    store->put("/f", std::string("remote"));
    auto cache = std::make_shared<BrowserHttpCache>();
    HttpBackend fs(store, cache, nullptr, NetworkParams{});
    EXPECT_TRUE(fs.readOnly());
    int err = -1;
    fs.open("/f", flags::WRONLY, 0, [&](int e, OpenFilePtr) { err = e; });
    EXPECT_EQ(err, EROFS);
    fs.unlink("/f", [&](int e) { err = e; });
    EXPECT_EQ(err, EROFS);
}

TEST(HttpBackend, FetchesAndCaches)
{
    auto store = std::make_shared<HttpStore>();
    store->put("/dir/f", std::string("remote-data"));
    auto cache = std::make_shared<BrowserHttpCache>();
    HttpBackend fs(store, cache, nullptr, NetworkParams{});

    std::string got;
    EXPECT_EQ(readWhole(fs, "/dir/f", got), 0);
    EXPECT_EQ(got, "remote-data");
    uint64_t fetches_after_first = fs.fetchCount();
    got.clear();
    EXPECT_EQ(readWhole(fs, "/dir/f", got), 0);
    EXPECT_EQ(fs.fetchCount(), fetches_after_first)
        << "second access must hit the browser cache";
    EXPECT_GE(cache->hits, 1u);
}

TEST(HttpBackend, StatAndReaddirFromIndex)
{
    auto store = std::make_shared<HttpStore>();
    store->put("/a/x", std::string("1234"));
    store->put("/a/y", std::string("56"));
    store->put("/b", std::string("7"));
    auto cache = std::make_shared<BrowserHttpCache>();
    HttpBackend fs(store, cache, nullptr, NetworkParams{});

    Stat st;
    ASSERT_EQ(statOf(fs, "/a/x", &st), 0);
    EXPECT_EQ(st.size, 4u);
    ASSERT_EQ(statOf(fs, "/a", &st), 0);
    EXPECT_TRUE(st.isDir());
    EXPECT_EQ(namesOf(fs, "/a"), (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(namesOf(fs, "/"), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(statOf(fs, "/missing"), ENOENT);
}

TEST(HttpBackend, LatencyIsScheduledOnLoop)
{
    auto store = std::make_shared<HttpStore>();
    store->put("/f", std::string(1000, 'x'));
    auto cache = std::make_shared<BrowserHttpCache>();
    jsvm::EventLoop loop;
    HttpBackend fs(store, cache, &loop,
                   NetworkParams{/*rttUs=*/3000, /*bytesPerUs=*/1.0});

    bool done = false;
    int64_t t0 = jsvm::nowUs();
    fs.open("/f", flags::RDONLY, 0, [&](int err, OpenFilePtr) {
        EXPECT_EQ(err, 0);
        done = true;
    });
    EXPECT_FALSE(done) << "completion must be asynchronous";
    while (!done && jsvm::nowUs() - t0 < 2000000)
        loop.pumpOne(true);
    EXPECT_TRUE(done);
    // index fetch + file fetch, each >= rtt
    EXPECT_GE(jsvm::nowUs() - t0, 6000);
}

// ---------- overlay ----------

struct OverlayRig
{
    std::shared_ptr<InMemBackend> upper = std::make_shared<InMemBackend>();
    std::shared_ptr<InMemBackend> lower = std::make_shared<InMemBackend>();
    std::shared_ptr<OverlayBackend> fs;

    explicit OverlayRig(bool lazy = true)
    {
        lower->writeFile("/ro.txt", std::string("read-only"));
        lower->mkdirAll("/pkg");
        lower->writeFile("/pkg/a.sty", std::string("AAA"));
        lower->writeFile("/pkg/b.sty", std::string("BBB"));
        fs = std::make_shared<OverlayBackend>(
            upper, lower, OverlayBackend::Options(lazy));
    }
};

TEST(Overlay, ReadsFallThroughToLower)
{
    OverlayRig rig;
    std::string got;
    EXPECT_EQ(readWhole(*rig.fs, "/ro.txt", got), 0);
    EXPECT_EQ(got, "read-only");
}

TEST(Overlay, WriteCopiesUpAndShadowsLower)
{
    OverlayRig rig;
    int err = -1;
    rig.fs->open("/ro.txt", flags::WRONLY, 0, [&](int e, OpenFilePtr f) {
        err = e;
        uint8_t b = 'X';
        f->pwrite(0, &b, 1, [](int, size_t) {});
    });
    ASSERT_EQ(err, 0);
    EXPECT_EQ(rig.fs->copyUpCount(), 1u);
    std::string got;
    readWhole(*rig.fs, "/ro.txt", got);
    EXPECT_EQ(got, "Xead-only");
    // lower unchanged
    std::string l;
    readWhole(*rig.lower, "/ro.txt", l);
    EXPECT_EQ(l, "read-only");
}

TEST(Overlay, TruncOpenSkipsCopyUp)
{
    OverlayRig rig;
    writeWhole(*rig.fs, "/ro.txt", "new");
    EXPECT_EQ(rig.fs->copyUpCount(), 0u)
        << "O_TRUNC discards contents; copying them up is wasted work";
    std::string got;
    readWhole(*rig.fs, "/ro.txt", got);
    EXPECT_EQ(got, "new");
}

TEST(Overlay, UnlinkLowerFileCreatesWhiteout)
{
    OverlayRig rig;
    int err = -1;
    rig.fs->unlink("/ro.txt", [&](int e) { err = e; });
    ASSERT_EQ(err, 0);
    EXPECT_EQ(statOf(*rig.fs, "/ro.txt"), ENOENT);
    // still present underneath
    EXPECT_EQ(statOf(*rig.lower, "/ro.txt"), 0);
    // and absent from listings
    auto names = namesOf(*rig.fs, "/");
    EXPECT_EQ(std::count(names.begin(), names.end(), "ro.txt"), 0);
}

TEST(Overlay, RecreateAfterUnlink)
{
    OverlayRig rig;
    rig.fs->unlink("/ro.txt", [](int) {});
    EXPECT_EQ(writeWhole(*rig.fs, "/ro.txt", "reborn"), 0);
    std::string got;
    readWhole(*rig.fs, "/ro.txt", got);
    EXPECT_EQ(got, "reborn");
}

TEST(Overlay, ReaddirMergesLayers)
{
    OverlayRig rig;
    rig.upper->mkdirAll("/pkg");
    rig.upper->writeFile("/pkg/c.sty", std::string("CCC"));
    EXPECT_EQ(namesOf(*rig.fs, "/pkg"),
              (std::vector<std::string>{"a.sty", "b.sty", "c.sty"}));
}

TEST(Overlay, ShadowedFilePrefersUpper)
{
    OverlayRig rig;
    rig.upper->mkdirAll("/pkg");
    rig.upper->writeFile("/pkg/a.sty", std::string("UPPER"));
    std::string got;
    readWhole(*rig.fs, "/pkg/a.sty", got);
    EXPECT_EQ(got, "UPPER");
    auto names = namesOf(*rig.fs, "/pkg");
    EXPECT_EQ(std::count(names.begin(), names.end(), "a.sty"), 1)
        << "no duplicate entries for shadowed files";
}

TEST(Overlay, RenameFromLowerLeavesWhiteout)
{
    OverlayRig rig;
    int err = -1;
    rig.fs->rename("/ro.txt", "/moved.txt", [&](int e) { err = e; });
    ASSERT_EQ(err, 0);
    EXPECT_EQ(statOf(*rig.fs, "/ro.txt"), ENOENT);
    std::string got;
    readWhole(*rig.fs, "/moved.txt", got);
    EXPECT_EQ(got, "read-only");
}

TEST(Overlay, RenameUpperFileIntoLowerOnlyDirectory)
{
    // The destination's parent exists only in the underlay: rename must
    // shadow the directory chain into the writable layer first.
    OverlayRig rig;
    writeWhole(*rig.fs, "/new.txt", "fresh");
    int err = -1;
    rig.fs->rename("/new.txt", "/pkg/new.sty", [&](int e) { err = e; });
    ASSERT_EQ(err, 0);
    std::string got;
    EXPECT_EQ(readWhole(*rig.fs, "/pkg/new.sty", got), 0);
    EXPECT_EQ(got, "fresh");
    EXPECT_EQ(statOf(*rig.fs, "/new.txt"), ENOENT);
    // The underlay saw none of it.
    EXPECT_EQ(statOf(*rig.lower, "/pkg/new.sty"), ENOENT);
    auto names = namesOf(*rig.fs, "/pkg");
    EXPECT_EQ(std::count(names.begin(), names.end(), "new.sty"), 1);
}

TEST(Overlay, RenameUpperDirectoryIntoLowerOnlyParent)
{
    OverlayRig rig;
    rig.upper->mkdirAll("/d");
    rig.upper->writeFile("/d/f.txt", std::string("inside"));
    int err = -1;
    rig.fs->rename("/d", "/pkg/d", [&](int e) { err = e; });
    ASSERT_EQ(err, 0) << "directory rename must shadow /pkg like a file "
                         "rename does";
    std::string got;
    EXPECT_EQ(readWhole(*rig.fs, "/pkg/d/f.txt", got), 0);
    EXPECT_EQ(got, "inside");
    EXPECT_EQ(statOf(*rig.fs, "/d"), ENOENT);
}

TEST(Overlay, RenameShadowedFileHidesLowerCopy)
{
    OverlayRig rig;
    rig.upper->mkdirAll("/pkg");
    rig.upper->writeFile("/pkg/a.sty", std::string("UPPER"));
    int err = -1;
    rig.fs->rename("/pkg/a.sty", "/pkg/z.sty", [&](int e) { err = e; });
    ASSERT_EQ(err, 0);
    std::string got;
    readWhole(*rig.fs, "/pkg/z.sty", got);
    EXPECT_EQ(got, "UPPER") << "the upper version moves";
    EXPECT_EQ(statOf(*rig.fs, "/pkg/a.sty"), ENOENT)
        << "the lower copy must not reappear at the old name";
    EXPECT_EQ(statOf(*rig.lower, "/pkg/a.sty"), 0) << "underlay untouched";
}

TEST(Overlay, RenameOntoExistingLowerTargetShadowsIt)
{
    OverlayRig rig;
    int err = -1;
    rig.fs->rename("/ro.txt", "/pkg/a.sty", [&](int e) { err = e; });
    ASSERT_EQ(err, 0);
    std::string got;
    readWhole(*rig.fs, "/pkg/a.sty", got);
    EXPECT_EQ(got, "read-only") << "renamed content replaces the target";
    auto names = namesOf(*rig.fs, "/pkg");
    EXPECT_EQ(std::count(names.begin(), names.end(), "a.sty"), 1)
        << "no duplicate entry for the replaced target";
    EXPECT_EQ(statOf(*rig.fs, "/ro.txt"), ENOENT);
}

TEST(Overlay, RenameMissingSourceIsEnoent)
{
    OverlayRig rig;
    int err = -1;
    rig.fs->rename("/nope", "/also-nope", [&](int e) { err = e; });
    EXPECT_EQ(err, ENOENT);
}

TEST(Overlay, UnlinkAfterCrossLayerRenameLeavesNoGhosts)
{
    // Move a lower file, then delete it at the new name: both names must
    // read ENOENT even though the underlay still holds the original.
    OverlayRig rig;
    rig.fs->rename("/ro.txt", "/moved.txt", [](int) {});
    int err = -1;
    rig.fs->unlink("/moved.txt", [&](int e) { err = e; });
    ASSERT_EQ(err, 0);
    EXPECT_EQ(statOf(*rig.fs, "/moved.txt"), ENOENT);
    EXPECT_EQ(statOf(*rig.fs, "/ro.txt"), ENOENT);
    EXPECT_EQ(statOf(*rig.lower, "/ro.txt"), 0);
    auto names = namesOf(*rig.fs, "/");
    EXPECT_EQ(std::count(names.begin(), names.end(), "moved.txt"), 0);
    EXPECT_EQ(std::count(names.begin(), names.end(), "ro.txt"), 0);
}

TEST(Overlay, UnlinkErrors)
{
    OverlayRig rig;
    int err = -1;
    rig.fs->unlink("/nope", [&](int e) { err = e; });
    EXPECT_EQ(err, ENOENT);
    err = -1;
    rig.fs->unlink("/pkg", [&](int e) { err = e; });
    EXPECT_EQ(err, EISDIR) << "directories take rmdir, not unlink";
}

TEST(Overlay, UnlinkShadowedFileRemovesBothViews)
{
    OverlayRig rig;
    rig.upper->mkdirAll("/pkg");
    rig.upper->writeFile("/pkg/a.sty", std::string("UPPER"));
    int err = -1;
    rig.fs->unlink("/pkg/a.sty", [&](int e) { err = e; });
    ASSERT_EQ(err, 0);
    EXPECT_EQ(statOf(*rig.fs, "/pkg/a.sty"), ENOENT)
        << "neither the upper copy nor the lower copy may survive";
    auto names = namesOf(*rig.fs, "/pkg");
    EXPECT_EQ(std::count(names.begin(), names.end(), "a.sty"), 0);
}

TEST(Overlay, LazyDoesNotTouchLowerAtInit)
{
    // The §3.6 change: BrowserFS originally read every underlay file at
    // initialization; Browsix made it lazy.
    auto store = std::make_shared<HttpStore>();
    for (int i = 0; i < 20; i++)
        store->put("/f" + std::to_string(i), std::string(1000, 'x'));
    auto cache = std::make_shared<BrowserHttpCache>();
    auto http = std::make_shared<HttpBackend>(store, cache, nullptr,
                                              NetworkParams{});
    auto upper = std::make_shared<InMemBackend>();
    OverlayBackend lazy(upper, http, OverlayBackend::Options(true));
    int err = -1;
    lazy.initialize([&](int e) { err = e; });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(http->bytesFetched(), 0u) << "lazy init transfers nothing";
}

TEST(Overlay, EagerInitCopiesEverything)
{
    auto store = std::make_shared<HttpStore>();
    for (int i = 0; i < 20; i++)
        store->put("/f" + std::to_string(i), std::string(1000, 'x'));
    auto cache = std::make_shared<BrowserHttpCache>();
    auto http = std::make_shared<HttpBackend>(store, cache, nullptr,
                                              NetworkParams{});
    auto upper = std::make_shared<InMemBackend>();
    OverlayBackend eager(upper, http, OverlayBackend::Options(false));
    int err = -1;
    eager.initialize([&](int e) { err = e; });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(eager.eagerFilesCopied(), 20u);
    EXPECT_GE(http->bytesFetched(), 20000u);
    std::string got;
    EXPECT_EQ(readWhole(*upper, "/f3", got), 0);
}

TEST(PathLocks, SerializesCriticalSections)
{
    PathLockManager locks;
    std::vector<int> order;
    PathLockManager::Release rel1;
    locks.withLock("/p", [&](PathLockManager::Release r) {
        order.push_back(1);
        rel1 = r; // hold the lock
    });
    locks.withLock("/p", [&](PathLockManager::Release r) {
        order.push_back(2);
        r();
    });
    locks.withLock("/q", [&](PathLockManager::Release r) {
        order.push_back(3); // different path: immediate
        r();
    });
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    EXPECT_EQ(locks.contentionCount(), 1u);
    rel1(); // now the queued /p holder runs
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// ---------- VFS ----------

TEST(Vfs, MountResolutionPrefersLongestPrefix)
{
    auto root = std::make_shared<InMemBackend>();
    auto sub = std::make_shared<InMemBackend>();
    root->writeFile("/f", std::string("root"));
    sub->writeFile("/f", std::string("sub"));
    Vfs vfs;
    vfs.mount("/", root);
    vfs.mount("/sub", sub);
    Buffer data;
    ASSERT_EQ(vfs.readFileSync("/f", data), 0);
    EXPECT_EQ(std::string(data.begin(), data.end()), "root");
    ASSERT_EQ(vfs.readFileSync("/sub/f", data), 0);
    EXPECT_EQ(std::string(data.begin(), data.end()), "sub");
}

TEST(Vfs, SubmountAppearsInParentListing)
{
    auto root = std::make_shared<InMemBackend>();
    auto sub = std::make_shared<InMemBackend>();
    Vfs vfs;
    vfs.mount("/", root);
    vfs.mount("/texlive", sub);
    std::vector<std::string> names;
    vfs.readdir("/", [&](int, std::vector<DirEntry> es) {
        for (auto &e : es)
            names.push_back(e.name);
    });
    EXPECT_NE(std::find(names.begin(), names.end(), "texlive"),
              names.end());
}

TEST(Vfs, StatFollowsSymlinksLstatDoesNot)
{
    auto root = std::make_shared<InMemBackend>();
    root->writeFile("/target", std::string("T"));
    Vfs vfs;
    vfs.mount("/", root);
    bool done = false;
    vfs.symlink("/target", "/link", [&](int e) {
        EXPECT_EQ(e, 0);
        done = true;
    });
    ASSERT_TRUE(done);
    Stat st;
    ASSERT_EQ(vfs.statSync("/link", st), 0);
    EXPECT_TRUE(st.isFile());
    vfs.lstat("/link", [&](int e, const Stat &lst) {
        EXPECT_EQ(e, 0);
        EXPECT_TRUE(lst.isSymlink());
    });
}

TEST(Vfs, OpenThroughSymlink)
{
    auto root = std::make_shared<InMemBackend>();
    root->writeFile("/bin/dash", std::string("real"));
    Vfs vfs;
    vfs.mount("/", root);
    root->symlink("/bin/dash", "/bin/sh", [](int) {});
    Buffer data;
    ASSERT_EQ(vfs.readFileSync("/bin/sh", data), 0);
    EXPECT_EQ(std::string(data.begin(), data.end()), "real");
}

TEST(Vfs, SymlinkLoopIsDetected)
{
    auto root = std::make_shared<InMemBackend>();
    Vfs vfs;
    vfs.mount("/", root);
    root->symlink("/b", "/a", [](int) {});
    root->symlink("/a", "/b", [](int) {});
    int err = 0;
    vfs.stat("/a", [&](int e, const Stat &) { err = e; });
    EXPECT_EQ(err, ELOOP);
}

TEST(Vfs, CrossBackendRenameIsExdev)
{
    auto root = std::make_shared<InMemBackend>();
    auto sub = std::make_shared<InMemBackend>();
    root->writeFile("/f", std::string("x"));
    Vfs vfs;
    vfs.mount("/", root);
    vfs.mount("/sub", sub);
    int err = 0;
    vfs.rename("/f", "/sub/f", [&](int e) { err = e; });
    EXPECT_EQ(err, EXDEV);
}

// ---------- model-based property test of the overlay ----------

TEST(OverlayProperty, RandomOpsMatchModel)
{
    // The overlay over a pre-populated lower layer must be functionally
    // indistinguishable from a plain mutable filesystem with the same
    // initial content.
    std::mt19937 rng(1234);
    for (int round = 0; round < 20; round++) {
        auto upper = std::make_shared<InMemBackend>();
        auto lower = std::make_shared<InMemBackend>();
        std::map<std::string, std::string> model;
        for (int i = 0; i < 6; i++) {
            std::string name = "/f" + std::to_string(i);
            std::string content = "init" + std::to_string(i);
            lower->writeFile(name, content);
            model[name] = content;
        }
        OverlayBackend fs(upper, lower, OverlayBackend::Options(true));

        for (int step = 0; step < 60; step++) {
            std::string path = "/f" + std::to_string(rng() % 8);
            switch (rng() % 4) {
              case 0: { // write
                std::string content = "v" + std::to_string(step);
                if (writeWhole(fs, path, content) == 0)
                    model[path] = content;
                break;
              }
              case 1: { // unlink
                int err = -1;
                fs.unlink(path, [&](int e) { err = e; });
                EXPECT_EQ(err == 0, model.count(path) == 1)
                    << "unlink " << path << " divergence";
                model.erase(path);
                break;
              }
              case 2: { // read
                std::string got;
                int err = readWhole(fs, path, got);
                if (model.count(path)) {
                    EXPECT_EQ(err, 0) << path;
                    EXPECT_EQ(got, model[path]) << path;
                } else {
                    EXPECT_EQ(err, ENOENT) << path;
                }
                break;
              }
              case 3: { // stat
                Stat st;
                int err = statOf(fs, path, &st);
                if (model.count(path)) {
                    EXPECT_EQ(err, 0);
                    EXPECT_EQ(st.size, model[path].size());
                } else {
                    EXPECT_EQ(err, ENOENT);
                }
                break;
              }
            }
        }
        // Final listing must equal the model's key set.
        auto names = namesOf(fs, "/");
        std::vector<std::string> want;
        for (auto &[k, v] : model)
            want.push_back(k.substr(1));
        EXPECT_EQ(names, want);
    }
}

// ---------- zero-copy preadInto ----------

TEST(PreadInto, InMemFillsWindowAndClampsToSpan)
{
    InMemBackend fs;
    fs.writeFile("/f", std::string("abcdefghij"));
    OpenFilePtr f;
    fs.open("/f", flags::RDONLY, 0,
            [&](int, OpenFilePtr file) { f = std::move(file); });
    ASSERT_TRUE(f);

    // A 4-byte window at offset 2 gets exactly "cdef"; the sentinel
    // bytes around the window must never be touched.
    uint8_t buf[8];
    std::memset(buf, '#', sizeof(buf));
    int err = -1;
    size_t n = 0;
    f->preadInto(2, ByteSpan{buf + 2, 4}, [&](int e, size_t got) {
        err = e;
        n = got;
    });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(std::string(buf + 2, buf + 6), "cdef");
    EXPECT_EQ(buf[0], '#');
    EXPECT_EQ(buf[1], '#');
    EXPECT_EQ(buf[6], '#');
    EXPECT_EQ(buf[7], '#');

    // Short at EOF, zero past it — same contract as pread.
    f->preadInto(8, ByteSpan{buf, 8}, [&](int e, size_t got) {
        err = e;
        n = got;
    });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(n, 2u);
    f->preadInto(100, ByteSpan{buf, 8}, [&](int e, size_t got) {
        err = e;
        n = got;
    });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(n, 0u);
}

TEST(PreadInto, DefaultFallbackClampsOverReturningBackend)
{
    // A backend whose pread hands back more than was asked for must not
    // overrun the caller's window: the default preadInto clamps.
    struct OverF : OpenFile
    {
        void pread(uint64_t, size_t, DataCb cb) override
        {
            cb(0, std::make_shared<Buffer>(64, uint8_t('Z')));
        }
        void pwrite(uint64_t, const uint8_t *, size_t, SizeCb cb) override
        {
            cb(EROFS, 0);
        }
        void fstat(StatCb cb) override { cb(0, Stat{}); }
        void ftruncate(uint64_t, ErrCb cb) override { cb(EROFS); }
    };
    OverF f;
    uint8_t buf[16];
    std::memset(buf, '#', sizeof(buf));
    int err = -1;
    size_t n = 0;
    f.preadInto(0, ByteSpan{buf + 4, 8}, [&](int e, size_t got) {
        err = e;
        n = got;
    });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(n, 8u) << "count must be clamped to the window";
    EXPECT_EQ(std::string(buf + 4, buf + 12), "ZZZZZZZZ");
    for (int i : {0, 1, 2, 3, 12, 13, 14, 15})
        EXPECT_EQ(buf[i], '#') << "overrun at sentinel " << i;
}

TEST(PreadInto, OverlayCrossesLowerAndUpperLayers)
{
    OverlayRig rig;
    uint8_t buf[16];

    // Lower-layer open: the read-only InMem node fills the window.
    OpenFilePtr ro;
    rig.fs->open("/ro.txt", flags::RDONLY, 0,
                 [&](int, OpenFilePtr f) { ro = std::move(f); });
    ASSERT_TRUE(ro);
    size_t n = 0;
    ro->preadInto(5, ByteSpan{buf, sizeof(buf)},
                  [&](int, size_t got) { n = got; });
    EXPECT_EQ(std::string(buf, buf + n), "only");

    // Write-open copies up; the upper layer's handle must serve the same
    // bytes through preadInto (the lower/upper boundary crossing).
    OpenFilePtr rw;
    rig.fs->open("/ro.txt", flags::RDWR, 0,
                 [&](int, OpenFilePtr f) { rw = std::move(f); });
    ASSERT_TRUE(rw);
    EXPECT_EQ(rig.fs->copyUpCount(), 1u);
    rw->preadInto(0, ByteSpan{buf, sizeof(buf)},
                  [&](int, size_t got) { n = got; });
    EXPECT_EQ(std::string(buf, buf + n), "read-only");

    uint8_t x = 'X';
    rw->pwrite(0, &x, 1, [](int, size_t) {});
    rw->preadInto(0, ByteSpan{buf, sizeof(buf)},
                  [&](int, size_t got) { n = got; });
    EXPECT_EQ(std::string(buf, buf + n), "Xead-only");

    // The lower layer still serves the original bytes.
    OpenFilePtr lo;
    rig.lower->open("/ro.txt", flags::RDONLY, 0,
                    [&](int, OpenFilePtr f) { lo = std::move(f); });
    lo->preadInto(0, ByteSpan{buf, sizeof(buf)},
                  [&](int, size_t got) { n = got; });
    EXPECT_EQ(std::string(buf, buf + n), "read-only");
}

TEST(PwriteFrom, InMemConsumesWindowInPlace)
{
    InMemBackend fs;
    fs.writeFile("/f", std::string("0123456789"));
    OpenFilePtr f;
    fs.open("/f", flags::RDWR, 0,
            [&](int, OpenFilePtr file) { f = std::move(file); });
    ASSERT_TRUE(f);

    // Overwrite the middle from a caller-owned window.
    const uint8_t mid[] = {'X', 'Y', 'Z'};
    int err = -1;
    size_t n = 0;
    f->pwriteFrom(3, ConstByteSpan{mid, 3}, [&](int e, size_t got) {
        err = e;
        n = got;
    });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(n, 3u);
    Buffer out;
    ASSERT_EQ(fs.readFile("/f", out), 0);
    EXPECT_EQ(std::string(out.begin(), out.end()), "012XYZ6789");

    // Past EOF: the gap zero-fills, exactly like pwrite.
    f->pwriteFrom(12, ConstByteSpan{mid, 3}, [&](int e, size_t got) {
        err = e;
        n = got;
    });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(n, 3u);
    ASSERT_EQ(fs.readFile("/f", out), 0);
    ASSERT_EQ(out.size(), 15u);
    EXPECT_EQ(out[10], 0);
    EXPECT_EQ(out[11], 0);
    EXPECT_EQ(std::string(out.begin() + 12, out.end()), "XYZ");

    // Zero-length window (null data is legal): a no-op success.
    f->pwriteFrom(0, ConstByteSpan{nullptr, 0}, [&](int e, size_t got) {
        err = e;
        n = got;
    });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(n, 0u);
}

TEST(PwriteFrom, DefaultForwardsToPwrite)
{
    // A backend that only implements pwrite still serves pwriteFrom via
    // the base-class forward — the window's lifetime contract makes the
    // raw-pointer handoff safe.
    struct PlainF : OpenFile
    {
        Buffer data;
        void pread(uint64_t, size_t, DataCb cb) override
        {
            cb(0, std::make_shared<Buffer>(data));
        }
        void
        pwrite(uint64_t off, const uint8_t *d, size_t n,
               SizeCb cb) override
        {
            if (off + n > data.size())
                data.resize(off + n, 0);
            if (n)
                std::memcpy(data.data() + off, d, n);
            cb(0, n);
        }
        void fstat(StatCb cb) override { cb(0, Stat{}); }
        void ftruncate(uint64_t, ErrCb cb) override { cb(0); }
    };
    PlainF f;
    const std::string payload = "forwarded";
    int err = -1;
    size_t n = 0;
    f.pwriteFrom(2,
                 ConstByteSpan{reinterpret_cast<const uint8_t *>(
                                   payload.data()),
                               payload.size()},
                 [&](int e, size_t got) {
                     err = e;
                     n = got;
                 });
    EXPECT_EQ(err, 0);
    EXPECT_EQ(n, payload.size());
    EXPECT_EQ(std::string(f.data.begin() + 2, f.data.end()), payload);
}

TEST(PwriteFrom, OverlayCopyUpThenUpperServesWindowWrites)
{
    OverlayRig rig;
    // Write-open a lower-only file: copy-up happens (itself via
    // pwriteFrom into the upper layer), and the returned upper handle
    // consumes caller windows directly.
    OpenFilePtr rw;
    rig.fs->open("/ro.txt", flags::RDWR, 0,
                 [&](int, OpenFilePtr f) { rw = std::move(f); });
    ASSERT_TRUE(rw);
    EXPECT_EQ(rig.fs->copyUpCount(), 1u);
    const uint8_t w[] = {'W', 'R', 'I', 'T'};
    size_t n = 0;
    rw->pwriteFrom(0, ConstByteSpan{w, 4}, [&](int, size_t got) { n = got; });
    EXPECT_EQ(n, 4u);
    std::string got;
    EXPECT_EQ(readWhole(*rig.fs, "/ro.txt", got), 0);
    EXPECT_EQ(got, "WRIT-only");
    // The lower layer keeps the pristine bytes.
    EXPECT_EQ(readWhole(*rig.lower, "/ro.txt", got), 0);
    EXPECT_EQ(got, "read-only");
}

TEST(PwriteFrom, HttpBackendIsReadOnly)
{
    auto store = std::make_shared<HttpStore>();
    store->put("/doc.txt", std::string("fetched"));
    auto cache = std::make_shared<BrowserHttpCache>();
    HttpBackend http(store, cache, nullptr, NetworkParams{});
    OpenFilePtr f;
    http.open("/doc.txt", flags::RDONLY, 0,
              [&](int, OpenFilePtr file) { f = std::move(file); });
    ASSERT_TRUE(f);
    const uint8_t b = 'x';
    int err = -1;
    f->pwriteFrom(0, ConstByteSpan{&b, 1},
                  [&](int e, size_t) { err = e; });
    EXPECT_EQ(err, EROFS);
}

TEST(PreadInto, HttpBackendFillsFromFetchedBlob)
{
    auto store = std::make_shared<HttpStore>();
    store->put("/doc.txt", std::string("hello from http"));
    auto cache = std::make_shared<BrowserHttpCache>();
    HttpBackend http(store, cache, nullptr, NetworkParams{});
    OpenFilePtr f;
    http.open("/doc.txt", flags::RDONLY, 0,
              [&](int err, OpenFilePtr file) {
                  ASSERT_EQ(err, 0);
                  f = std::move(file);
              });
    ASSERT_TRUE(f);
    uint8_t buf[8];
    std::memset(buf, '#', sizeof(buf));
    size_t n = 0;
    f->preadInto(6, ByteSpan{buf, 4}, [&](int, size_t got) { n = got; });
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(std::string(buf, buf + 4), "from");
    EXPECT_EQ(buf[4], '#');
}
