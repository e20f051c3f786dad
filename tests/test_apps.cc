/**
 * @file
 * Application tests: SHA-1 (both implementations against FIPS vectors),
 * Makefile parsing, the TeX engines (package closure, aux/bbl flow,
 * errors), the meme pipeline (image, font, PNG validity), and the
 * program registry/bundle format.
 */
#include <gtest/gtest.h>

#include <mutex>

#include "apps/coreutils/coreutils.h"
#include "apps/coreutils/sha1.h"
#include "apps/make/make.h"
#include "apps/meme/png.h"
#include "apps/meme/server.h"
#include "apps/registry.h"
#include "apps/tex/tex.h"
#include "bfs/http_backend.h"
#include "bfs/inmem.h"
#include "bfs/overlay.h"
#include "core/browsix.h"
#include "jsvm/util.h"
#include "runtime/node/node_runtime.h"

using namespace browsix;
using namespace browsix::apps;

// ---------- SHA-1 ----------

struct Sha1Vector
{
    const char *msg;
    const char *hex;
};

class Sha1Known : public ::testing::TestWithParam<Sha1Vector>
{
};

TEST_P(Sha1Known, NativeMatchesFips)
{
    const auto &v = GetParam();
    auto d = sha1Native(reinterpret_cast<const uint8_t *>(v.msg),
                        strlen(v.msg));
    EXPECT_EQ(sha1Hex(d), v.hex);
}

TEST_P(Sha1Known, JsSemanticsMatchesFips)
{
    const auto &v = GetParam();
    auto d = sha1Js(reinterpret_cast<const uint8_t *>(v.msg),
                    strlen(v.msg));
    EXPECT_EQ(sha1Hex(d), v.hex)
        << "the slow JS-number implementation must still be correct";
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, Sha1Known,
    ::testing::Values(
        Sha1Vector{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
        Sha1Vector{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        Sha1Vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                   "nopq",
                   "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
        Sha1Vector{"The quick brown fox jumps over the lazy dog",
                   "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"}));

TEST(Sha1, ImplementationsAgreeOnBinaryData)
{
    std::vector<uint8_t> data(100000);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<uint8_t>(i * 7 + (i >> 8));
    EXPECT_EQ(sha1Hex(sha1Native(data)), sha1Hex(sha1Js(data)));
}

TEST(Sha1, JsSemanticsCostsMore)
{
    std::vector<uint8_t> data(500000, 0xAB);
    int64_t t0 = jsvm::nowUs();
    sha1Native(data);
    int64_t native_us = jsvm::nowUs() - t0;
    t0 = jsvm::nowUs();
    sha1Js(data);
    int64_t js_us = jsvm::nowUs() - t0;
    EXPECT_GT(js_us, native_us * 2)
        << "JS tax must be real: native " << native_us << "us vs js "
        << js_us << "us";
}

// ---------- Makefile parsing ----------

TEST(MakeParse, VariablesRulesAndCommands)
{
    Makefile mf;
    std::string err;
    ASSERT_TRUE(parseMakefile("CC = mycc\n"
                              "# comment\n"
                              "all: a.o b.o\n"
                              "\t$(CC) -o all a.o b.o\n"
                              "\t@echo done\n"
                              "a.o: a.c\n"
                              "\t$(CC) -c a.c\n",
                              mf, err))
        << err;
    EXPECT_EQ(mf.vars.at("CC"), "mycc");
    EXPECT_EQ(mf.defaultTarget, "all");
    const MakeRule *all = mf.find("all");
    ASSERT_NE(all, nullptr);
    EXPECT_EQ(all->deps, (std::vector<std::string>{"a.o", "b.o"}));
    EXPECT_EQ(all->commands.size(), 2u);
}

TEST(MakeParse, CommandOutsideRuleIsError)
{
    Makefile mf;
    std::string err;
    EXPECT_FALSE(parseMakefile("\techo orphan\n", mf, err));
    EXPECT_NE(err.find("line 1"), std::string::npos);
}

TEST(MakeExec, RebuildOnlyWhenStale)
{
    Browsix bx;
    bx.rootFs().writeFile("/home/Makefile",
                          std::string("out: in\n\tcat in > out\n"));
    bx.rootFs().writeFile("/home/in", std::string("v1\n"));
    auto r = bx.run("cd /home && /usr/bin/make && cat out");
    EXPECT_EQ(r.exitCode(), 0) << r.err;
    EXPECT_NE(r.out.find("v1"), std::string::npos);
    // Second run: up to date, no rebuild.
    r = bx.run("cd /home && /usr/bin/make");
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_NE(r.out.find("up to date"), std::string::npos) << r.out;
    // Touch the dep: rebuilds.
    r = bx.run("cd /home && echo v2 > in && /usr/bin/make && cat out");
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_NE(r.out.find("v2"), std::string::npos);
}

TEST(MakeExec, FailingCommandStopsWithError2)
{
    Browsix bx;
    bx.rootFs().writeFile("/home/Makefile",
                          std::string("t:\n\tfalse\n\techo never\n"));
    auto r = bx.run("cd /home && /usr/bin/make");
    EXPECT_EQ(r.exitCode(), 2);
    EXPECT_NE(r.err.find("Error 1"), std::string::npos);
    EXPECT_EQ(r.out.find("never"), std::string::npos);
}

TEST(MakeExec, MissingRuleIsError)
{
    Browsix bx;
    bx.rootFs().writeFile("/home/Makefile",
                          std::string("a: missing-dep\n\techo x\n"));
    auto r = bx.run("cd /home && /usr/bin/make");
    EXPECT_EQ(r.exitCode(), 2);
    EXPECT_NE(r.err.find("No rule to make target"), std::string::npos);
}

TEST(MakeExec, DependencyChainBuildsInOrder)
{
    Browsix bx;
    bx.rootFs().writeFile(
        "/home/Makefile",
        std::string("final: mid\n\tcat mid > final\n"
                    "mid: src\n\tcat src > mid\n"));
    bx.rootFs().writeFile("/home/src", std::string("origin\n"));
    auto r = bx.run("cd /home && /usr/bin/make && cat final");
    EXPECT_EQ(r.exitCode(), 0) << r.err;
    EXPECT_NE(r.out.find("origin"), std::string::npos);
}

// ---------- TeX engines ----------

namespace {

struct TexRig
{
    BootConfig cfg;
    std::unique_ptr<Browsix> bx;

    explicit TexRig(bool sync = true)
    {
        cfg.texlive = true;
        cfg.pdflatexSync = sync;
        bx = std::make_unique<Browsix>(cfg);
    }
};

} // namespace

TEST(Tex, PdflatexProducesPdfAuxLog)
{
    TexRig rig;
    auto r = rig.bx->run("cd /home && /usr/bin/pdflatex main.tex");
    EXPECT_EQ(r.exitCode(), 0) << r.out;
    for (const char *f : {"/home/main.pdf", "/home/main.aux",
                          "/home/main.log"}) {
        bfs::Stat st;
        EXPECT_EQ(rig.bx->fs().statSync(f, st), 0) << f;
        EXPECT_GT(st.size, 0u) << f;
    }
    bfs::Buffer pdf;
    rig.bx->fs().readFileSync("/home/main.pdf", pdf);
    EXPECT_EQ(std::string(pdf.begin(), pdf.begin() + 8), "%PDF-1.5");
}

TEST(Tex, MissingPackageFailsWithLatexError)
{
    TexRig rig;
    rig.bx->rootFs().writeFile(
        "/home/bad.tex",
        std::string("\\documentclass{article}\n"
                    "\\usepackage{does-not-exist}\n"
                    "\\begin{document}x\\end{document}\n"));
    auto r = rig.bx->run("cd /home && /usr/bin/pdflatex bad.tex");
    EXPECT_EQ(r.exitCode(), 1);
    EXPECT_NE(r.out.find("does-not-exist"), std::string::npos)
        << "the error (shown to the user per §2.1) must name the file";
}

TEST(Tex, BibtexConsumesAuxProducesBbl)
{
    TexRig rig;
    auto r = rig.bx->run(
        "cd /home && /usr/bin/pdflatex main.tex && /usr/bin/bibtex main");
    EXPECT_EQ(r.exitCode(), 0) << r.out;
    bfs::Buffer bbl;
    ASSERT_EQ(rig.bx->fs().readFileSync("/home/main.bbl", bbl), 0);
    std::string s(bbl.begin(), bbl.end());
    EXPECT_NE(s.find("\\bibitem{browsix}"), std::string::npos);
    EXPECT_NE(s.find("Powers, Bobby"), std::string::npos);
}

TEST(Tex, NativeBibtexResolvesBibdataAgainstTheJobDirectory)
{
    // The native baseline (direct VFS, no process cwd): `\bibdata{main}`
    // must name /home/main.bib, the file next to the job.
    auto store = std::make_shared<bfs::HttpStore>();
    populateTexliveStore(*store);
    auto http = std::make_shared<bfs::HttpBackend>(
        store, std::make_shared<bfs::BrowserHttpCache>(), nullptr,
        bfs::NetworkParams{});
    auto root = std::make_shared<bfs::InMemBackend>();
    bfs::Vfs vfs;
    vfs.mount("/", root);
    vfs.mount("/texlive", std::make_shared<bfs::OverlayBackend>(
                              std::make_shared<bfs::InMemBackend>(), http));
    stageLatexProject(*root, "/home", 1);

    std::string log;
    ASSERT_EQ(pdflatexNative(vfs, "/home/main.tex", log), 0) << log;
    EXPECT_EQ(bibtexNative(vfs, "/home/main", log), 0) << log;
    bfs::Buffer bbl;
    ASSERT_EQ(vfs.readFileSync("/home/main.bbl", bbl), 0);
    std::string s(bbl.begin(), bbl.end());
    EXPECT_NE(s.find("\\bibitem{browsix}"), std::string::npos);
}

TEST(Tex, BibtexWithoutAuxFails)
{
    TexRig rig;
    auto r = rig.bx->run("cd /home && /usr/bin/bibtex nothere");
    EXPECT_EQ(r.exitCode(), 2);
}

TEST(Tex, MissingCitationWarnsAndExits1)
{
    TexRig rig;
    rig.bx->rootFs().writeFile(
        "/home/c.tex", std::string("\\documentclass{article}\n"
                                   "\\begin{document}\n"
                                   "\\cite{ghost}\n"
                                   "\\bibliography{main}\n"
                                   "\\end{document}\n"));
    auto r = rig.bx->run(
        "cd /home && /usr/bin/pdflatex c.tex && /usr/bin/bibtex c");
    EXPECT_EQ(r.exitCode(), 1);
    EXPECT_NE(r.out.find("ghost"), std::string::npos);
}

TEST(Tex, LazyFetchesOnlyNeededFiles)
{
    TexRig rig;
    rig.bx->run("cd /home && /usr/bin/pdflatex main.tex");
    auto *http = rig.bx->texliveHttp();
    ASSERT_NE(http, nullptr);
    // The store holds ~70+ files; a build touches ~25.
    EXPECT_GT(http->fetchCount(), 5u);
    EXPECT_LT(http->fetchCount(), 40u)
        << "lazy loading must not sweep the whole distribution";
}

TEST(Tex, TransitivePackageRequiresAreFetched)
{
    TexRig rig;
    // hyperref requires url + keyval; all three must land in the cache.
    rig.bx->run("cd /home && /usr/bin/pdflatex main.tex");
    std::string log;
    bfs::Buffer buf;
    rig.bx->fs().readFileSync("/home/main.log", buf);
    log.assign(buf.begin(), buf.end());
    // 1 cls + clo + 5 named pkgs + deps(keyval,amstext,amsbsy,graphics,
    // url) + 12 fonts = 22+
    EXPECT_NE(log.find("files read"), std::string::npos);
}

// ---------- meme pipeline ----------

TEST(Image, BimgRoundtrip)
{
    Image img = makeTemplateImage(16, 8, 3);
    auto bytes = encodeBimg(img);
    Image out;
    ASSERT_TRUE(decodeBimg(bytes, out));
    EXPECT_EQ(out.w, 16);
    EXPECT_EQ(out.h, 8);
    EXPECT_EQ(out.rgba, img.rgba);
}

TEST(Image, BimgRejectsGarbage)
{
    Image out;
    EXPECT_FALSE(decodeBimg({1, 2, 3}, out));
    std::vector<uint8_t> truncated = encodeBimg(makeTemplateImage(8, 8, 1));
    truncated.resize(20);
    EXPECT_FALSE(decodeBimg(truncated, out));
}

TEST(Image, DrawTextChangesPixelsIdenticallyForBothInt64s)
{
    Image a = makeTemplateImage(120, 60, 9);
    Image b = a;
    drawMemeText<int64_t>(a, "HELLO", 60, 30, 2);
    drawMemeText<rt::Int64>(b, "HELLO", 60, 30, 2);
    EXPECT_EQ(a.rgba, b.rgba)
        << "int64 emulation must not change rendering results";
    EXPECT_NE(a.rgba, makeTemplateImage(120, 60, 9).rgba)
        << "text must actually draw";
}

TEST(Image, VignetteAgreesAcrossInt64s)
{
    Image a = makeTemplateImage(64, 48, 5);
    Image b = a;
    applyVignette<int64_t>(a);
    applyVignette<rt::Int64>(b);
    EXPECT_EQ(a.rgba, b.rgba);
}

TEST(Png, Crc32KnownValue)
{
    const char *s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(s), 9), 0xCBF43926u);
}

TEST(Png, Adler32KnownValue)
{
    // adler32("Wikipedia") = 0x11E60398
    const char *s = "Wikipedia";
    EXPECT_EQ(adler32(reinterpret_cast<const uint8_t *>(s), 9),
              0x11E60398u);
}

TEST(Png, EncodeValidates)
{
    Image img = makeTemplateImage(70, 40, 2);
    auto png = encodePng(img);
    EXPECT_TRUE(validatePng(png));
    png[30] ^= 0xFF; // corrupt IHDR payload
    EXPECT_FALSE(validatePng(png));
}

TEST(Png, LargeImageUsesMultipleDeflateBlocks)
{
    Image img = makeTemplateImage(300, 200, 4); // raw > 65535
    auto png = encodePng(img);
    EXPECT_TRUE(validatePng(png));
    EXPECT_GT(png.size(), 240000u);
}

TEST(Meme, HandlerServesListAndPng)
{
    MemeTemplates t;
    t.images["x"] = makeTemplateImage(80, 60, 1);
    net::HttpRequest req;
    req.target = "/api/images";
    auto resp = handleMemeRequest<int64_t>(t, req);
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(std::string(resp.body.begin(), resp.body.end()), "[\"x\"]");

    req.target = "/api/meme?template=x&top=HI&bottom=LOW";
    resp = handleMemeRequest<int64_t>(t, req);
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.header("content-type"), "image/png");
    EXPECT_TRUE(validatePng(resp.body));
}

TEST(Meme, UnknownTemplateIs404)
{
    MemeTemplates t;
    net::HttpRequest req;
    req.target = "/api/meme?template=nope";
    EXPECT_EQ(handleMemeRequest<int64_t>(t, req).status, 404);
    req.target = "/bogus";
    EXPECT_EQ(handleMemeRequest<int64_t>(t, req).status, 404);
}

TEST(Meme, EmulatedInt64RenderingIsSlower)
{
    MemeTemplates t;
    t.images["x"] = makeTemplateImage(320, 240, 1);
    net::HttpRequest req;
    req.target = "/api/meme?template=x&top=SLOW&bottom=PATH";
    int64_t t0 = jsvm::nowUs();
    handleMemeRequest<int64_t>(t, req);
    int64_t native_us = jsvm::nowUs() - t0;
    t0 = jsvm::nowUs();
    handleMemeRequest<rt::Int64>(t, req);
    int64_t emulated_us = jsvm::nowUs() - t0;
    EXPECT_GT(emulated_us, native_us * 2)
        << "the paper's int64-emulation slowdown must be reproducible ("
        << native_us << "us vs " << emulated_us << "us)";
}

// ---------- registry / bundles ----------

TEST(Registry, BundleRoundtripAndPadding)
{
    registerAllPrograms();
    auto &reg = ProgramRegistry::instance();
    auto bundle = reg.bundleFor("dash");
    EXPECT_EQ(ProgramRegistry::programFromBundle(*bundle), "dash");
    EXPECT_GE(bundle->size(), 1200u * 1024u)
        << "bundles must carry their compiled-JS size for parse costs";
    EXPECT_EQ(ProgramRegistry::programFromBundle({1, 2, 3}), "");
}

TEST(Registry, BundleIsHeaderThenRepeatingPayloadToItsSize)
{
    registerAllPrograms();
    auto &reg = ProgramRegistry::instance();
    const std::string pad = "// bundle payload\n";
    for (const char *name : {"node", "dash", "meme-server"}) {
        SCOPED_TRACE(name);
        const std::string header =
            std::string("//:browsix-program:") + name + "\n";
        const bfs::Buffer &bundle = *reg.bundleFor(name); // registry-held
        ASSERT_EQ(bundle.size(), reg.find(name)->bundleKb * 1024);
        ASSERT_EQ(std::string(bundle.begin(), bundle.begin() + header.size()),
                  header);
        size_t bad = 0;
        for (size_t i = header.size(); i < bundle.size(); i++)
            bad += bundle[i] != static_cast<uint8_t>(
                                    pad[(i - header.size()) % pad.size()]);
        EXPECT_EQ(bad, 0u);
    }
}

TEST(Registry, EveryBootStagesTheOneSharedBundle)
{
    // A bundle is built once per process: every system's /usr/bin/node
    // is the registry's buffer, so a boot neither builds nor copies the
    // padding.
    Browsix a, b;
    bfs::BufferPtr bundle = ProgramRegistry::instance().bundleFor("node");
    for (Browsix *bx : {&a, &b}) {
        bfs::BufferPtr file;
        bx->fs().readFile("/usr/bin/node", [&](int err, bfs::BufferPtr d) {
            EXPECT_EQ(err, 0);
            file = d;
        });
        EXPECT_EQ(file.get(), bundle.get());
    }
}

TEST(Registry, NodeBundleIsTheLargest)
{
    registerAllPrograms();
    auto &reg = ProgramRegistry::instance();
    EXPECT_GT(reg.find("node")->bundleKb, reg.find("dash")->bundleKb);
}

// ---------- native baseline helpers ----------

TEST(NativeUtils, Sha1AndWcAgreeWithBrowsixVersions)
{
    Browsix bx;
    bx.rootFs().writeFile("/data/f.txt", std::string("one two\nthree\n"));
    std::string native = nativeSha1sum(bx.fs(), "/data/f.txt");
    auto r = bx.run("sha1sum /data/f.txt");
    EXPECT_EQ(r.exitCode(), 0);
    // Same digest, same formatting.
    EXPECT_EQ(r.out, native);
    EXPECT_EQ(nativeWc(bx.fs(), "/data/f.txt"), "2 3 14 /data/f.txt\n");
    auto rw = bx.run("wc /data/f.txt");
    EXPECT_EQ(rw.out, "2 3 14 /data/f.txt\n");
}

TEST(NativeUtils, LsMatchesBrowsixLs)
{
    Browsix bx;
    bx.rootFs().mkdirAll("/data/d");
    bx.rootFs().writeFile("/data/a", std::string("1"));
    bx.rootFs().writeFile("/data/b", std::string("22"));
    EXPECT_EQ(nativeLs(bx.fs(), "/data", false), "a\nb\nd\n");
    auto r = bx.run("ls /data");
    EXPECT_EQ(r.out, "a\nb\nd\n");
}

// ---------- browser-node processes leave nothing behind ----------

namespace {

/**
 * Probe utilities: `probe-<util>` records a weak_ptr to the NodeApi it is
 * handed, then runs the real <util>. Once the probe's process has exited,
 * nothing may still own that NodeApi — a closure that holds itself (and
 * through its captures the api) would keep it alive for good.
 */
struct NodeApiProbes
{
    std::mutex mu; // node utilities start on pool threads
    std::vector<std::weak_ptr<rt::NodeApi>> apis;

    size_t
    count()
    {
        std::lock_guard<std::mutex> lk(mu);
        return apis.size();
    }

    size_t
    live()
    {
        std::lock_guard<std::mutex> lk(mu);
        size_t n = 0;
        for (const auto &w : apis)
            n += w.expired() ? 0 : 1;
        return n;
    }
};

NodeApiProbes &
probes()
{
    static NodeApiProbes p;
    return p;
}

void
stageProbes(Browsix &bx)
{
    for (std::string util :
         {"cat", "grep", "sort", "head", "wc", "ls", "tee", "rm"}) {
        rt::NodeUtilFn real = rt::lookupNodeUtil(util);
        ASSERT_NE(real, nullptr) << util;
        rt::registerNodeUtil(
            "probe-" + util, [real](std::shared_ptr<rt::NodeApi> api) {
                {
                    std::lock_guard<std::mutex> lk(probes().mu);
                    probes().apis.push_back(api);
                }
                real(std::move(api));
            });
        bx.rootFs().writeFile("/usr/bin/probe-" + util,
                              "#!/usr/bin/node\n//:node-util:probe-" + util +
                                  "\n");
    }
}

} // namespace

TEST(NodeUtils, ExitedProcessesFreeTheirNodeApi)
{
    Browsix bx;
    {
        std::lock_guard<std::mutex> lk(probes().mu);
        probes().apis.clear();
    }
    stageProbes(bx);
    bx.rootFs().writeFile("/data/lines.txt",
                          std::string("banana\napple\ncherry\nmango\n"));
    auto r = bx.run("probe-cat /data/lines.txt | probe-grep an | "
                    "probe-sort | probe-head -n 2 | probe-wc");
    EXPECT_EQ(r.exitCode(), 0) << r.err;
    EXPECT_EQ(r.out, "2 2 13\n");
    r = bx.run("echo t | probe-tee /tmp/t1 && probe-ls -l /usr/bin && "
               "probe-rm /tmp/t1");
    EXPECT_EQ(r.exitCode(), 0) << r.err;
    EXPECT_EQ(r.out.rfind("t\n", 0), 0u) << r.out;
    EXPECT_NE(r.out.find(" probe-rm\n"), std::string::npos) << r.out;
    ASSERT_EQ(probes().count(), 8u);
    EXPECT_TRUE(bx.runUntil([]() { return probes().live() == 0; }, 5000))
        << probes().live() << " of 8 exited processes still own their "
        << "NodeApi: a closure cycle leaks them";
}

// ---------- els (ring-batched ls) ----------

TEST(Els, ListsAndRecursesWithBatchedStats)
{
    Browsix bx;
    bx.rootFs().mkdirAll("/tree/sub");
    bx.rootFs().writeFile("/tree/b.txt", std::string(3, 'b'));
    bx.rootFs().writeFile("/tree/a.txt", std::string(5, 'a'));
    bx.rootFs().writeFile("/tree/sub/c.txt", std::string(7, 'c'));

    // Plain listing: sorted names.
    auto r = bx.runArgv({"/usr/bin/els", "/tree"});
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out, "a.txt\nb.txt\nsub\n");

    // Long + recursive: per-entry lstat data (type char + size), and the
    // subdirectory is walked.
    r = bx.runArgv({"/usr/bin/els", "-lR", "/tree"});
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_NE(r.out.find("/tree:\n"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("-rw-r--r-- 1 5 a.txt"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("drw-r--r-- 1"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("/tree/sub:\n"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("-rw-r--r-- 1 7 c.txt"), std::string::npos)
        << r.out;
    EXPECT_GT(bx.kernel().stats().ringSyscallCount, 0u)
        << "els must run on the ring convention";

    // --serial must produce byte-identical output (it is the A/B
    // baseline for the bench, not a different ls).
    auto serial = bx.runArgv({"/usr/bin/els", "-lR", "--serial", "/tree"});
    EXPECT_EQ(serial.exitCode(), 0);
    EXPECT_EQ(serial.out, r.out);

    // A missing operand reports and fails.
    r = bx.runArgv({"/usr/bin/els", "/nope"});
    EXPECT_EQ(r.exitCode(), 2);
}

// ---------- ecat (zero-copy vectored cat) ----------

TEST(Ecat, StreamsByteExactThroughPreadWindowsAndWritev)
{
    Browsix bx;
    // Big enough for several 8x16KiB rounds plus a ragged tail, with
    // content that catches any reordered or dropped chunk.
    std::string big;
    big.reserve(300 * 1024);
    for (int i = 0; big.size() < 300 * 1024; i++)
        big += "line " + std::to_string(i * 2654435761u) + "\n";
    bx.rootFs().writeFile("/data/big.txt", big);
    bx.rootFs().writeFile("/data/small.txt", std::string("tiny\n"));
    bx.rootFs().writeFile("/data/empty.txt", std::string());

    auto before = bx.kernel().stats();
    auto r = bx.runArgv({"/usr/bin/ecat", "/data/big.txt"}, 120000);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out.size(), big.size());
    EXPECT_EQ(r.out, big) << "batched ecat must reproduce the file";
    auto after = bx.kernel().stats();
    EXPECT_GT(after.ringSyscallCount, before.ringSyscallCount)
        << "ecat must run on the ring convention";
    EXPECT_GT(after.zeroCopyCompletions, before.zeroCopyCompletions)
        << "pread windows and writev gathers are the zero-copy path";

    // --serial is the A/B baseline: byte-identical output.
    auto serial =
        bx.runArgv({"/usr/bin/ecat", "--serial", "/data/big.txt"}, 120000);
    EXPECT_EQ(serial.exitCode(), 0);
    EXPECT_EQ(serial.out, r.out);

    // Sub-chunk and empty files; multiple operands concatenate in order.
    r = bx.runArgv({"/usr/bin/ecat", "/data/small.txt", "/data/empty.txt",
                    "/data/small.txt"});
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out, "tiny\ntiny\n");

    // Errors: missing operand, unreadable file (later operands still
    // stream).
    r = bx.runArgv({"/usr/bin/ecat"});
    EXPECT_EQ(r.exitCode(), 2);
    r = bx.runArgv({"/usr/bin/ecat", "/nope", "/data/small.txt"});
    EXPECT_EQ(r.exitCode(), 2);
    EXPECT_EQ(r.out, "tiny\n");
    EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}
