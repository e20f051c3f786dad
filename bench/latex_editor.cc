/**
 * @file
 * LaTeX editor timings (§5.2): building a single-page document with a
 * bibliography.
 *
 * Paper: native ~100 ms; Browsix with synchronous syscalls ~3 s; with
 * asynchronous syscalls + the Emterpreter ~12 s. Shape: native << sync
 * << async, with async/sync ~ 4x.
 *
 * Also reports cold (lazy HTTP package fetches) vs warm (browser cache)
 * builds — the §2.2/§3.6 lazy-loading story.
 */
#include <cstdio>

#include "apps/tex/tex.h"
#include "bench/harness.h"

using namespace browsix;
using namespace browsix::bench;

namespace {

double
browsixBuild(bool sync_calls, bfs::BrowserHttpCachePtr cache,
             double *cold_ms)
{
    BootConfig cfg;
    cfg.profile = jsvm::BrowserProfile::chrome2016();
    cfg.texlive = true;
    cfg.pdflatexSync = sync_calls;
    cfg.texliveNet = bfs::NetworkParams{20000, 6.25}; // 20ms RTT, 50Mb/s
    cfg.httpCache = cache;
    Browsix bx(cfg);

    // Cold build: lazy fetches hit the network.
    double cold = timeMs([&]() {
        auto r = bx.run("cd /home && /usr/bin/pdflatex main.tex && "
                        "/usr/bin/bibtex main && /usr/bin/pdflatex "
                        "main.tex",
                        600000);
        if (r.exitCode() != 0) {
            std::fprintf(stderr, "build failed: %s\n", r.out.c_str());
            std::abort();
        }
    });
    if (cold_ms)
        *cold_ms = cold;

    // Warm build: everything cached; measure again.
    double warm = timeMs([&]() {
        auto r = bx.run("cd /home && /usr/bin/pdflatex main.tex && "
                        "/usr/bin/bibtex main && /usr/bin/pdflatex "
                        "main.tex",
                        600000);
        if (r.exitCode() != 0)
            std::abort();
    });
    return warm;
}

} // namespace

int
main()
{
    std::printf("LaTeX build timings (single page + bibliography), "
                "pdflatex + bibtex + pdflatex\n\n");

    // --- native baseline: direct VFS, native typesetting ---
    auto store = std::make_shared<bfs::HttpStore>();
    apps::populateTexliveStore(*store);
    auto cache = std::make_shared<bfs::BrowserHttpCache>();
    auto http = std::make_shared<bfs::HttpBackend>(store, cache, nullptr,
                                                   bfs::NetworkParams{});
    auto root = std::make_shared<bfs::InMemBackend>();
    auto upper = std::make_shared<bfs::InMemBackend>();
    auto overlay = std::make_shared<bfs::OverlayBackend>(upper, http);
    bfs::Vfs vfs;
    vfs.mount("/", root);
    vfs.mount("/texlive", overlay);
    apps::stageLatexProject(*root, "/home", 1);

    double native_ms = timeMs([&]() {
        std::string log;
        if (apps::pdflatexNative(vfs, "/home/main.tex", log) != 0 ||
            apps::bibtexNative(vfs, "/home/main", log) != 0 ||
            apps::pdflatexNative(vfs, "/home/main.tex", log) != 0)
            std::abort();
    });

    // --- Browsix, synchronous syscalls (Chrome + SAB) ---
    double sync_cold = 0;
    double sync_warm = browsixBuild(true, nullptr, &sync_cold);

    // --- Browsix, asynchronous syscalls + Emterpreter ---
    double async_cold = 0;
    double async_warm = browsixBuild(false, nullptr, &async_cold);

    std::printf("%-34s | %10s | (paper)\n", "configuration", "time ms");
    std::printf("-----------------------------------+------------+--------"
                "\n");
    std::printf("%-34s | %10.1f | ~100 ms\n", "native (Linux)", native_ms);
    std::printf("%-34s | %10.1f |\n", "Browsix sync, cold (lazy fetch)",
                sync_cold);
    std::printf("%-34s | %10.1f | ~3000 ms\n", "Browsix sync, warm",
                sync_warm);
    std::printf("%-34s | %10.1f |\n", "Browsix async+Emterpreter, cold",
                async_cold);
    std::printf("%-34s | %10.1f | ~12000 ms\n",
                "Browsix async+Emterpreter, warm", async_warm);

    std::printf("\nratios: sync/native %.1fx (paper ~30x), async/sync "
                "%.1fx (paper ~4x)\n",
                sync_warm / native_ms, async_warm / sync_warm);
    std::printf("\"While in relative terms this is a significant "
                "slowdown, this time is fast\nenough to be acceptable.\" "
                "(§5.2)\n");
    return 0;
}
