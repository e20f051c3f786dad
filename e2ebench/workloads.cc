#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "apps/awfy/awfy.h"
#include "apps/meme/server.h"
#include "apps/tex/tex.h"
#include "net/http.h"
#include "runtime/emvm/vm.h"

namespace e2ebench {

using namespace browsix;

const std::vector<std::string> kWorkloadNames = {
    "shell_pipeline", "latex_build", "meme_http", "awfy_guests"};

namespace {

/** Fisher-Yates with the raw engine output, so a seed gives the same
 * order under every standard library. */
template <typename T>
void
shuffle(std::vector<T> &v, std::mt19937_64 &rng)
{
    for (size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng() % i]);
}

std::string
randomWord(std::mt19937_64 &rng)
{
    std::string w(3 + rng() % 7, 'a');
    for (char &c : w)
        c = static_cast<char>('a' + rng() % 26);
    return w;
}

} // namespace

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

void
Workload::boot(const BootConfig &cfg)
{
    bx_ = std::make_unique<Browsix>(cfg);
    loop_ = std::make_unique<Loop>(*bx_);
}

void
Workload::trace(Tracer &tracer)
{
    tracer_ = &tracer;
    loop_->trace(&tracer);
    decorateMounts(bx_->fs(), bfsStats_, tracer);
}

RunResult
Workload::exec(const std::vector<std::string> &argv, int64_t timeout_ms)
{
    // Heap-held: after a timeout the kernel may still call back.
    struct State
    {
        RunResult result;
        bool exited = false;
        int spawnErr = 0;
    };
    auto st = std::make_shared<State>();
    bx_->kernel().spawnRoot(
        argv, bx_->kernel().defaultEnv, "/",
        [st](int status) {
            st->result.status = status;
            st->exited = true;
        },
        [st](const bfs::Buffer &d) {
            st->result.out.append(d.begin(), d.end());
        },
        [st](const bfs::Buffer &d) {
            st->result.err.append(d.begin(), d.end());
        },
        [st](int rc) {
            if (rc < 0) {
                st->spawnErr = rc;
                st->exited = true;
            }
        });
    loop_->until([st]() { return st->exited; }, timeout_ms);
    RunResult r = st->result;
    r.ok = st->exited && st->spawnErr == 0;
    return r;
}

bool
SequentialWorkload::timedOp(OpLog &log)
{
    prepare();
    int64_t t0 = nowUs();
    bool ok = op();
    int64_t t1 = nowUs();
    if (tracer_)
        tracer_->span("op", kOpTrack, t0, t1);
    log.add((t1 - t0) / 1000.0, ok);
    return ok;
}

void
SequentialWorkload::runFor(double seconds, OpLog &log, uint64_t max_ops)
{
    int64_t end = nowUs() + static_cast<int64_t>(seconds * 1e6);
    for (uint64_t n = 0; n < max_ops && nowUs() < end; n++)
        timedOp(log);
}

namespace {

// ---------------------------------------------------------------------------
// shell_pipeline: spawn- and pipe-heavy, async convention only.
// ---------------------------------------------------------------------------

class ShellPipeline : public SequentialWorkload
{
  public:
    ShellPipeline(uint64_t seed, Scale scale)
        : SequentialWorkload(seed), lines_(scale == Scale::Full ? 4000 : 400)
    {
    }

    bool
    setup() override
    {
        boot(BootConfig{});
        // Each line holds exactly one marker, and each marker is on the
        // same number of lines, so every op greps, sorts and counts the
        // same amount whatever the seed.
        std::vector<std::string> vocab(512);
        for (auto &w : vocab)
            w = randomWord(rng_);
        std::vector<size_t> owner(lines_);
        for (size_t i = 0; i < lines_; i++)
            owner[i] = i % kMarkers;
        shuffle(owner, rng_);
        std::string text;
        matches_.assign(kMarkers, {});
        for (size_t i = 0; i < lines_; i++) {
            size_t words = 6 + rng_() % 7;
            size_t at = rng_() % words;
            std::string line;
            for (size_t j = 0; j < words; j++) {
                if (!line.empty())
                    line += ' ';
                line += j == at ? marker(owner[i]) : vocab[rng_() % 512];
            }
            text += line + '\n';
            matches_[owner[i]].push_back(line);
        }
        for (auto &m : matches_)
            std::sort(m.begin(), m.end());
        if (bx().rootFs().writeFile("/tmp/in", text) != 0)
            return false;
        OpLog warm;
        for (int i = 0; i < 2; i++)
            if (!timedOp(warm))
                return false;
        return true;
    }

  protected:
    void
    prepare() override
    {
        size_t m = rng_() % kMarkers;
        size_t head = lines_ / kMarkers / 2 + rng_() % (lines_ / 20);
        cmd_ = "cat /tmp/in | grep " + marker(m) + " | sort | head -n " +
               std::to_string(head) + " | wc > /tmp/out && cat /tmp/out";
        // Host-side wc of the first `head` sorted matching lines.
        size_t n = std::min(head, matches_[m].size());
        size_t words = 0, bytes = 0;
        for (size_t i = 0; i < n; i++) {
            const std::string &l = matches_[m][i];
            bytes += l.size() + 1;
            words += static_cast<size_t>(
                         std::count(l.begin(), l.end(), ' ')) +
                     1;
        }
        expected_ = std::to_string(n) + " " + std::to_string(words) + " " +
                    std::to_string(bytes) + "\n";
        if (takeCorrupt())
            expected_ = "0 " + expected_;
    }

    bool
    op() override
    {
        RunResult r = exec({"/bin/sh", "-c", cmd_});
        return r.ok && r.exitCode() == 0 && r.out == expected_;
    }

  private:
    static constexpr size_t kMarkers = 4;
    static std::string marker(size_t i) { return "mark" + std::to_string(i); }

    size_t lines_;
    std::vector<std::vector<std::string>> matches_;
    std::string cmd_;
    std::string expected_;
};

// ---------------------------------------------------------------------------
// latex_build: the paper's headline scenario, sync convention, bfs overlay.
// ---------------------------------------------------------------------------

/** The staged project's main.tex with seeded body text. Line and word
 * counts match stageLatexProject's, so the page count (and the typeset
 * work) is the same for every seed. */
std::string
seededMainTex(std::mt19937_64 &rng)
{
    std::ostringstream tex;
    tex << "\\documentclass{article}\n"
        << "\\usepackage{geometry}\n"
        << "\\usepackage{amsmath}\n"
        << "\\usepackage{graphicx}\n"
        << "\\usepackage{hyperref}\n"
        << "\\begin{document}\n"
        << "\\title{Browsix: Bridging the Gap}\n"
        << "Browsix brings Unix abstractions to the browser "
        << "\\cite{browsix} and builds on Doppio \\cite{doppio}.\n";
    for (int i = 0; i < 35; i++) {
        tex << "paragraph 0." << i;
        for (int w = 0; w < 12; w++)
            tex << ' ' << randomWord(rng);
        tex << '\n';
    }
    tex << "\\bibliography{main}\n\\end{document}\n";
    return tex.str();
}

class LatexBuild : public SequentialWorkload
{
  public:
    using SequentialWorkload::SequentialWorkload;

    bool
    setup() override
    {
        BootConfig cfg;
        cfg.texlive = true;
        boot(cfg);
        mainTex_ = seededMainTex(rng_);
        if (bx().rootFs().writeFile("/home/main.tex", mainTex_) != 0)
            return false;
        // The cold build (lazy /texlive fetches) is the warm-up; its PDF
        // is what every timed build must reproduce byte for byte.
        RunResult r = exec({"/bin/sh", "-c", kCmd});
        if (!r.ok || r.exitCode() != 0 ||
            bx().rootFs().readFile("/home/main.pdf", pdf_) != 0)
            return false;
        return !pdf_.empty();
    }

    bool
    ownLayerMetrics(double op_p50_ms,
                    std::map<std::string, double> &out) override
    {
        // apps/tex alone: the same three steps on a direct Vfs with the
        // native typeset kernel, warmed like the benchmark's builds.
        auto store = std::make_shared<bfs::HttpStore>();
        apps::populateTexliveStore(*store);
        auto http = std::make_shared<bfs::HttpBackend>(
            store, std::make_shared<bfs::BrowserHttpCache>(), nullptr,
            bfs::NetworkParams{});
        auto root = std::make_shared<bfs::InMemBackend>();
        auto overlay = std::make_shared<bfs::OverlayBackend>(
            std::make_shared<bfs::InMemBackend>(), http);
        bfs::Vfs vfs;
        vfs.mount("/", root);
        vfs.mount("/texlive", overlay);
        // At the root: bibtex opens main.bib relative to the working
        // directory, which a direct Vfs resolves from "/".
        apps::stageLatexProject(*root, "", 1);
        root->writeFile("/main.tex", mainTex_);
        auto build = [&vfs]() {
            std::string log;
            return apps::pdflatexNative(vfs, "/main.tex", log) == 0 &&
                   apps::bibtexNative(vfs, "/main", log) == 0 &&
                   apps::pdflatexNative(vfs, "/main.tex", log) == 0;
        };
        std::vector<double> ms;
        for (int i = 0; i < 6; i++) {
            int64_t t0 = nowUs();
            if (!build()) {
                std::fprintf(stderr, "e2ebench: native tex build failed\n");
                return false;
            }
            if (i > 0) // the first build warms the overlay
                ms.push_back((nowUs() - t0) / 1000.0);
        }
        double native = percentile(ms, 50);
        out["tex.native_ms_per_op"] = native;
        out["tex.share"] = op_p50_ms > 0 ? native / op_p50_ms : 0;
        return true;
    }

  protected:
    void
    prepare() override
    {
        // A build that writes no PDF must not pass on the previous one.
        bx().rootFs().unlink("/home/main.pdf", [](int) {});
        expected_ = pdf_;
        if (takeCorrupt())
            expected_.back() ^= 1;
    }

    bool
    op() override
    {
        RunResult r = exec({"/bin/sh", "-c", kCmd});
        bfs::Buffer pdf;
        return r.ok && r.exitCode() == 0 &&
               bx().rootFs().readFile("/home/main.pdf", pdf) == 0 &&
               pdf == expected_;
    }

  private:
    static constexpr const char *kCmd =
        "cd /home && pdflatex main.tex && bibtex main && pdflatex main.tex";

    std::string mainTex_;
    bfs::Buffer pdf_;
    bfs::Buffer expected_;
};

// ---------------------------------------------------------------------------
// awfy_guests: emvm-bound, two syscalls per guest.
// ---------------------------------------------------------------------------

class AwfyGuests : public SequentialWorkload
{
  public:
    using SequentialWorkload::SequentialWorkload;

    bool
    setup() override
    {
        boot(BootConfig{});
        for (const auto &b : apps::awfyBenches())
            order_.push_back(&b);
        OpLog warm;
        return timedOp(warm);
    }

    bool
    ownLayerMetrics(double op_p50_ms,
                    std::map<std::string, double> &out) override
    {
        // runtime/emvm alone: each image's kernel at the guest size on a
        // bare Vm at its default tier, no kernel or worker around it.
        std::vector<emvm::Image> images;
        for (const auto *b : order_)
            images.push_back(apps::awfyImage(b->name));
        std::vector<double> ms;
        for (int rep = 0; rep < 6; rep++) {
            int64_t t0 = nowUs();
            for (size_t i = 0; i < images.size(); i++) {
                emvm::Vm vm(images[i]);
                if (!vm.start("run", {order_[i]->guestN}) ||
                    vm.run() != emvm::RunState::Done ||
                    vm.exitCode() != order_[i]->native(order_[i]->guestN)) {
                    std::fprintf(stderr,
                                 "e2ebench: bare-Vm awfy-%s run failed\n",
                                 order_[i]->name.c_str());
                    return false;
                }
            }
            if (rep > 0) // the first pass warms caches
                ms.push_back((nowUs() - t0) / 1000.0);
        }
        double vm_ms = percentile(ms, 50);
        out["emvm.vm_ms_per_op"] = vm_ms;
        out["emvm.share"] = op_p50_ms > 0 ? vm_ms / op_p50_ms : 0;
        return true;
    }

  protected:
    void
    prepare() override
    {
        shuffle(order_, rng_);
        corruptFirst_ = takeCorrupt();
    }

    bool
    op() override
    {
        bool ok = true;
        for (const apps::AwfyBench *b : order_) {
            RunResult r = exec({"/usr/bin/awfy-" + b->name});
            std::string want = std::to_string(b->native(b->guestN)) + "\n";
            if (corruptFirst_) {
                want += "0";
                corruptFirst_ = false;
            }
            ok = ok && r.ok && r.exitCode() == 0 && r.out == want;
        }
        return ok;
    }

  private:
    std::vector<const apps::AwfyBench *> order_;
    bool corruptFirst_ = false;
};

// ---------------------------------------------------------------------------
// meme_http: ring convention, net and epoll; no spawns while timed.
// ---------------------------------------------------------------------------

class MemeHttp : public Workload
{
  public:
    using Workload::Workload;

    ~MemeHttp() override
    {
        for (auto &c : state_->conns)
            if (c->conn)
                c->conn->close();
        state_->log = nullptr;
    }

    bool
    setup() override
    {
        BootConfig cfg;
        cfg.memeAssets = true;
        boot(cfg);
        for (const auto &name : apps::memeTemplateNames()) {
            bfs::Buffer data;
            if (bx().rootFs().readFile("/memes/" + name + ".bimg", data) != 0)
                return false;
            state_->assets[name] = std::move(data);
        }
        std::vector<std::string> names = apps::memeTemplateNames();
        std::sort(names.begin(), names.end());
        std::string json = "[";
        for (const auto &n : names)
            json += (json.size() > 1 ? ",\"" : "\"") + n + "\"";
        state_->json.assign(json.begin(), json.end());
        state_->json.push_back(']');

        auto listening = std::make_shared<bool>(false);
        bx().kernel().onPortListen(kPort,
                                   [listening]() { *listening = true; });
        bx().kernel().spawnRoot({"/usr/bin/meme-httpd",
                                 std::to_string(kPort), "64", "0"},
                                {}, "/", [](int) {}, nullptr, nullptr,
                                [](int) {});
        if (!loop().until([listening]() { return *listening; }, 30000))
            return false;

        for (int i = 0; i < kConns; i++) {
            auto c = std::make_shared<Conn>();
            c->index = i;
            c->rng.seed(rng_());
            state_->conns.push_back(std::move(c));
        }
        if (!connectAll())
            return false;
        OpLog warm;
        runFor(60, warm, 200);
        return warm.failed == 0 && warm.attempted == 200;
    }

    void
    runFor(double seconds, OpLog &log, uint64_t max_ops) override
    {
        State &s = *state_;
        s.log = &log;
        s.tracer = tracer_;
        s.net = tracer_ ? &net_ : nullptr;
        s.deadlineUs = nowUs() + static_cast<int64_t>(seconds * 1e6);
        s.opsLeft = max_ops;
        s.corruptNext = takeCorrupt();
        for (auto &c : s.conns)
            if (!c->dead)
                send(state_, c);
        loop().until(
            [&s]() {
                return std::none_of(s.conns.begin(), s.conns.end(),
                                    [](const auto &c) { return c->busy; });
            },
            static_cast<int64_t>(seconds * 1000) + 30000);
        // Requests still in flight after the grace period count as failed
        // (timeout) and their connections are not reused.
        for (auto &c : s.conns) {
            if (c->busy) {
                c->busy = false;
                c->dead = true;
                log.add((nowUs() - c->sentUs) / 1000.0, false);
            }
        }
        s.log = nullptr;
    }

  private:
    static constexpr int kPort = 8080;
    /// One keep-alive connection per pool thread the scheduler sizes
    /// for a 4-core host.
    static constexpr int kConns = 4;

    enum class Kind { Json, File, Chunked };

    struct Conn
    {
        int index = 0;
        std::mt19937_64 rng;
        net::HttpParser parser{net::HttpParser::Mode::Response};
        std::shared_ptr<kernel::Kernel::HostConn> conn;
        Kind kind = Kind::Json;
        std::string file;
        int64_t sentUs = 0;
        int64_t firstByteUs = 0;
        bool busy = false;
        bool dead = false;
        bool corrupt = false;
    };
    using ConnPtr = std::shared_ptr<Conn>;

    /** Everything the connection callbacks touch; shared with them, as
     * the kernel can call back after this workload is gone. */
    struct State
    {
        std::vector<ConnPtr> conns;
        std::map<std::string, bfs::Buffer> assets;
        bfs::Buffer json;
        OpLog *log = nullptr;
        Tracer *tracer = nullptr;
        NetStats *net = nullptr;
        std::vector<double> connectUs;
        int64_t deadlineUs = 0;
        uint64_t opsLeft = 0;
        bool corruptNext = false;
    };
    using StatePtr = std::shared_ptr<State>;

    bool
    connectAll()
    {
        struct Pending
        {
            int left = kConns;
            bool refused = false;
        };
        auto p = std::make_shared<Pending>();
        StatePtr st = state_;
        for (auto &c : st->conns) {
            int64_t t0 = nowUs();
            bx().kernel().connect(
                kPort,
                [st, c](const bfs::Buffer &data) { onData(st, c, data); },
                [st, c]() { onClose(st, c); },
                [st, p, c, t0](int err,
                               std::shared_ptr<kernel::Kernel::HostConn> conn) {
                    p->left--;
                    if (err) {
                        p->refused = true;
                        return;
                    }
                    c->conn = std::move(conn);
                    st->connectUs.push_back(
                        static_cast<double>(nowUs() - t0));
                });
        }
        bool ok = loop().until([p]() { return p->left == 0; }, 30000) &&
                  !p->refused;
        net_.connectUs = st->connectUs;
        return ok;
    }

    static void
    send(const StatePtr &st, const ConnPtr &c)
    {
        if (st->opsLeft == 0 || nowUs() >= st->deadlineUs) {
            c->busy = false;
            return;
        }
        st->opsLeft--;
        // One third of each kind, the mix bench/http_serve.cc sends.
        net::HttpRequest req;
        uint64_t r = c->rng() % 3;
        if (r == 0) {
            c->kind = Kind::Json;
            req.target = "/api/images";
        } else if (r == 1) {
            const auto &names = apps::memeTemplateNames();
            c->kind = Kind::File;
            c->file = names[c->rng() % names.size()];
            req.target = "/memes/" + c->file + ".bimg";
        } else {
            c->kind = Kind::Chunked;
            req.target = "/api/images?chunked=1";
        }
        c->corrupt = st->corruptNext;
        st->corruptNext = false;
        c->parser.reset();
        c->busy = true;
        c->firstByteUs = 0;
        auto bytes = net::serializeRequest(req);
        c->sentUs = nowUs();
        c->conn->write(bfs::Buffer(bytes.begin(), bytes.end()));
    }

    static bool
    verify(const State &st, const Conn &c, const net::HttpResponse &resp)
    {
        if (resp.status != 200)
            return false;
        const bfs::Buffer &want =
            c.kind == Kind::File ? st.assets.at(c.file) : st.json;
        if (c.kind == Kind::Chunked &&
            resp.header("transfer-encoding") != "chunked")
            return false;
        if (c.corrupt) {
            bfs::Buffer bad = want;
            bad.back() ^= 1;
            return resp.body == bad;
        }
        return resp.body == want;
    }

    static void
    onData(const StatePtr &st, const ConnPtr &c, const bfs::Buffer &data)
    {
        if (!c->busy || !st->log)
            return;
        int64_t now = nowUs();
        if (!c->firstByteUs)
            c->firstByteUs = now;
        if (st->net)
            st->net->bytes += data.size();
        if (!c->parser.feed(data) || c->parser.failed()) {
            fail(st, c);
            return;
        }
        if (!c->parser.done())
            return;
        bool ok = verify(*st, *c, c->parser.response());
        st->log->add((now - c->sentUs) / 1000.0, ok);
        if (st->net) {
            st->net->ttfbUs.push_back(
                static_cast<double>(c->firstByteUs - c->sentUs));
            st->net->bodyUs.push_back(
                static_cast<double>(now - c->firstByteUs));
        }
        if (st->tracer) {
            int track = kHttpTrack + c->index;
            st->tracer->span("request", track, c->sentUs, now);
            st->tracer->span("ttfb", track, c->sentUs, c->firstByteUs);
            st->tracer->span("body", track, c->firstByteUs, now);
        }
        send(st, c);
    }

    static void
    onClose(const StatePtr &st, const ConnPtr &c)
    {
        if (c->busy && st->log)
            fail(st, c);
        c->dead = true;
        c->busy = false;
    }

    static void
    fail(const StatePtr &st, const ConnPtr &c)
    {
        st->log->add((nowUs() - c->sentUs) / 1000.0, false);
        c->busy = false;
        c->dead = true;
        if (c->conn)
            c->conn->close();
    }

    StatePtr state_ = std::make_shared<State>();
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, Scale scale)
{
    if (name == "shell_pipeline")
        return std::make_unique<ShellPipeline>(seed, scale);
    if (name == "latex_build")
        return std::make_unique<LatexBuild>(seed);
    if (name == "meme_http")
        return std::make_unique<MemeHttp>(seed);
    if (name == "awfy_guests")
        return std::make_unique<AwfyGuests>(seed);
    return nullptr;
}

} // namespace e2ebench
