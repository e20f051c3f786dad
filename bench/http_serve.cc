/**
 * @file
 * Connection-scale HTTP serving through the ring-native path: one
 * meme-httpd process (EmRing runtime, net::HttpServer::run's epoll loop)
 * behind net::SimBackend, with 1k+ concurrent simulated connections
 * issuing keep-alive request rounds — JSON API, sendfile static file,
 * chunked encoding, then a connection:close teardown.
 *
 * This is §5.2's client/server experiment scaled from one request to
 * serving-path throughput: every byte crosses a SimLink-shaped link in
 * both directions, readiness arrives via epoll_wait SQEs parked on the
 * deferral protocol, and every ready connection's read rides one SQ
 * batch under one doorbell. Reported: per-request latency
 * percentiles, Atomics notifies per request, requests per doorbell,
 * deferred-CQE share, and the kernel's drain-pass shape histograms.
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "net/http.h"

using namespace browsix;
using namespace browsix::bench;

namespace {

constexpr int kRounds = 3;

struct ClientConn
{
    net::HttpParser parser{net::HttpParser::Mode::Response};
    std::shared_ptr<kernel::Kernel::HostConn> conn;
    int64_t sentAtUs = 0;
    int round = 0;
    bool done = false;
    bool failed = false;
};

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(p / 100.0 *
                                     static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

} // namespace

int
main()
{
    const int conns_n = smokeMode() ? 64 : 1024;
    const uint64_t total_requests =
        static_cast<uint64_t>(conns_n) * kRounds;

    BootConfig cfg;
    cfg.memeAssets = true;
    cfg.simNet = true;
    // A LAN-ish link: 200 µs RTT, infinite bandwidth. Real-time (not
    // TestClock) because worker threads genuinely block on Atomics.
    cfg.simNetLink = net::LinkParams{200, 0};
    Browsix bx(cfg);

    bx.kernel().spawnRoot(
        {"/usr/bin/meme-httpd", "8080", std::to_string(conns_n),
         std::to_string(total_requests)},
        {}, "/", [](int) {}, nullptr, nullptr, [](int) {});
    if (!bx.waitForPort(8080, 30000)) {
        std::fprintf(stderr, "http_serve: meme-httpd never listened\n");
        return 1;
    }

    const kernel::KernelStats base = bx.kernel().stats();

    std::vector<double> lat_us;
    lat_us.reserve(total_requests);
    std::vector<std::shared_ptr<ClientConn>> clients;
    clients.reserve(conns_n);
    size_t completed = 0;
    size_t failures = 0;

    // Per-connection request schedule: keep-alive JSON round, a
    // sendfile-backed static round, then a chunked round that also asks
    // the server to close (graceful FIN + drain on both sides).
    auto sendRound = [&](const std::shared_ptr<ClientConn> &c) {
        net::HttpRequest req;
        if (c->round == 1) {
            req.target = "/memes/wonka.bimg";
        } else if (c->round == kRounds - 1) {
            req.target = "/api/images?chunked=1";
            req.headers["connection"] = "close";
        } else {
            req.target = "/api/images";
        }
        auto bytes = net::serializeRequest(req);
        c->sentAtUs = jsvm::nowUs();
        c->conn->write(bfs::Buffer(bytes.begin(), bytes.end()));
    };

    int64_t t0 = jsvm::nowUs();
    for (int i = 0; i < conns_n; i++) {
        auto c = std::make_shared<ClientConn>();
        clients.push_back(c);
        bx.kernel().connect(
            8080,
            [&, c](const bfs::Buffer &data) {
                c->parser.feed(data);
                while (c->parser.done()) {
                    lat_us.push_back(static_cast<double>(jsvm::nowUs() -
                                                         c->sentAtUs));
                    c->round++;
                    c->parser.reset();
                    if (c->round < kRounds) {
                        sendRound(c);
                    } else if (!c->done) {
                        c->done = true;
                        completed++;
                        c->conn->close();
                    }
                }
            },
            [&, c]() {
                if (!c->done) {
                    c->done = true;
                    c->failed = true;
                    failures++;
                    completed++;
                }
            },
            [&, c](int err,
                   std::shared_ptr<kernel::Kernel::HostConn> conn) {
                if (err) {
                    c->done = true;
                    c->failed = true;
                    failures++;
                    completed++;
                    return;
                }
                c->conn = std::move(conn);
                sendRound(c);
            });
    }

    bool finished = bx.runUntil(
        [&]() { return completed >= static_cast<size_t>(conns_n); },
        240000);
    double wall_ms = (jsvm::nowUs() - t0) / 1000.0;
    if (!finished || failures > 0 ||
        lat_us.size() != static_cast<size_t>(total_requests)) {
        std::fprintf(stderr,
                     "http_serve: FAILED finished=%d failures=%zu "
                     "responses=%zu/%llu\n",
                     finished ? 1 : 0, failures, lat_us.size(),
                     static_cast<unsigned long long>(total_requests));
        return 1;
    }

    const kernel::KernelStats &ks = bx.kernel().stats();
    double requests = static_cast<double>(total_requests);
    double notifies =
        static_cast<double>(ks.ringNotifies - base.ringNotifies);
    double doorbells =
        static_cast<double>(ks.ringDoorbells - base.ringDoorbells);
    double deferred = static_cast<double>(ks.ringDeferredCompletions -
                                          base.ringDeferredCompletions);
    double ring_calls =
        static_cast<double>(ks.ringSyscallCount - base.ringSyscallCount);

    std::sort(lat_us.begin(), lat_us.end());
    double p50 = percentile(lat_us, 50), p99 = percentile(lat_us, 99);

    std::printf("http_serve: %d concurrent connections x %d requests "
                "(simNet rtt=%lld us)\n\n",
                conns_n, kRounds,
                static_cast<long long>(cfg.simNetLink.rttUs));
    std::printf("  wall time              %10.1f ms\n", wall_ms);
    std::printf("  request latency p50    %10.0f us\n", p50);
    std::printf("  request latency p99    %10.0f us\n", p99);
    std::printf("  ring syscalls          %10.0f (%.1f per request)\n",
                ring_calls, ring_calls / requests);
    std::printf("  notifies per request   %10.2f\n", notifies / requests);
    std::printf("  requests per doorbell  %10.2f\n",
                doorbells > 0 ? requests / doorbells : requests);
    std::printf("  deferred CQEs          %10.0f (%.2f per request)\n",
                deferred, deferred / requests);

    const char *bench = "http_serve";
    recordMetric(bench, "http_connections", conns_n, "conns");
    recordMetric(bench, "http_requests", requests, "reqs");
    recordMetric(bench, "http_wall_ms", wall_ms, "ms");
    recordMetric(bench, "http_p50_us", p50, "us");
    recordMetric(bench, "http_p99_us", p99, "us");
    recordMetric(bench, "http_ring_calls_per_request",
                 ring_calls / requests, "calls");
    recordMetric(bench, "http_notifies_per_request", notifies / requests,
                 "notifies");
    // Unit "ratio" exempts these from the lower-is-better relative
    // gate: requests-per-doorbell improves upward, and the deferred-CQE
    // share is protocol shape, not a cost.
    recordMetric(bench, "http_requests_per_doorbell",
                 doorbells > 0 ? requests / doorbells : requests,
                 "ratio");
    recordMetric(bench, "http_deferred_cqe_per_request",
                 deferred / requests, "ratio");
    recordHistogram(bench, "ring_batch_depth", ks.ringBatchDepth);
    recordHistogram(bench, "ring_drain", ks.ringDrainUs);
    return 0;
}
