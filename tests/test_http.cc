/**
 * @file
 * HTTP/1.1 parser + serializer tests (incremental feeding, chunked
 * bodies, pipelining, hostile input), the net::HttpServer connection
 * loop over in-memory fake transports, and the simulated remote link.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <set>

#include "jsvm/util.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/netsim.h"
#include "runtime/syscall_proto.h"

using namespace browsix::net;

namespace {

std::vector<uint8_t>
bytes(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

std::string
str(const std::vector<uint8_t> &v)
{
    return std::string(v.begin(), v.end());
}

} // namespace

TEST(HttpSerialize, RequestAddsContentLength)
{
    HttpRequest req;
    req.method = "POST";
    req.target = "/api/meme";
    req.body = bytes("hello");
    std::string out = str(serializeRequest(req));
    EXPECT_NE(out.find("POST /api/meme HTTP/1.1\r\n"), std::string::npos);
    EXPECT_NE(out.find("content-length: 5\r\n"), std::string::npos);
    EXPECT_NE(out.find("\r\n\r\nhello"), std::string::npos);
}

TEST(HttpSerialize, ResponseRoundtrip)
{
    HttpResponse resp;
    resp.status = 404;
    resp.reason = "Not Found";
    resp.headers["content-type"] = "text/plain";
    resp.body = bytes("nope");
    auto wire = serializeResponse(resp);

    HttpParser p(HttpParser::Mode::Response);
    ASSERT_TRUE(p.feed(wire));
    ASSERT_TRUE(p.done());
    EXPECT_EQ(p.response().status, 404);
    EXPECT_EQ(p.response().reason, "Not Found");
    EXPECT_EQ(p.response().header("content-type"), "text/plain");
    EXPECT_EQ(str(p.response().body), "nope");
}

TEST(HttpParser, RequestWithQueryAndHeaders)
{
    HttpParser p(HttpParser::Mode::Request);
    ASSERT_TRUE(p.feed(bytes("GET /api/meme?top=hi%20there&x=1 HTTP/1.1\r\n"
                             "Host: localhost:8080\r\n"
                             "Accept: */*\r\n\r\n")));
    ASSERT_TRUE(p.done());
    EXPECT_EQ(p.request().method, "GET");
    EXPECT_EQ(p.request().header("host"), "localhost:8080");
    auto [path, query] = splitTarget(p.request().target);
    EXPECT_EQ(path, "/api/meme");
    EXPECT_EQ(query["top"], "hi there");
    EXPECT_EQ(query["x"], "1");
}

class HttpParserFeedSizes : public ::testing::TestWithParam<size_t>
{
};

TEST_P(HttpParserFeedSizes, ByteGranularityIsIrrelevant)
{
    // An incremental parser must produce identical results no matter how
    // the socket fragments the stream.
    std::string wire =
        "HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\nhello world";
    HttpParser p(HttpParser::Mode::Response);
    size_t chunk = GetParam();
    for (size_t off = 0; off < wire.size(); off += chunk) {
        size_t n = std::min(chunk, wire.size() - off);
        ASSERT_TRUE(p.feed(
            reinterpret_cast<const uint8_t *>(wire.data()) + off, n));
    }
    ASSERT_TRUE(p.done());
    EXPECT_EQ(str(p.response().body), "hello world");
}

INSTANTIATE_TEST_SUITE_P(Sizes, HttpParserFeedSizes,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 1024));

TEST(HttpParser, ChunkedBodyDecodes)
{
    HttpResponse resp;
    resp.body = bytes(std::string(5000, 'z'));
    auto wire = serializeResponseChunked(resp, 1024);
    HttpParser p(HttpParser::Mode::Response);
    // feed in awkward pieces
    for (size_t off = 0; off < wire.size(); off += 333) {
        size_t n = std::min<size_t>(333, wire.size() - off);
        ASSERT_TRUE(p.feed(wire.data() + off, n));
    }
    ASSERT_TRUE(p.done());
    EXPECT_EQ(p.response().body.size(), 5000u);
    EXPECT_EQ(p.response().body[4999], 'z');
}

TEST(HttpParser, ChunkedEmptyBody)
{
    HttpParser p(HttpParser::Mode::Response);
    ASSERT_TRUE(p.feed(bytes("HTTP/1.1 200 OK\r\n"
                             "transfer-encoding: chunked\r\n\r\n"
                             "0\r\n\r\n")));
    EXPECT_TRUE(p.done());
    EXPECT_TRUE(p.response().body.empty());
}

TEST(HttpParser, PipelinedBytesLandInTrailing)
{
    HttpParser p(HttpParser::Mode::Request);
    ASSERT_TRUE(p.feed(bytes("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n"
                             "\r\n")));
    ASSERT_TRUE(p.done());
    EXPECT_EQ(p.request().target, "/a");
    p.reset();
    ASSERT_TRUE(p.feed(bytes("")));
    ASSERT_TRUE(p.done());
    EXPECT_EQ(p.request().target, "/b");
}

TEST(HttpParser, ResetKeepsTheBodyAllocationForTheNextMessage)
{
    // A keep-alive client parses response after response; the next
    // body reuses the last one's allocation instead of regrowing it.
    HttpParser p(HttpParser::Mode::Response);
    std::string big(300 * 1024, 'a');
    std::string msg = "HTTP/1.1 200 OK\r\ncontent-length: " +
                      std::to_string(big.size()) + "\r\n\r\n" + big;
    ASSERT_TRUE(p.feed(bytes(msg)));
    ASSERT_TRUE(p.done());
    p.reset();
    EXPECT_TRUE(p.response().body.empty());
    EXPECT_GE(p.response().body.capacity(), big.size());
    ASSERT_TRUE(p.feed(bytes(msg)));
    ASSERT_TRUE(p.done());
    EXPECT_EQ(p.response().body.size(), big.size());
}

TEST(HttpParser, MalformedStartLineFails)
{
    HttpParser p(HttpParser::Mode::Response);
    EXPECT_FALSE(p.feed(bytes("NOT-HTTP GARBAGE\r\n\r\n")));
    EXPECT_TRUE(p.failed());
}

TEST(HttpParser, MalformedHeaderFails)
{
    HttpParser p(HttpParser::Mode::Request);
    EXPECT_FALSE(p.feed(bytes("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")));
    EXPECT_TRUE(p.failed());
}

TEST(HttpParser, BadChunkSizeFails)
{
    HttpParser p(HttpParser::Mode::Response);
    EXPECT_FALSE(p.feed(bytes("HTTP/1.1 200 OK\r\n"
                              "transfer-encoding: chunked\r\n\r\n"
                              "zz\r\n")));
}

TEST(HttpParser, ThreePipelinedRequestsCompleteInOneFeed)
{
    // A pipelining client may land several complete messages in one
    // read. Each reset() must immediately re-parse the trailing bytes so
    // every back-to-back message is done() without further feeds.
    HttpParser p(HttpParser::Mode::Request);
    ASSERT_TRUE(p.feed(bytes("GET /a HTTP/1.1\r\n\r\n"
                             "POST /b HTTP/1.1\r\ncontent-length: 4\r\n"
                             "\r\nbody"
                             "GET /c HTTP/1.1\r\nhost: x\r\n\r\n")));
    std::vector<std::string> targets;
    while (p.done()) {
        targets.push_back(p.request().target);
        p.reset();
    }
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_EQ(targets[0], "/a");
    EXPECT_EQ(targets[1], "/b");
    EXPECT_EQ(targets[2], "/c");
    EXPECT_FALSE(p.failed());
    EXPECT_TRUE(p.idle()) << "nothing left over after the last message";
}

TEST(HttpParser, ChunkSizeGarbageSuffixFails)
{
    // Strict hex: stoull would silently accept "10junk" as 0x10.
    HttpParser p(HttpParser::Mode::Response);
    EXPECT_FALSE(p.feed(bytes("HTTP/1.1 200 OK\r\n"
                              "transfer-encoding: chunked\r\n\r\n"
                              "10junk\r\n")));
    EXPECT_TRUE(p.failed());
}

TEST(HttpParser, ChunkExtensionIgnored)
{
    HttpParser p(HttpParser::Mode::Response);
    ASSERT_TRUE(p.feed(bytes("HTTP/1.1 200 OK\r\n"
                             "transfer-encoding: chunked\r\n\r\n"
                             "5;ext=x\r\nhello\r\n0\r\n\r\n")));
    ASSERT_TRUE(p.done());
    EXPECT_EQ(str(p.response().body), "hello");
}

TEST(HttpParser, MissingChunkCrlfFails)
{
    // The CRLF terminating each chunk's data is mandatory framing; a
    // server that skips it could smuggle bytes into the next chunk size.
    HttpParser p(HttpParser::Mode::Response);
    EXPECT_FALSE(p.feed(bytes("HTTP/1.1 200 OK\r\n"
                              "transfer-encoding: chunked\r\n\r\n"
                              "5\r\nhelloXY")));
    EXPECT_TRUE(p.failed());
}

TEST(HttpParser, OversizedChunkRejectedByBodyCap)
{
    HttpParser p(HttpParser::Mode::Response);
    p.setMaxBodyBytes(16);
    // The declared chunk alone busts the cap: fail before buffering it.
    EXPECT_FALSE(p.feed(bytes("HTTP/1.1 200 OK\r\n"
                              "transfer-encoding: chunked\r\n\r\n"
                              "ffff\r\n")));
    EXPECT_TRUE(p.failed());
}

TEST(HttpParser, ContentLengthOverBodyCapFails)
{
    HttpParser p(HttpParser::Mode::Request);
    p.setMaxBodyBytes(10);
    EXPECT_FALSE(p.feed(bytes("POST / HTTP/1.1\r\n"
                              "content-length: 11\r\n\r\n")));
    EXPECT_TRUE(p.failed());
}

TEST(HttpParser, HeaderCapEnforced)
{
    HttpParser p(HttpParser::Mode::Request);
    p.setMaxHeaderBytes(64);
    std::string big = "GET / HTTP/1.1\r\nx-pad: " +
                      std::string(128, 'a') + "\r\n\r\n";
    EXPECT_FALSE(p.feed(bytes(big)));
    EXPECT_TRUE(p.failed());
}

TEST(HttpParser, HeaderCapStopsUnterminatedFlood)
{
    // No complete line ever arrives — the parser must still fail at the
    // cap instead of buffering the flood without bound.
    HttpParser p(HttpParser::Mode::Request);
    p.setMaxHeaderBytes(64);
    std::vector<uint8_t> flood(65, 'A');
    EXPECT_FALSE(p.feed(flood));
    EXPECT_TRUE(p.failed());
}

TEST(HttpParser, TruncationDetectableViaIdle)
{
    // EOF-at-idle is a clean close; EOF mid-message is truncation. The
    // server loop distinguishes them with idle()/done().
    HttpParser clean(HttpParser::Mode::Request);
    EXPECT_TRUE(clean.idle());

    HttpParser cut(HttpParser::Mode::Request);
    ASSERT_TRUE(cut.feed(bytes("GET / HTTP/1.1\r\nhost: ")));
    EXPECT_FALSE(cut.idle());
    EXPECT_FALSE(cut.done());

    HttpParser cutBody(HttpParser::Mode::Request);
    ASSERT_TRUE(cutBody.feed(bytes("POST / HTTP/1.1\r\n"
                                   "content-length: 8\r\n\r\nfour")));
    EXPECT_FALSE(cutBody.idle());
    EXPECT_FALSE(cutBody.done());
}

TEST(HttpUtil, UrlDecode)
{
    EXPECT_EQ(urlDecode("a%20b+c"), "a b c");
    EXPECT_EQ(urlDecode("%41%6a"), "Aj");
    EXPECT_EQ(urlDecode("100%"), "100%") << "stray % stays literal";
}

TEST(HttpUtil, ParseQueryEdgeCases)
{
    auto q = parseQuery("a=1&b=&c&d=x%3Dy");
    EXPECT_EQ(q["a"], "1");
    EXPECT_EQ(q["b"], "");
    EXPECT_EQ(q["c"], "");
    EXPECT_EQ(q["d"], "x=y");
}

// ---------------------------------------------------------------------------
// net::HttpServer over in-memory fake transports.
// ---------------------------------------------------------------------------

namespace {

/** Scripted blocking transport: each read() call consumes the next
 * scripted buffer; an empty script is EOF. Records the teardown order. */
class FakeTransport : public HttpTransport
{
  public:
    std::deque<std::vector<uint8_t>> reads;
    std::string out;
    std::vector<std::string> ops;
    bool finSent = false;
    bool closed = false;

    int64_t read(int, browsix::bfs::Buffer &o, size_t maxlen) override
    {
        if (reads.empty())
            return 0;
        auto &b = reads.front();
        size_t n = std::min(maxlen, b.size());
        o.insert(o.end(), b.begin(), b.begin() + n);
        if (n == b.size())
            reads.pop_front();
        else
            b.erase(b.begin(), b.begin() + n);
        return static_cast<int64_t>(n);
    }
    int64_t writev(int,
                   const std::vector<browsix::bfs::Buffer> &bufs) override
    {
        int64_t total = 0;
        for (const auto &b : bufs) {
            out.append(b.begin(), b.end());
            total += static_cast<int64_t>(b.size());
        }
        ops.push_back("writev");
        return total;
    }
    int shutdownWrite(int) override
    {
        finSent = true;
        ops.push_back("fin");
        return 0;
    }
    int close(int) override
    {
        closed = true;
        ops.push_back("close");
        return 0;
    }
};

/** FakeTransport plus a tiny in-memory filesystem for the sendfile
 * (bodyFile) path. */
class FakeFileTransport : public FakeTransport
{
  public:
    std::map<std::string, std::string> files;

    int64_t fileSize(const std::string &path) override
    {
        auto it = files.find(path);
        return it == files.end() ? -2
                                 : static_cast<int64_t>(it->second.size());
    }
    int64_t sendFile(int, const std::string &path, size_t len) override
    {
        ops.push_back("sendfile");
        out += files[path].substr(0, len);
        return static_cast<int64_t>(len);
    }
};

std::vector<uint8_t>
request(const std::string &target,
        const std::map<std::string, std::string> &headers = {})
{
    HttpRequest req;
    req.target = target;
    req.headers = headers;
    return serializeRequest(req);
}

HttpServer::Handler
echoHandler()
{
    return [](const HttpRequest &req) {
        HttpResponse resp;
        std::string body = "echo " + req.target;
        resp.body.assign(body.begin(), body.end());
        return resp;
    };
}

size_t
countOf(const std::string &haystack, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        n++;
    return n;
}

} // namespace

TEST(HttpServer, KeepAliveServesSequentialRequests)
{
    FakeTransport t;
    t.reads.push_back(request("/one"));
    t.reads.push_back(request("/two"));
    HttpServer server(t, echoHandler());
    server.serveConn(3);

    EXPECT_EQ(server.stats().connections, 1u);
    EXPECT_EQ(server.stats().requests, 2u);
    EXPECT_EQ(server.stats().keepAliveReuses, 1u);
    EXPECT_EQ(server.stats().pipelinedRequests, 0u);
    EXPECT_EQ(countOf(t.out, "HTTP/1.1 200"), 2u);
    EXPECT_NE(t.out.find("echo /one"), std::string::npos);
    EXPECT_NE(t.out.find("echo /two"), std::string::npos);
    EXPECT_TRUE(t.finSent);
    EXPECT_TRUE(t.closed);
}

TEST(HttpServer, PipelinedRequestsAnswerInOneFlush)
{
    FakeTransport t;
    auto both = request("/a");
    auto b = request("/b");
    both.insert(both.end(), b.begin(), b.end());
    t.reads.push_back(std::move(both));
    HttpServer server(t, echoHandler());
    server.serveConn(3);

    EXPECT_EQ(server.stats().requests, 2u);
    EXPECT_EQ(server.stats().pipelinedRequests, 1u);
    EXPECT_EQ(countOf(t.out, "HTTP/1.1 200"), 2u);
    // Both responses coalesced into a single writev.
    EXPECT_EQ(std::count(t.ops.begin(), t.ops.end(), "writev"), 1);
    EXPECT_LT(t.out.find("echo /a"), t.out.find("echo /b"));
}

TEST(HttpServer, MalformedRequestGets400AndClose)
{
    FakeTransport t;
    t.reads.push_back(bytes("GARBAGE REQUEST\r\n\r\n"));
    HttpServer server(t, echoHandler());
    server.serveConn(3);

    EXPECT_EQ(server.stats().requests, 0u);
    EXPECT_EQ(server.stats().parseErrors, 1u);
    EXPECT_NE(t.out.find("HTTP/1.1 400 Bad Request"), std::string::npos);
    EXPECT_NE(t.out.find("connection: close"), std::string::npos);
    EXPECT_TRUE(t.closed);
}

TEST(HttpServer, ConnectionCloseHonored)
{
    FakeTransport t;
    t.reads.push_back(request("/bye", {{"connection", "close"}}));
    // A second request is already queued; it must be drained, not served.
    t.reads.push_back(request("/never"));
    HttpServer server(t, echoHandler());
    server.serveConn(3);

    EXPECT_EQ(server.stats().requests, 1u);
    EXPECT_EQ(countOf(t.out, "HTTP/1.1 200"), 1u);
    EXPECT_NE(t.out.find("connection: close"), std::string::npos);
    EXPECT_EQ(t.out.find("echo /never"), std::string::npos);
    // Graceful: FIN before close, and the drain consumed the backlog.
    EXPECT_TRUE(t.finSent);
    EXPECT_TRUE(t.reads.empty());
}

TEST(HttpServer, Http10DefaultsToClose)
{
    FakeTransport t;
    t.reads.push_back(bytes("GET /old HTTP/1.0\r\n\r\n"));
    t.reads.push_back(request("/never"));
    HttpServer server(t, echoHandler());
    server.serveConn(3);

    EXPECT_EQ(server.stats().requests, 1u);
    EXPECT_NE(t.out.find("connection: close"), std::string::npos);
    EXPECT_TRUE(t.closed);
}

TEST(HttpServer, ChunkedResponseRoundtripsToClient)
{
    FakeTransport t;
    t.reads.push_back(request("/chunky"));
    std::string payload(5000, 'q');
    HttpServer server(t, [&](const HttpRequest &) {
        HttpResponse resp;
        resp.headers["transfer-encoding"] = "chunked";
        resp.body.assign(payload.begin(), payload.end());
        return resp;
    });
    server.serveConn(3);

    EXPECT_EQ(server.stats().chunkedBodies, 1u);
    EXPECT_NE(t.out.find("transfer-encoding: chunked"),
              std::string::npos);
    // The client parser must reassemble the exact body.
    HttpParser p(HttpParser::Mode::Response);
    ASSERT_TRUE(p.feed(bytes(t.out)));
    ASSERT_TRUE(p.done());
    EXPECT_EQ(str(p.response().body), payload);
}

TEST(HttpServer, SendfileBodyStreamsAfterHeaders)
{
    FakeFileTransport t;
    t.files["/memes/a.bimg"] = "filebytes";
    t.reads.push_back(request("/memes/a.bimg"));
    HttpServer server(t, [](const HttpRequest &req) {
        HttpResponse resp;
        resp.bodyFile = splitTarget(req.target).first;
        resp.headers["content-type"] = "application/octet-stream";
        return resp;
    });
    server.serveConn(3);

    EXPECT_EQ(server.stats().requests, 1u);
    EXPECT_EQ(server.stats().sendfileBodies, 1u);
    EXPECT_NE(t.out.find("content-length: 9"), std::string::npos);
    // Headers flushed via writev strictly before the file streamed.
    auto wv = std::find(t.ops.begin(), t.ops.end(), "writev");
    auto sf = std::find(t.ops.begin(), t.ops.end(), "sendfile");
    ASSERT_NE(wv, t.ops.end());
    ASSERT_NE(sf, t.ops.end());
    EXPECT_LT(wv - t.ops.begin(), sf - t.ops.begin());
    EXPECT_NE(t.out.find("\r\n\r\nfilebytes"), std::string::npos);
}

TEST(HttpServer, MissingBodyFileAnswers404)
{
    FakeFileTransport t;
    t.reads.push_back(request("/memes/missing.bimg"));
    HttpServer server(t, [](const HttpRequest &req) {
        HttpResponse resp;
        resp.bodyFile = splitTarget(req.target).first;
        return resp;
    });
    server.serveConn(3);

    EXPECT_EQ(server.stats().sendfileBodies, 0u);
    EXPECT_NE(t.out.find("HTTP/1.1 404"), std::string::npos);
}

TEST(HttpServer, TruncatedRequestCounted)
{
    FakeTransport t;
    t.reads.push_back(bytes("GET / HTTP/1.1\r\nhost: dead-peer"));
    HttpServer server(t, echoHandler());
    server.serveConn(3);

    EXPECT_EQ(server.stats().requests, 0u);
    EXPECT_EQ(server.stats().truncated, 1u);
    EXPECT_TRUE(t.closed);
}

TEST(HttpServer, HeaderCapRejectsOversizedRequest)
{
    FakeTransport t;
    t.reads.push_back(
        request("/", {{"x-pad", std::string(256, 'a')}}));
    HttpServerOptions opts;
    opts.maxHeaderBytes = 64;
    HttpServer server(t, echoHandler(), opts);
    server.serveConn(3);

    EXPECT_EQ(server.stats().parseErrors, 1u);
    EXPECT_NE(t.out.find("HTTP/1.1 400"), std::string::npos);
}

namespace {

/** Readiness-driven fake for HttpServer::run: a listener with a scripted
 * backlog plus per-connection scripted reads. Level-triggered: a
 * connection is "ready" whenever it has bytes or (script exhausted) EOF
 * to report. */
class FakeEventTransport : public HttpEventTransport
{
  public:
    static constexpr int kListener = 100;

    std::deque<int> backlog;
    std::map<int, std::deque<std::vector<uint8_t>>> reads;
    std::set<int> interest;
    std::string out;
    std::map<int, bool> finSent;
    std::map<int, bool> closedFd;
    int waits = 0;

    int64_t read(int fd, browsix::bfs::Buffer &o, size_t maxlen) override
    {
        auto &script = reads[fd];
        if (script.empty())
            return 0;
        auto &b = script.front();
        size_t n = std::min(maxlen, b.size());
        o.insert(o.end(), b.begin(), b.begin() + n);
        if (n == b.size())
            script.pop_front();
        else
            b.erase(b.begin(), b.begin() + n);
        return static_cast<int64_t>(n);
    }
    int64_t writev(int,
                   const std::vector<browsix::bfs::Buffer> &bufs) override
    {
        int64_t total = 0;
        for (const auto &b : bufs) {
            out.append(b.begin(), b.end());
            total += static_cast<int64_t>(b.size());
        }
        return total;
    }
    int shutdownWrite(int fd) override
    {
        finSent[fd] = true;
        return 0;
    }
    int close(int fd) override
    {
        closedFd[fd] = true;
        interest.erase(fd);
        return 0;
    }
    int accept(int) override
    {
        if (backlog.empty())
            return -EAGAIN;
        int fd = backlog.front();
        backlog.pop_front();
        return fd;
    }
    int epollCreate() override { return 500; }
    int epollCtl(int, int op, int fd, int) override
    {
        if (op == browsix::sys::EPOLL_CTL_DEL_)
            interest.erase(fd);
        else
            interest.insert(fd);
        return 0;
    }
    int epollWait(int, std::vector<Event> &evs,
                  size_t maxevents) override
    {
        if (++waits > 10000)
            return -ETIMEDOUT; // broken loop: fail instead of hanging
        evs.clear();
        if (interest.count(kListener) && !backlog.empty())
            evs.push_back({kListener, browsix::sys::POLLIN_});
        for (int fd : interest) {
            if (fd == kListener || evs.size() >= maxevents)
                continue;
            evs.push_back({fd, browsix::sys::POLLIN_});
        }
        return static_cast<int>(evs.size());
    }
};

} // namespace

TEST(HttpServerRun, RequiresEventTransport)
{
    FakeTransport t;
    HttpServer server(t, echoHandler());
    EXPECT_EQ(server.run(5), -ENOTSUP);
}

TEST(HttpServerRun, ServesTwoConnectionsAndDrains)
{
    FakeEventTransport t;
    t.backlog = {7, 8};
    t.reads[7].push_back(request("/seven"));
    t.reads[8].push_back(request("/eight"));
    HttpServerOptions opts;
    opts.maxRequests = 2;
    HttpServer server(t, echoHandler(), opts);

    EXPECT_EQ(server.run(FakeEventTransport::kListener), 0);
    EXPECT_EQ(server.stats().connections, 2u);
    EXPECT_EQ(server.stats().requests, 2u);
    EXPECT_NE(t.out.find("echo /seven"), std::string::npos);
    EXPECT_NE(t.out.find("echo /eight"), std::string::npos);
    EXPECT_TRUE(t.closedFd[7]);
    EXPECT_TRUE(t.closedFd[8]);
    EXPECT_TRUE(t.closedFd[500]) << "epoll fd released on exit";
    EXPECT_TRUE(t.interest.empty());
}

TEST(HttpServerRun, ServerInitiatedCloseIsGraceful)
{
    FakeEventTransport t;
    t.backlog = {9};
    t.reads[9].push_back(request("/bye", {{"connection", "close"}}));
    // Bytes the peer had in flight after our FIN: discarded, not parsed.
    t.reads[9].push_back(bytes("GARBAGE AFTER CLOSE\r\n\r\n"));
    HttpServerOptions opts;
    opts.maxRequests = 1;
    HttpServer server(t, echoHandler(), opts);

    EXPECT_EQ(server.run(FakeEventTransport::kListener), 0);
    EXPECT_EQ(server.stats().requests, 1u);
    EXPECT_EQ(server.stats().parseErrors, 0u)
        << "post-FIN bytes are drained, not parsed";
    EXPECT_TRUE(t.finSent[9]);
    EXPECT_TRUE(t.closedFd[9]);
    EXPECT_EQ(countOf(t.out, "HTTP/1.1"), 1u);
}

TEST(HttpServerRun, TruncatedConnCountedInEventLoop)
{
    FakeEventTransport t;
    t.backlog = {11};
    t.reads[11].push_back(bytes("GET / HTTP/1.1\r\nhost: gone"));
    HttpServerOptions opts;
    opts.maxRequests = 1;
    HttpServer server(t, echoHandler(), opts);

    // The lone connection dies mid-request, so maxRequests is never
    // reached; cap the loop by closing the listener via draining on a
    // second idle pass. run() exits only via draining, so instead serve
    // a second healthy connection to satisfy maxRequests.
    t.backlog.push_back(12);
    t.reads[12].push_back(request("/ok"));

    EXPECT_EQ(server.run(FakeEventTransport::kListener), 0);
    EXPECT_EQ(server.stats().truncated, 1u);
    EXPECT_EQ(server.stats().requests, 1u);
    EXPECT_TRUE(t.closedFd[11]);
    EXPECT_TRUE(t.closedFd[12]);
}

TEST(NetSim, RemoteRequestPaysRtt)
{
    browsix::jsvm::EventLoop loop;
    LinkParams link{/*rttUs=*/10000, /*bytesPerUs=*/0};
    SimulatedRemoteServer server(&loop, link, [](const HttpRequest &) {
        HttpResponse r;
        r.body = {'o', 'k'};
        return r;
    });
    bool done = false;
    int64_t t0 = browsix::jsvm::nowUs();
    int64_t elapsed = 0;
    HttpRequest req;
    server.request(req, [&](int err, HttpResponse resp) {
        EXPECT_EQ(err, 0);
        EXPECT_EQ(resp.body.size(), 2u);
        elapsed = browsix::jsvm::nowUs() - t0;
        done = true;
    });
    while (!done && browsix::jsvm::nowUs() - t0 < 2000000)
        loop.pumpOne(true);
    ASSERT_TRUE(done);
    EXPECT_GE(elapsed, 10000) << "request + response each pay rtt/2";
}

TEST(NetSim, BandwidthDelaysLargePayloads)
{
    browsix::jsvm::EventLoop loop;
    LinkParams slow{/*rttUs=*/0, /*bytesPerUs=*/1.0}; // 1 MB/s
    SimulatedRemoteServer server(&loop, slow, [](const HttpRequest &) {
        HttpResponse r;
        r.body.assign(50000, 'x');
        return r;
    });
    bool done = false;
    int64_t t0 = browsix::jsvm::nowUs();
    HttpRequest req;
    int64_t elapsed = 0;
    server.request(req, [&](int, HttpResponse) {
        elapsed = browsix::jsvm::nowUs() - t0;
        done = true;
    });
    while (!done && browsix::jsvm::nowUs() - t0 < 2000000)
        loop.pumpOne(true);
    ASSERT_TRUE(done);
    EXPECT_GE(elapsed, 50000) << "50 KB at 1 B/us is 50 ms downstream";
}
