#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace browsix {
namespace net {

namespace {

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r");
    size_t e = s.find_last_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

void
appendStr(std::vector<uint8_t> &out, const std::string &s)
{
    out.insert(out.end(), s.begin(), s.end());
}

} // namespace

std::string
HttpRequest::header(const std::string &name, const std::string &dflt) const
{
    auto it = headers.find(toLower(name));
    return it == headers.end() ? dflt : it->second;
}

std::string
HttpResponse::header(const std::string &name, const std::string &dflt) const
{
    auto it = headers.find(toLower(name));
    return it == headers.end() ? dflt : it->second;
}

std::vector<uint8_t>
serializeRequest(const HttpRequest &req)
{
    std::vector<uint8_t> out;
    appendStr(out, req.method + " " + req.target + " " + req.version +
                       "\r\n");
    bool has_len = req.headers.count("content-length") > 0;
    for (const auto &[k, v] : req.headers)
        appendStr(out, k + ": " + v + "\r\n");
    if (!has_len && (!req.body.empty() || req.method == "POST" ||
                     req.method == "PUT"))
        appendStr(out,
                  "content-length: " + std::to_string(req.body.size()) +
                      "\r\n");
    appendStr(out, "\r\n");
    out.insert(out.end(), req.body.begin(), req.body.end());
    return out;
}

std::vector<uint8_t>
serializeResponse(const HttpResponse &resp)
{
    std::vector<uint8_t> out;
    appendStr(out, resp.version + " " + std::to_string(resp.status) + " " +
                       resp.reason + "\r\n");
    bool has_len = resp.headers.count("content-length") > 0;
    for (const auto &[k, v] : resp.headers)
        appendStr(out, k + ": " + v + "\r\n");
    if (!has_len)
        appendStr(out,
                  "content-length: " + std::to_string(resp.body.size()) +
                      "\r\n");
    appendStr(out, "\r\n");
    out.insert(out.end(), resp.body.begin(), resp.body.end());
    return out;
}

std::vector<uint8_t>
serializeResponseChunked(const HttpResponse &resp, size_t chunk_size)
{
    std::vector<uint8_t> out;
    appendStr(out, resp.version + " " + std::to_string(resp.status) + " " +
                       resp.reason + "\r\n");
    for (const auto &[k, v] : resp.headers) {
        if (k == "content-length")
            continue;
        appendStr(out, k + ": " + v + "\r\n");
    }
    appendStr(out, "transfer-encoding: chunked\r\n\r\n");
    size_t off = 0;
    while (off < resp.body.size()) {
        size_t n = std::min(chunk_size, resp.body.size() - off);
        std::ostringstream sz;
        sz << std::hex << n;
        appendStr(out, sz.str() + "\r\n");
        out.insert(out.end(), resp.body.begin() + off,
                   resp.body.begin() + off + n);
        appendStr(out, "\r\n");
        off += n;
    }
    appendStr(out, "0\r\n\r\n");
    return out;
}

bool
HttpParser::parseStartLine(const std::string &line)
{
    std::istringstream is(line);
    if (mode_ == Mode::Request) {
        if (!(is >> req_.method >> req_.target >> req_.version))
            return false;
        return req_.version.rfind("HTTP/", 0) == 0;
    }
    std::string status;
    if (!(is >> resp_.version >> status))
        return false;
    std::string reason;
    std::getline(is, reason);
    resp_.reason = trim(reason);
    try {
        resp_.status = std::stoi(status);
    } catch (...) {
        return false;
    }
    return resp_.version.rfind("HTTP/", 0) == 0;
}

bool
HttpParser::parseHeaderLine(const std::string &line)
{
    auto colon = line.find(':');
    if (colon == std::string::npos)
        return false;
    std::string name = toLower(trim(line.substr(0, colon)));
    std::string value = trim(line.substr(colon + 1));
    if (mode_ == Mode::Request)
        req_.headers[name] = value;
    else
        resp_.headers[name] = value;
    return true;
}

void
HttpParser::finishHeaders()
{
    std::string te = mode_ == Mode::Request
                         ? req_.header("transfer-encoding")
                         : resp_.header("transfer-encoding");
    if (toLower(te).find("chunked") != std::string::npos) {
        chunked_ = true;
        state_ = State::ChunkSize;
        return;
    }
    std::string cl = mode_ == Mode::Request
                         ? req_.header("content-length", "0")
                         : resp_.header("content-length", "0");
    try {
        bodyRemaining_ = static_cast<size_t>(std::stoull(cl));
    } catch (...) {
        state_ = State::Error;
        return;
    }
    if (maxBodyBytes_ && bodyRemaining_ > maxBodyBytes_) {
        state_ = State::Error;
        return;
    }
    state_ = bodyRemaining_ == 0 ? State::Done : State::Body;
}

bool
HttpParser::feed(const uint8_t *data, size_t len)
{
    if (state_ == State::Error)
        return false;
    if (state_ == State::Done) {
        trailing_.insert(trailing_.end(), data, data + len);
        return true;
    }
    buf_.insert(buf_.end(), data, data + len);

    size_t pos = 0;
    auto &body = mode_ == Mode::Request ? req_.body : resp_.body;

    auto takeLine = [&](std::string &line) -> bool {
        for (size_t i = pos; i + 1 < buf_.size(); i++) {
            if (buf_[i] == '\r' && buf_[i + 1] == '\n') {
                line.assign(buf_.begin() + pos, buf_.begin() + i);
                pos = i + 2;
                return true;
            }
        }
        return false;
    };

    for (;;) {
        switch (state_) {
          case State::StartLine: {
            std::string line;
            if (!takeLine(line))
                goto out;
            if (line.empty())
                continue; // tolerate leading blank lines
            headerBytes_ += line.size() + 2;
            if (!parseStartLine(line)) {
                state_ = State::Error;
                return false;
            }
            state_ = State::Headers;
            break;
          }
          case State::Headers: {
            std::string line;
            if (!takeLine(line))
                goto out;
            headerBytes_ += line.size() + 2;
            if (headerBytes_ > maxHeaderBytes_) {
                state_ = State::Error;
                return false;
            }
            if (line.empty()) {
                finishHeaders();
                if (state_ == State::Error)
                    return false;
                break;
            }
            if (!parseHeaderLine(line)) {
                state_ = State::Error;
                return false;
            }
            break;
          }
          case State::Body: {
            size_t avail = buf_.size() - pos;
            size_t n = std::min(avail, bodyRemaining_);
            body.insert(body.end(), buf_.begin() + pos,
                        buf_.begin() + pos + n);
            pos += n;
            bodyRemaining_ -= n;
            if (bodyRemaining_ == 0)
                state_ = State::Done;
            if (state_ != State::Done)
                goto out;
            break;
          }
          case State::ChunkSize: {
            std::string line;
            if (!takeLine(line))
                goto out;
            std::string sz = trim(line);
            // Chunk extensions (";name=value") are allowed but ignored.
            auto semi = sz.find(';');
            if (semi != std::string::npos)
                sz = trim(sz.substr(0, semi));
            // Strict hex: stoull would accept "10junk" or "  -1".
            if (sz.empty() || sz.size() > 16 ||
                sz.find_first_not_of("0123456789abcdefABCDEF") !=
                    std::string::npos) {
                state_ = State::Error;
                return false;
            }
            chunkRemaining_ =
                static_cast<size_t>(std::stoull(sz, nullptr, 16));
            if (maxBodyBytes_ &&
                body.size() + chunkRemaining_ > maxBodyBytes_) {
                state_ = State::Error;
                return false;
            }
            state_ = chunkRemaining_ == 0 ? State::ChunkTrailer
                                          : State::ChunkData;
            break;
          }
          case State::ChunkData: {
            size_t avail = buf_.size() - pos;
            size_t n = std::min(avail, chunkRemaining_);
            body.insert(body.end(), buf_.begin() + pos,
                        buf_.begin() + pos + n);
            pos += n;
            chunkRemaining_ -= n;
            if (chunkRemaining_ > 0)
                goto out; // mid-chunk, need more data
            // The chunk's terminating CRLF must follow its data.
            if (buf_.size() - pos < 2)
                goto out; // re-enters here (chunkRemaining_ == 0)
            if (buf_[pos] != '\r' || buf_[pos + 1] != '\n') {
                state_ = State::Error;
                return false;
            }
            pos += 2;
            state_ = State::ChunkSize;
            break;
          }
          case State::ChunkTrailer: {
            std::string line;
            if (!takeLine(line))
                goto out;
            if (line.empty())
                state_ = State::Done;
            break;
          }
          case State::Done:
            trailing_.insert(trailing_.end(), buf_.begin() + pos,
                             buf_.end());
            pos = buf_.size();
            goto out;
          case State::Error:
            return false;
        }
    }
out:
    buf_.erase(buf_.begin(), buf_.begin() + pos);
    // A header section that still has no complete line past the cap can
    // only grow — fail it now instead of buffering without bound.
    if ((state_ == State::StartLine || state_ == State::Headers) &&
        headerBytes_ + buf_.size() > maxHeaderBytes_) {
        state_ = State::Error;
        return false;
    }
    return true;
}

void
HttpParser::reset()
{
    state_ = State::StartLine;
    lineBuf_.clear();
    bodyRemaining_ = 0;
    chunkRemaining_ = 0;
    headerBytes_ = 0;
    chunked_ = false;
    // Keep the body's allocation: a keep-alive connection parses message
    // after message, and a large body would otherwise be reallocated,
    // and its pages faulted in again, for every one.
    auto &body = mode_ == Mode::Request ? req_.body : resp_.body;
    std::vector<uint8_t> kept = std::move(body);
    kept.clear();
    req_ = HttpRequest{};
    resp_ = HttpResponse{};
    body = std::move(kept);
    buf_.clear();
    // Pipelined bytes begin the next message — re-parse them now, so a
    // complete back-to-back message is done() without waiting for more
    // bytes that may never arrive.
    std::vector<uint8_t> pending = std::move(trailing_);
    trailing_.clear();
    if (!pending.empty())
        feed(pending.data(), pending.size());
}

std::string
urlDecode(const std::string &s)
{
    std::string out;
    for (size_t i = 0; i < s.size(); i++) {
        if (s[i] == '%' && i + 2 < s.size()) {
            auto hex = [](char c) -> int {
                if (c >= '0' && c <= '9')
                    return c - '0';
                if (c >= 'a' && c <= 'f')
                    return c - 'a' + 10;
                if (c >= 'A' && c <= 'F')
                    return c - 'A' + 10;
                return -1;
            };
            int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
            if (hi >= 0 && lo >= 0) {
                out.push_back(static_cast<char>(hi * 16 + lo));
                i += 2;
                continue;
            }
        }
        if (s[i] == '+')
            out.push_back(' ');
        else
            out.push_back(s[i]);
    }
    return out;
}

std::map<std::string, std::string>
parseQuery(const std::string &query)
{
    std::map<std::string, std::string> out;
    size_t start = 0;
    while (start < query.size()) {
        size_t amp = query.find('&', start);
        if (amp == std::string::npos)
            amp = query.size();
        std::string kv = query.substr(start, amp - start);
        size_t eq = kv.find('=');
        if (eq == std::string::npos)
            out[urlDecode(kv)] = "";
        else
            out[urlDecode(kv.substr(0, eq))] = urlDecode(kv.substr(eq + 1));
        start = amp + 1;
    }
    return out;
}

std::pair<std::string, std::map<std::string, std::string>>
splitTarget(const std::string &target)
{
    auto q = target.find('?');
    if (q == std::string::npos)
        return {target, {}};
    return {target.substr(0, q), parseQuery(target.substr(q + 1))};
}

} // namespace net
} // namespace browsix
