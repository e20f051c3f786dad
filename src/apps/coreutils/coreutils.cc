#include "apps/coreutils/coreutils.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <regex>
#include <sstream>
#include <string_view>

#include "apps/coreutils/sha1.h"
#include "bfs/path.h"
#include "jsvm/util.h"
#include "net/http.h"
#include "runtime/node/node_runtime.h"

namespace browsix {
namespace apps {

namespace {

using rt::NodeApi;
using Api = std::shared_ptr<NodeApi>;

std::vector<std::string>
operands(const Api &api)
{
    // argv = [node, script, args...]
    std::vector<std::string> out;
    for (size_t i = 2; i < api->argv.size(); i++)
        out.push_back(api->argv[i]);
    return out;
}

std::string
progName(const Api &api)
{
    return api->argv.size() > 1 ? bfs::basename(api->argv[1]) : "?";
}

void
fail(const Api &api, const std::string &msg, int code = 1)
{
    api->stderrWrite(progName(api) + ": " + msg + "\n",
                     [api, code](int) { api->exit(code); });
}

/** Concatenate stdin until EOF. */
void
slurpStdin(const Api &api, std::function<void(bfs::Buffer)> cb)
{
    auto acc = std::make_shared<bfs::Buffer>();
    auto step = jsvm::AsyncLoop<>::make([api, acc, cb](const auto &step) {
        api->stdinRead([acc, step, cb](int err, bfs::Buffer data) {
            if (err || data.empty()) {
                cb(std::move(*acc));
                return;
            }
            bfs::append(*acc, std::move(data));
            (*step)();
        });
    });
    (*step)();
}

/** Read all named inputs (or stdin when none), concatenated. */
void
readInputs(const Api &api, std::vector<std::string> files,
           std::function<void(int err, std::string errfile, bfs::Buffer)>
               cb)
{
    if (files.empty()) {
        slurpStdin(api, [cb](bfs::Buffer data) { cb(0, "", std::move(data)); });
        return;
    }
    auto acc = std::make_shared<bfs::Buffer>();
    auto list = std::make_shared<std::vector<std::string>>(std::move(files));
    auto step = jsvm::AsyncLoop<size_t>::make(
        [api, acc, list, cb](const auto &step, size_t i) {
            if (i >= list->size()) {
                cb(0, "", std::move(*acc));
                return;
            }
            if ((*list)[i] == "-") {
                slurpStdin(api, [acc, step, i](bfs::Buffer data) {
                    bfs::append(*acc, std::move(data));
                    (*step)(i + 1);
                });
                return;
            }
            api->readFile((*list)[i], [acc, list, step, i,
                                       cb](int err, bfs::Buffer data) {
                if (err) {
                    cb(err, (*list)[i], {});
                    return;
                }
                bfs::append(*acc, std::move(data));
                (*step)(i + 1);
            });
        });
    (*step)(0);
}

/**
 * Call fn(line) for each line of data, in place and without its '\n'.
 * A last line with no trailing newline counts; the empty tail after a
 * final newline does not.
 */
template <typename Fn>
void
forEachLine(const bfs::Buffer &data, Fn &&fn)
{
    const uint8_t *p = data.data();
    const uint8_t *end = p + data.size();
    while (p < end) {
        auto *nl = static_cast<const uint8_t *>(
            std::memchr(p, '\n', static_cast<size_t>(end - p)));
        const uint8_t *eol = nl ? nl : end;
        fn(p, eol);
        p = nl ? nl + 1 : end;
    }
}

std::vector<std::string>
splitLines(const bfs::Buffer &data)
{
    std::vector<std::string> lines;
    forEachLine(data, [&lines](const uint8_t *b, const uint8_t *e) {
        lines.emplace_back(reinterpret_cast<const char *>(b),
                           static_cast<size_t>(e - b));
    });
    return lines;
}

void
writeAndExit(const Api &api, const std::string &out, int code = 0)
{
    api->stdoutWrite(out, [api, code](int) { api->exit(code); });
}

void
writeAndExit(const Api &api, bfs::Buffer out, int code = 0)
{
    api->write(1, std::move(out), [api, code](int64_t) { api->exit(code); });
}

// ---------- the utilities ----------

void
utilCat(Api api)
{
    readInputs(api, operands(api),
               [api](int err, std::string f, bfs::Buffer data) {
                   if (err) {
                       fail(api, f + ": No such file or directory");
                       return;
                   }
                   writeAndExit(api, std::move(data));
               });
}

void
utilEcho(Api api)
{
    auto args = operands(api);
    bool newline = true;
    size_t start = 0;
    if (!args.empty() && args[0] == "-n") {
        newline = false;
        start = 1;
    }
    std::string out;
    for (size_t i = start; i < args.size(); i++) {
        if (i > start)
            out += " ";
        out += args[i];
    }
    if (newline)
        out += "\n";
    writeAndExit(api, out);
}

void
utilPwd(Api api)
{
    writeAndExit(api, api->cwd + "\n");
}

void
utilEnv(Api api)
{
    std::string out;
    for (const auto &[k, v] : api->env)
        out += k + "=" + v + "\n";
    writeAndExit(api, out);
}

void
utilTrue(Api api)
{
    api->exit(0);
}

void
utilFalse(Api api)
{
    api->exit(1);
}

void
utilSeq(Api api)
{
    auto args = operands(api);
    long lo = 1, hi = 0;
    if (args.size() == 1)
        hi = std::atol(args[0].c_str());
    else if (args.size() >= 2) {
        lo = std::atol(args[0].c_str());
        hi = std::atol(args[1].c_str());
    }
    std::string out;
    for (long i = lo; i <= hi; i++)
        out += std::to_string(i) + "\n";
    writeAndExit(api, out);
}

void
utilCp(Api api)
{
    auto args = operands(api);
    if (args.size() != 2) {
        fail(api, "usage: cp SRC DST");
        return;
    }
    api->readFile(args[0], [api, args](int err, bfs::Buffer data) {
        if (err) {
            fail(api, args[0] + ": No such file or directory");
            return;
        }
        api->writeFile(args[1], std::move(data), [api, args](int werr) {
            if (werr)
                fail(api, args[1] + ": write failed");
            else
                api->exit(0);
        });
    });
}

void
utilRm(Api api)
{
    auto args = operands(api);
    if (args.empty()) {
        fail(api, "missing operand");
        return;
    }
    auto list = std::make_shared<std::vector<std::string>>(std::move(args));
    bool force = !list->empty() && (*list)[0] == "-f";
    size_t start = force ? 1 : 0;
    auto step = jsvm::AsyncLoop<size_t>::make(
        [api, list, force](const auto &step, size_t i) {
            if (i >= list->size()) {
                api->exit(0);
                return;
            }
            api->unlink((*list)[i], [api, list, step, i, force](int err) {
                if (err && !force) {
                    fail(api, (*list)[i] + ": cannot remove: No such file "
                                           "or directory");
                    return;
                }
                (*step)(i + 1);
            });
        });
    (*step)(start);
}

void
utilMkdir(Api api)
{
    auto args = operands(api);
    if (args.empty()) {
        fail(api, "missing operand");
        return;
    }
    auto list = std::make_shared<std::vector<std::string>>(std::move(args));
    auto step = jsvm::AsyncLoop<size_t>::make(
        [api, list](const auto &step, size_t i) {
            if (i >= list->size()) {
                api->exit(0);
                return;
            }
            api->mkdir((*list)[i], [api, list, step, i](int err) {
                if (err) {
                    fail(api,
                         "cannot create directory '" + (*list)[i] + "'");
                    return;
                }
                (*step)(i + 1);
            });
        });
    (*step)(0);
}

void
utilRmdir(Api api)
{
    auto args = operands(api);
    if (args.empty()) {
        fail(api, "missing operand");
        return;
    }
    auto list = std::make_shared<std::vector<std::string>>(std::move(args));
    auto step = jsvm::AsyncLoop<size_t>::make(
        [api, list](const auto &step, size_t i) {
            if (i >= list->size()) {
                api->exit(0);
                return;
            }
            api->rmdir((*list)[i], [api, list, step, i](int err) {
                if (err) {
                    fail(api, "failed to remove '" + (*list)[i] + "'");
                    return;
                }
                (*step)(i + 1);
            });
        });
    (*step)(0);
}

void
utilTouch(Api api)
{
    auto args = operands(api);
    if (args.empty()) {
        fail(api, "missing operand");
        return;
    }
    auto list = std::make_shared<std::vector<std::string>>(std::move(args));
    auto step = jsvm::AsyncLoop<size_t>::make(
        [api, list](const auto &step, size_t i) {
            if (i >= list->size()) {
                api->exit(0);
                return;
            }
            const std::string &path = (*list)[i];
            api->stat(path, [api, list, step, i, path](int err, sys::StatX) {
                if (err) {
                    api->writeFile(path, {}, [api, list, step, i](int werr) {
                        if (werr) {
                            fail(api, "cannot touch '" + (*list)[i] + "'");
                            return;
                        }
                        (*step)(i + 1);
                    });
                    return;
                }
                int64_t now = api->nowMs() * 1000;
                api->utimes(path, now, now,
                            [step, i](int) { (*step)(i + 1); });
            });
        });
    (*step)(0);
}

void
utilWc(Api api)
{
    auto args = operands(api);
    readInputs(api, args,
               [api, args](int err, std::string f, bfs::Buffer data) {
                   if (err) {
                       fail(api, f + ": No such file or directory");
                       return;
                   }
                   size_t lines = 0, words = 0, bytes = data.size();
                   bool in_word = false;
                   for (uint8_t b : data) {
                       if (b == '\n')
                           lines++;
                       bool space = b == ' ' || b == '\n' || b == '\t' ||
                                    b == '\r';
                       if (!space && !in_word) {
                           words++;
                           in_word = true;
                       } else if (space) {
                           in_word = false;
                       }
                   }
                   std::ostringstream os;
                   os << lines << " " << words << " " << bytes;
                   if (!args.empty() && args[0] != "-")
                       os << " " << args[0];
                   os << "\n";
                   writeAndExit(api, os.str());
               });
}

void
utilHeadTail(Api api, bool head)
{
    auto args = operands(api);
    long n = 10;
    std::vector<std::string> files;
    for (size_t i = 0; i < args.size(); i++) {
        if (args[i] == "-n" && i + 1 < args.size()) {
            n = std::atol(args[++i].c_str());
        } else {
            files.push_back(args[i]);
        }
    }
    readInputs(api, files,
               [api, n, head](int err, std::string f, bfs::Buffer data) {
                   if (err) {
                       fail(api, f + ": No such file or directory");
                       return;
                   }
                   auto lines = splitLines(data);
                   std::string out;
                   if (head) {
                       for (size_t i = 0;
                            i < lines.size() && i < static_cast<size_t>(n);
                            i++)
                           out += lines[i] + "\n";
                   } else {
                       size_t start = lines.size() > static_cast<size_t>(n)
                                          ? lines.size() - n
                                          : 0;
                       for (size_t i = start; i < lines.size(); i++)
                           out += lines[i] + "\n";
                   }
                   writeAndExit(api, out);
               });
}

void
utilSort(Api api)
{
    auto args = operands(api);
    bool reverse = false;
    bool numeric = false;
    std::vector<std::string> files;
    for (const auto &a : args) {
        if (a == "-r")
            reverse = true;
        else if (a == "-n")
            numeric = true;
        else
            files.push_back(a);
    }
    readInputs(api, files,
               [api, reverse, numeric](int err, std::string f,
                                       bfs::Buffer data) {
                   if (err) {
                       fail(api, f + ": No such file or directory");
                       return;
                   }
                   auto lines = splitLines(data);
                   if (numeric) {
                       std::stable_sort(
                           lines.begin(), lines.end(),
                           [](const std::string &a, const std::string &b) {
                               return std::atof(a.c_str()) <
                                      std::atof(b.c_str());
                           });
                   } else {
                       std::stable_sort(lines.begin(), lines.end());
                   }
                   if (reverse)
                       std::reverse(lines.begin(), lines.end());
                   std::string out;
                   for (const auto &l : lines)
                       out += l + "\n";
                   writeAndExit(api, out);
               });
}

void
utilGrep(Api api)
{
    auto args = operands(api);
    bool invert = false;
    std::vector<std::string> rest;
    for (const auto &a : args) {
        if (a == "-v")
            invert = true;
        else
            rest.push_back(a);
    }
    if (rest.empty()) {
        fail(api, "usage: grep [-v] PATTERN [FILE...]", 2);
        return;
    }
    std::string pattern = rest[0];
    rest.erase(rest.begin());

    // The matcher rule: a pattern with none of ECMAScript's syntax
    // characters is a literal and is found by substring search (GNU
    // grep's literal fast path); any other pattern is compiled once with
    // std::regex, and one std::regex cannot parse is searched for
    // literally. Either way each line is matched in place in the input
    // buffer and a matching line is appended straight from it, so the
    // output is the same bytes std::regex alone would select.
    std::function<bool(std::string_view)> matches =
        [pattern](std::string_view line) {
            return line.find(pattern) != std::string_view::npos;
        };
    if (pattern.find_first_of("^$\\.*+?()[]{}|") != std::string::npos) {
        try {
            auto re = std::make_shared<const std::regex>(pattern);
            matches = [re](std::string_view line) {
                return std::regex_search(line.data(),
                                         line.data() + line.size(), *re);
            };
        } catch (std::regex_error &) {
        }
    }

    readInputs(api, rest,
               [api, matches, invert](int err, std::string f,
                                      bfs::Buffer data) {
                   if (err) {
                       fail(api, f + ": No such file or directory", 2);
                       return;
                   }
                   bfs::Buffer out;
                   size_t hits = 0;
                   forEachLine(data, [&](const uint8_t *b, const uint8_t *e) {
                       std::string_view line(reinterpret_cast<const char *>(b),
                                             static_cast<size_t>(e - b));
                       if (matches(line) != invert) {
                           out.insert(out.end(), b, e);
                           out.push_back('\n');
                           hits++;
                       }
                   });
                   writeAndExit(api, std::move(out), hits > 0 ? 0 : 1);
               });
}

void
utilTee(Api api)
{
    auto files = operands(api);
    slurpStdin(api, [api, files](bfs::Buffer data) {
        auto list = std::make_shared<std::vector<std::string>>(files);
        auto payload = std::make_shared<bfs::Buffer>(std::move(data));
        auto step = jsvm::AsyncLoop<size_t>::make(
            [api, list, payload](const auto &step, size_t i) {
                if (i >= list->size()) {
                    writeAndExit(api, std::move(*payload));
                    return;
                }
                api->writeFile((*list)[i], *payload,
                               [step, i](int) { (*step)(i + 1); });
            });
        (*step)(0);
    });
}

void
utilLs(Api api)
{
    auto args = operands(api);
    bool longfmt = false;
    std::vector<std::string> paths;
    for (const auto &a : args) {
        if (a == "-l")
            longfmt = true;
        else
            paths.push_back(a);
    }
    if (paths.empty())
        paths.push_back(api->cwd);
    std::string path = paths[0];

    api->readdir(path, [api, path, longfmt](int err,
                                            std::vector<std::string> names) {
        if (err) {
            // operand may be a plain file
            api->stat(path, [api, path](int serr, sys::StatX) {
                if (serr) {
                    fail(api, "cannot access '" + path + "'", 2);
                    return;
                }
                writeAndExit(api, path + "\n");
            });
            return;
        }
        std::sort(names.begin(), names.end());
        if (!longfmt) {
            std::string out;
            for (const auto &n : names)
                out += n + "\n";
            writeAndExit(api, out);
            return;
        }
        // ls -l: one lstat per entry (the syscall pattern Figure 9's ls
        // row exercises).
        auto list = std::make_shared<std::vector<std::string>>(
            std::move(names));
        auto out = std::make_shared<std::string>();
        auto step = jsvm::AsyncLoop<size_t>::make(
            [api, path, list, out](const auto &step, size_t i) {
                if (i >= list->size()) {
                    writeAndExit(api, *out);
                    return;
                }
                std::string full = bfs::joinPath(path, (*list)[i]);
                api->lstat(full, [list, out, step, i](int serr,
                                                      sys::StatX st) {
                    std::ostringstream os;
                    if (serr) {
                        os << "?????????? " << (*list)[i] << "\n";
                    } else {
                        os << (st.isDir() ? 'd'
                               : st.isSymlink() ? 'l' : '-')
                           << "rw-r--r-- " << st.nlink << " " << st.size
                           << " " << (*list)[i] << "\n";
                    }
                    *out += os.str();
                    (*step)(i + 1);
                });
            });
        (*step)(0);
    });
}

void
utilStat(Api api)
{
    auto args = operands(api);
    if (args.empty()) {
        fail(api, "missing operand");
        return;
    }
    api->stat(args[0], [api, args](int err, sys::StatX st) {
        if (err) {
            fail(api, "cannot stat '" + args[0] + "'");
            return;
        }
        std::ostringstream os;
        os << "  File: " << args[0] << "\n"
           << "  Size: " << st.size << "\n"
           << " Inode: " << st.ino << "  Links: " << st.nlink << "\n"
           << "  Type: "
           << (st.isDir() ? "directory"
                          : st.isSymlink() ? "symbolic link"
                                           : "regular file")
           << "\n"
           << "Modify: " << st.mtimeUs / 1000000 << "\n";
        writeAndExit(api, os.str());
    });
}

void
utilSha1sum(Api api)
{
    auto args = operands(api);
    readInputs(api, args,
               [api, args](int err, std::string f, bfs::Buffer data) {
                   if (err) {
                       fail(api, f + ": No such file or directory");
                       return;
                   }
                   // browser-node runs SHA-1 as JavaScript: doubles with
                   // masking — the honest JS tax of Figure 9.
                   Sha1Digest d = sha1Js(data);
                   std::string name = args.empty() ? "-" : args[0];
                   writeAndExit(api, sha1Hex(d) + "  " + name + "\n");
               });
}

void
utilXargs(Api api)
{
    auto args = operands(api);
    if (args.empty())
        args.push_back("echo");
    slurpStdin(api, [api, args](bfs::Buffer data) {
        std::vector<std::string> words;
        std::string cur;
        for (uint8_t b : data) {
            if (b == ' ' || b == '\n' || b == '\t') {
                if (!cur.empty()) {
                    words.push_back(cur);
                    cur.clear();
                }
            } else {
                cur.push_back(static_cast<char>(b));
            }
        }
        if (!cur.empty())
            words.push_back(cur);

        std::vector<std::string> cmd;
        // Resolve through the shell's PATH convention: /usr/bin.
        std::string prog = args[0];
        if (prog.find('/') == std::string::npos)
            prog = "/usr/bin/" + prog;
        cmd.push_back(prog);
        cmd.insert(cmd.end(), args.begin() + 1, args.end());
        cmd.insert(cmd.end(), words.begin(), words.end());

        api->spawn(cmd, [api](int64_t pid) {
            if (pid < 0) {
                fail(api, "cannot spawn command", 126);
                return;
            }
            api->waitPid(static_cast<int>(pid), [api](int, int status) {
                api->exit(sys::wexitstatus(status));
            });
        });
    });
}

void
utilCurl(Api api)
{
    // curl http://localhost:PORT/path — the in-Browsix HTTP client.
    auto args = operands(api);
    if (args.empty()) {
        fail(api, "usage: curl http://localhost:PORT/path", 2);
        return;
    }
    std::string url = args.back();
    int port = 80;
    std::string path = "/";
    std::string rest = url;
    auto scheme = rest.find("://");
    if (scheme != std::string::npos)
        rest = rest.substr(scheme + 3);
    auto slash = rest.find('/');
    std::string host = slash == std::string::npos ? rest
                                                  : rest.substr(0, slash);
    if (slash != std::string::npos)
        path = rest.substr(slash);
    auto colon = host.find(':');
    if (colon != std::string::npos)
        port = std::atoi(host.c_str() + colon + 1);

    api->connect(port, [api, path, host](int64_t fd) {
        if (fd < 0) {
            fail(api, "connection refused", 7);
            return;
        }
        net::HttpRequest req;
        req.method = "GET";
        req.target = path;
        req.headers["host"] = host;
        auto bytes = net::serializeRequest(req);
        api->write(static_cast<int>(fd),
                   bfs::Buffer(bytes.begin(), bytes.end()),
                   [api, fd](int64_t) {
            auto parser = std::make_shared<net::HttpParser>(
                net::HttpParser::Mode::Response);
            auto step = jsvm::AsyncLoop<>::make([api, fd,
                                                 parser](const auto &step) {
                api->read(static_cast<int>(fd), 64 * 1024,
                          [api, fd, parser, step](int err,
                                                  bfs::Buffer data) {
                    if (err || data.empty() || !parser->feed(data) ||
                        parser->done()) {
                        api->close(static_cast<int>(fd), nullptr);
                        if (!parser->done()) {
                            fail(api, "malformed response", 1);
                            return;
                        }
                        const auto &resp = parser->response();
                        writeAndExit(api,
                                     std::string(resp.body.begin(),
                                                 resp.body.end()),
                                     resp.status >= 400 ? 22 : 0);
                        return;
                    }
                    (*step)();
                });
            });
            (*step)();
        });
    });
}

} // namespace

void
registerCoreutils()
{
    static bool done = false;
    if (done)
        return;
    done = true;
    using rt::registerNodeUtil;
    registerNodeUtil("cat", utilCat);
    registerNodeUtil("cp", utilCp);
    registerNodeUtil("curl", utilCurl);
    registerNodeUtil("echo", utilEcho);
    registerNodeUtil("env", utilEnv);
    registerNodeUtil("false", utilFalse);
    registerNodeUtil("grep", utilGrep);
    registerNodeUtil("head",
                     [](Api api) { utilHeadTail(std::move(api), true); });
    registerNodeUtil("ls", utilLs);
    registerNodeUtil("mkdir", utilMkdir);
    registerNodeUtil("pwd", utilPwd);
    registerNodeUtil("rm", utilRm);
    registerNodeUtil("rmdir", utilRmdir);
    registerNodeUtil("seq", utilSeq);
    registerNodeUtil("sha1sum", utilSha1sum);
    registerNodeUtil("sort", utilSort);
    registerNodeUtil("stat", utilStat);
    registerNodeUtil("tail",
                     [](Api api) { utilHeadTail(std::move(api), false); });
    registerNodeUtil("tee", utilTee);
    registerNodeUtil("touch", utilTouch);
    registerNodeUtil("true", utilTrue);
    registerNodeUtil("wc", utilWc);
    registerNodeUtil("xargs", utilXargs);
}

std::string
nativeSha1sum(bfs::Vfs &vfs, const std::string &path)
{
    bfs::Buffer data;
    if (vfs.readFileSync(path, data) != 0)
        return "";
    return sha1Hex(sha1Native(data)) + "  " + path + "\n";
}

std::string
nativeLs(bfs::Vfs &vfs, const std::string &path, bool longfmt)
{
    std::string out;
    bool done = false;
    vfs.readdir(path, [&](int err, std::vector<bfs::DirEntry> es) {
        done = true;
        if (err)
            return;
        std::sort(es.begin(), es.end(),
                  [](const bfs::DirEntry &a, const bfs::DirEntry &b) {
                      return a.name < b.name;
                  });
        for (const auto &e : es) {
            if (longfmt) {
                bfs::Stat st;
                vfs.statSync(bfs::joinPath(path, e.name), st);
                out += (st.isDir() ? "d" : "-") + std::string("rw-r--r-- ") +
                       std::to_string(st.nlink) + " " +
                       std::to_string(st.size) + " " + e.name + "\n";
            } else {
                out += e.name + "\n";
            }
        }
    });
    (void)done;
    return out;
}

std::string
nativeCat(bfs::Vfs &vfs, const std::string &path)
{
    bfs::Buffer data;
    if (vfs.readFileSync(path, data) != 0)
        return "";
    return std::string(data.begin(), data.end());
}

std::string
nativeWc(bfs::Vfs &vfs, const std::string &path)
{
    bfs::Buffer data;
    if (vfs.readFileSync(path, data) != 0)
        return "";
    size_t lines = 0, words = 0;
    bool in_word = false;
    for (uint8_t b : data) {
        if (b == '\n')
            lines++;
        bool space = b == ' ' || b == '\n' || b == '\t' || b == '\r';
        if (!space && !in_word) {
            words++;
            in_word = true;
        } else if (space) {
            in_word = false;
        }
    }
    return std::to_string(lines) + " " + std::to_string(words) + " " +
           std::to_string(data.size()) + " " + path + "\n";
}

} // namespace apps
} // namespace browsix
