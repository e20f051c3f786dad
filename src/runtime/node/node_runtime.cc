#include "runtime/node/node_runtime.h"

#include <map>

#include "jsvm/util.h"

namespace browsix {
namespace rt {

namespace {

std::map<std::string, NodeUtilFn> &
utilRegistry()
{
    static std::map<std::string, NodeUtilFn> registry;
    return registry;
}

} // namespace

void
registerNodeUtil(const std::string &name, NodeUtilFn fn)
{
    utilRegistry()[name] = std::move(fn);
}

NodeUtilFn
lookupNodeUtil(const std::string &name)
{
    auto it = utilRegistry().find(name);
    return it == utilRegistry().end() ? nullptr : it->second;
}

std::vector<std::string>
nodeUtilNames()
{
    std::vector<std::string> names;
    for (const auto &[name, fn] : utilRegistry())
        names.push_back(name);
    return names;
}

std::string
nodeUtilFromScript(const bfs::Buffer &script)
{
    const std::string marker = "//:node-util:";
    std::string text(script.begin(),
                     script.begin() +
                         std::min<size_t>(script.size(), 4096));
    auto pos = text.find(marker);
    if (pos == std::string::npos)
        return "";
    pos += marker.size();
    auto end = text.find_first_of("\r\n \t", pos);
    if (end == std::string::npos)
        end = text.size();
    return text.substr(pos, end - pos);
}

NodeBrowsixApi::NodeBrowsixApi(std::shared_ptr<SyscallClient> client)
    : client_(std::move(client))
{
    const InitInfo &init = client_->init();
    argv = init.args;
    env = init.env;
    cwd = init.cwd;
    pid = init.pid;
}

void
NodeBrowsixApi::readFile(const std::string &path, DataCb cb)
{
    auto self = shared_from_this();
    open(path, 0, [self, cb](int64_t fd) {
        if (fd < 0) {
            cb(static_cast<int>(-fd), {});
            return;
        }
        auto acc = std::make_shared<bfs::Buffer>();
        auto step = jsvm::AsyncLoop<>::make([self, fd, acc,
                                             cb](const auto &step) {
            self->read(static_cast<int>(fd), 64 * 1024,
                       [self, fd, acc, step, cb](int err, bfs::Buffer data) {
                           if (err) {
                               self->close(static_cast<int>(fd), nullptr);
                               cb(err, {});
                               return;
                           }
                           if (data.empty()) {
                               self->close(static_cast<int>(fd), nullptr);
                               cb(0, std::move(*acc));
                               return;
                           }
                           bfs::append(*acc, std::move(data));
                           (*step)();
                       });
        });
        (*step)();
    });
}

void
NodeBrowsixApi::writeFile(const std::string &path, bfs::Buffer data,
                          VoidCb cb)
{
    auto self = shared_from_this();
    client_->call(
        "open",
        {jsvm::Value(path),
         jsvm::Value(bfs::flags::CREAT | bfs::flags::TRUNC |
                     bfs::flags::WRONLY),
         jsvm::Value(0644)},
        [self, data = std::move(data), cb](int64_t fd, int64_t,
                                           jsvm::Value) {
            if (fd < 0) {
                if (cb)
                    cb(static_cast<int>(-fd));
                return;
            }
            self->write(static_cast<int>(fd), data,
                        [self, fd, cb](int64_t n) {
                            self->close(static_cast<int>(fd), nullptr);
                            if (cb)
                                cb(n < 0 ? static_cast<int>(-n) : 0);
                        });
        });
}

void
NodeBrowsixApi::appendFile(const std::string &path, bfs::Buffer data,
                           VoidCb cb)
{
    auto self = shared_from_this();
    client_->call(
        "open",
        {jsvm::Value(path),
         jsvm::Value(bfs::flags::CREAT | bfs::flags::APPEND |
                     bfs::flags::WRONLY),
         jsvm::Value(0644)},
        [self, data = std::move(data), cb](int64_t fd, int64_t,
                                           jsvm::Value) {
            if (fd < 0) {
                if (cb)
                    cb(static_cast<int>(-fd));
                return;
            }
            self->write(static_cast<int>(fd), data,
                        [self, fd, cb](int64_t n) {
                            self->close(static_cast<int>(fd), nullptr);
                            if (cb)
                                cb(n < 0 ? static_cast<int>(-n) : 0);
                        });
        });
}

void
NodeBrowsixApi::readdir(const std::string &path, NamesCb cb)
{
    client_->call("readdir", {jsvm::Value(path)},
                  [cb](int64_t r0, int64_t, jsvm::Value data) {
                      if (r0 < 0) {
                          cb(static_cast<int>(-r0), {});
                          return;
                      }
                      std::vector<std::string> names;
                      if (data.isArray()) {
                          for (const auto &n : data.asArray())
                              names.push_back(
                                  n.isString() ? n.asString() : "");
                      }
                      cb(0, std::move(names));
                  });
}

void
NodeBrowsixApi::stat(const std::string &path, StatCb cb)
{
    client_->call("stat", {jsvm::Value(path)},
                  [cb](int64_t r0, int64_t, jsvm::Value data) {
                      if (r0 < 0) {
                          cb(static_cast<int>(-r0), {});
                          return;
                      }
                      cb(0, sys::statFromValue(data));
                  });
}

void
NodeBrowsixApi::lstat(const std::string &path, StatCb cb)
{
    client_->call("lstat", {jsvm::Value(path)},
                  [cb](int64_t r0, int64_t, jsvm::Value data) {
                      if (r0 < 0) {
                          cb(static_cast<int>(-r0), {});
                          return;
                      }
                      cb(0, sys::statFromValue(data));
                  });
}

namespace {
NodeApi::VoidCb
errAdapter(NodeApi::VoidCb cb)
{
    return cb ? cb : [](int) {};
}
} // namespace

void
NodeBrowsixApi::unlink(const std::string &path, VoidCb cb)
{
    client_->call("unlink", {jsvm::Value(path)},
                  [cb = errAdapter(cb)](int64_t r0, int64_t, jsvm::Value) {
                      cb(r0 < 0 ? static_cast<int>(-r0) : 0);
                  });
}

void
NodeBrowsixApi::mkdir(const std::string &path, VoidCb cb)
{
    client_->call("mkdir", {jsvm::Value(path), jsvm::Value(0755)},
                  [cb = errAdapter(cb)](int64_t r0, int64_t, jsvm::Value) {
                      cb(r0 < 0 ? static_cast<int>(-r0) : 0);
                  });
}

void
NodeBrowsixApi::rmdir(const std::string &path, VoidCb cb)
{
    client_->call("rmdir", {jsvm::Value(path)},
                  [cb = errAdapter(cb)](int64_t r0, int64_t, jsvm::Value) {
                      cb(r0 < 0 ? static_cast<int>(-r0) : 0);
                  });
}

void
NodeBrowsixApi::rename(const std::string &from, const std::string &to,
                       VoidCb cb)
{
    client_->call("rename", {jsvm::Value(from), jsvm::Value(to)},
                  [cb = errAdapter(cb)](int64_t r0, int64_t, jsvm::Value) {
                      cb(r0 < 0 ? static_cast<int>(-r0) : 0);
                  });
}

void
NodeBrowsixApi::utimes(const std::string &path, int64_t atime_us,
                       int64_t mtime_us, VoidCb cb)
{
    client_->call("utimes",
                  {jsvm::Value(path),
                   jsvm::Value(static_cast<double>(atime_us)),
                   jsvm::Value(static_cast<double>(mtime_us))},
                  [cb = errAdapter(cb)](int64_t r0, int64_t, jsvm::Value) {
                      cb(r0 < 0 ? static_cast<int>(-r0) : 0);
                  });
}

void
NodeBrowsixApi::open(const std::string &path, int oflags, IntCb cb)
{
    client_->call("open",
                  {jsvm::Value(path), jsvm::Value(oflags),
                   jsvm::Value(0644)},
                  [cb](int64_t r0, int64_t, jsvm::Value) { cb(r0); });
}

void
NodeBrowsixApi::read(int fd, size_t n, DataCb cb)
{
    client_->call("read",
                  {jsvm::Value(fd), jsvm::Value(static_cast<double>(n))},
                  [cb](int64_t r0, int64_t, jsvm::Value data) {
                      if (r0 < 0) {
                          cb(static_cast<int>(-r0), {});
                          return;
                      }
                      bfs::Buffer out;
                      if (data.isBytes() && data.asBytes())
                          out = *data.asBytes();
                      cb(0, std::move(out));
                  });
}

void
NodeBrowsixApi::write(int fd, bfs::Buffer data, IntCb cb)
{
    client_->call("write",
                  {jsvm::Value(fd), jsvm::Value::bytes(std::move(data))},
                  [cb](int64_t r0, int64_t, jsvm::Value) {
                      if (cb)
                          cb(r0);
                  });
}

void
NodeBrowsixApi::close(int fd, VoidCb cb)
{
    client_->call("close", {jsvm::Value(fd)},
                  [cb = errAdapter(cb)](int64_t r0, int64_t, jsvm::Value) {
                      cb(r0 < 0 ? static_cast<int>(-r0) : 0);
                  });
}

void
NodeBrowsixApi::fdWrite(int fd, const std::string &s, VoidCb cb)
{
    // From a byte range: built from char iterators, the vector would
    // convert element by element instead of copying in one memcpy.
    const auto *p = reinterpret_cast<const uint8_t *>(s.data());
    write(fd, bfs::Buffer(p, p + s.size()),
          [cb = errAdapter(cb)](int64_t r) {
              cb(r < 0 ? static_cast<int>(-r) : 0);
          });
}

void
NodeBrowsixApi::stdoutWrite(const std::string &s, VoidCb cb)
{
    fdWrite(1, s, std::move(cb));
}

void
NodeBrowsixApi::stderrWrite(const std::string &s, VoidCb cb)
{
    fdWrite(2, s, std::move(cb));
}

void
NodeBrowsixApi::stdinRead(DataCb cb)
{
    read(0, 256 * 1024, std::move(cb));
}

void
NodeBrowsixApi::connect(int port, IntCb cb)
{
    auto self = shared_from_this();
    client_->call("socket", {},
                  [self, port, cb](int64_t fd, int64_t, jsvm::Value) {
                      if (fd < 0) {
                          cb(fd);
                          return;
                      }
                      self->client_->call(
                          "connect",
                          {jsvm::Value(static_cast<int>(fd)),
                           jsvm::Value(port)},
                          [fd, cb](int64_t r0, int64_t, jsvm::Value) {
                              cb(r0 < 0 ? r0 : fd);
                          });
                  });
}

void
NodeBrowsixApi::spawn(const std::vector<std::string> &argv, IntCb cb)
{
    jsvm::Value argv_v = jsvm::Value::array();
    for (const auto &a : argv)
        argv_v.push(jsvm::Value(a));
    jsvm::Value env_v = jsvm::Value::object();
    for (const auto &[k, v] : env)
        env_v.set(k, jsvm::Value(v));
    jsvm::Value fds_v = jsvm::Value::array();
    for (int fd : {0, 1, 2})
        fds_v.push(jsvm::Value(fd));
    client_->call("spawn",
                  {std::move(argv_v), std::move(env_v), jsvm::Value(cwd),
                   std::move(fds_v)},
                  [cb](int64_t r0, int64_t, jsvm::Value) { cb(r0); });
}

void
NodeBrowsixApi::waitPid(int pid, std::function<void(int, int)> cb)
{
    client_->call("wait4", {jsvm::Value(pid), jsvm::Value(0)},
                  [cb](int64_t r0, int64_t r1, jsvm::Value) {
                      cb(static_cast<int>(r0), static_cast<int>(r1));
                  });
}

void
NodeBrowsixApi::kill(int pid, int sig, VoidCb cb)
{
    client_->call("kill", {jsvm::Value(pid), jsvm::Value(sig)},
                  [cb = errAdapter(cb)](int64_t r0, int64_t, jsvm::Value) {
                      cb(r0 < 0 ? static_cast<int>(-r0) : 0);
                  });
}

void
NodeBrowsixApi::exit(int code)
{
    if (exited_)
        return;
    exited_ = true;
    client_->post("exit", {jsvm::Value(code)});
}

int64_t
NodeBrowsixApi::nowMs()
{
    return jsvm::nowUs() / 1000;
}

void
NodeRuntime::boot(jsvm::WorkerScope &scope,
                  std::shared_ptr<SyscallClient> client)
{
    (void)scope;
    client->onInit([client](const InitInfo &init) {
        auto api = std::make_shared<NodeBrowsixApi>(client);
        if (init.args.size() < 2) {
            api->stderrWrite("node: missing script argument\n", nullptr);
            api->exit(1);
            return;
        }
        std::string script = init.args[1];
        api->readFile(script, [api, script](int err, bfs::Buffer data) {
            if (err) {
                api->stderrWrite("node: cannot load " + script + "\n", nullptr);
                api->exit(127);
                return;
            }
            std::string util = nodeUtilFromScript(data);
            NodeUtilFn fn = lookupNodeUtil(util);
            if (!fn) {
                api->stderrWrite("node: " + script +
                                     ": unknown program\n",
                                 nullptr);
                api->exit(127);
                return;
            }
            fn(api);
        });
    });
}

} // namespace rt
} // namespace browsix
