#include "apps/registry.h"

#include <algorithm>
#include <cstring>

#include "jsvm/util.h"

namespace browsix {
namespace apps {

namespace {
const std::string kMarker = "//:browsix-program:";
} // namespace

ProgramRegistry &
ProgramRegistry::instance()
{
    static ProgramRegistry registry;
    return registry;
}

void
ProgramRegistry::add(ProgramSpec spec)
{
    {
        std::lock_guard<std::mutex> lk(bundlesMu_);
        bundles_.erase(spec.name); // its size may have changed
    }
    specs_[spec.name] = std::move(spec);
}

const ProgramSpec *
ProgramRegistry::find(const std::string &name) const
{
    auto it = specs_.find(name);
    return it == specs_.end() ? nullptr : &it->second;
}

bfs::BufferPtr
ProgramRegistry::bundleFor(const std::string &name) const
{
    const ProgramSpec *spec = find(name);
    if (!spec)
        jsvm::panic("ProgramRegistry: unknown program " + name);
    std::lock_guard<std::mutex> lk(bundlesMu_);
    bfs::BufferPtr &cached = bundles_[name];
    if (cached)
        return cached;
    std::string header = kMarker + name + "\n";
    // Pad to the bundle's size: worker creation charges a parse cost per
    // byte, so a 8 MB browser-node bundle really costs startup time. The
    // payload line repeats from the header on, cut short at the end.
    static const std::string kPad = "// bundle payload\n";
    auto out = std::make_shared<bfs::Buffer>(
        std::max(header.size(), spec->bundleKb * 1024));
    std::memcpy(out->data(), header.data(), header.size());
    uint8_t *payload = out->data() + header.size();
    size_t total = out->size() - header.size();
    size_t filled = std::min(kPad.size(), total);
    std::memcpy(payload, kPad.data(), filled);
    // Double the filled run: it is whole payload lines, so each copy
    // continues the pattern.
    while (filled < total) {
        size_t n = std::min(filled, total - filled);
        std::memcpy(payload + filled, payload, n);
        filled += n;
    }
    cached = std::move(out);
    return cached;
}

std::string
ProgramRegistry::programFromBundle(const bfs::Buffer &bytes)
{
    if (bytes.size() < kMarker.size())
        return "";
    if (!std::equal(kMarker.begin(), kMarker.end(), bytes.begin()))
        return "";
    std::string name;
    for (size_t i = kMarker.size(); i < bytes.size(); i++) {
        char c = static_cast<char>(bytes[i]);
        if (c == '\n' || c == '\r')
            break;
        name.push_back(c);
    }
    return name;
}

} // namespace apps
} // namespace browsix
