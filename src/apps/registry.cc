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
    specs_[spec.name] = std::move(spec);
}

const ProgramSpec *
ProgramRegistry::find(const std::string &name) const
{
    auto it = specs_.find(name);
    return it == specs_.end() ? nullptr : &it->second;
}

bfs::Buffer
ProgramRegistry::bundleFor(const std::string &name) const
{
    const ProgramSpec *spec = find(name);
    if (!spec)
        jsvm::panic("ProgramRegistry: unknown program " + name);
    std::string header = kMarker + name + "\n";
    // Pad to the bundle's size: worker creation charges a parse cost per
    // byte, so a 8 MB browser-node bundle really costs startup time. The
    // payload line repeats from the header on, cut short at the end.
    static const std::string kPad = "// bundle payload\n";
    bfs::Buffer out(std::max(header.size(), spec->bundleKb * 1024));
    std::memcpy(out.data(), header.data(), header.size());
    uint8_t *payload = out.data() + header.size();
    size_t total = out.size() - header.size();
    size_t filled = std::min(kPad.size(), total);
    std::memcpy(payload, kPad.data(), filled);
    // Double the filled run: it is whole payload lines, so each copy
    // continues the pattern.
    while (filled < total) {
        size_t n = std::min(filled, total - filled);
        std::memcpy(payload + filled, payload, n);
        filled += n;
    }
    return out;
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
