/**
 * @file
 * Blob URL registry.
 *
 * The kernel spawns processes from files in the Browsix filesystem, which
 * have no server-side URL; like the paper (§3.3), it wraps the bytes in a
 * Blob, obtains a blob: URL, and constructs the Worker from that URL.
 *
 * Like a browser Blob, a blob here is an immutable snapshot that holds
 * its bytes by reference: createObjectUrl stores the caller's shared
 * buffer, so a spawn's executable exists once — in the file it was read
 * from, the blob, and the worker booted from it. The filesystem copies a
 * file's buffer on write while a blob shares it, so a blob never changes.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace browsix {
namespace jsvm {

class BlobRegistry
{
  public:
    using Data = std::shared_ptr<const std::vector<uint8_t>>;

    /** Wrap shared bytes in a blob (no copy) and return a unique blob:
     * URL. */
    std::string createObjectUrl(Data bytes);

    /** Resolve a blob: URL; nullptr when unknown/revoked. */
    Data resolve(const std::string &url) const;

    /** Drop a blob: URL. */
    void revokeObjectUrl(const std::string &url);

  private:
    mutable std::mutex mutex_;
    uint64_t nextId_ = 1;
    std::map<std::string, Data> blobs_;
};

} // namespace jsvm
} // namespace browsix
