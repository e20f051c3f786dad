#include "jsvm/blob.h"

namespace browsix {
namespace jsvm {

std::string
BlobRegistry::createObjectUrl(Data bytes)
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::string url = "blob:browsix/" + std::to_string(nextId_++);
    blobs_[url] = std::move(bytes);
    return url;
}

BlobRegistry::Data
BlobRegistry::resolve(const std::string &url) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = blobs_.find(url);
    return it == blobs_.end() ? nullptr : it->second;
}

void
BlobRegistry::revokeObjectUrl(const std::string &url)
{
    std::lock_guard<std::mutex> lk(mutex_);
    blobs_.erase(url);
}

} // namespace jsvm
} // namespace browsix
