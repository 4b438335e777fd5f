#include "src/tee/sealed_storage.h"

namespace achilles {

void SealedStorage::Put(const std::string& key, Bytes blob) {
  versions_[key].push_back(std::move(blob));
  ++puts_;
}

std::optional<Bytes> SealedStorage::Get(const std::string& key,
                                        size_t* served_version) const {
  if (served_version != nullptr) {
    *served_version = 0;
  }
  auto it = versions_.find(key);
  if (it == versions_.end() || it->second.empty()) {
    return std::nullopt;
  }
  const std::vector<Bytes>& history = it->second;
  auto serve = [&](size_t idx) -> std::optional<Bytes> {
    if (served_version != nullptr) {
      *served_version = idx + 1;
    }
    return history[idx];
  };
  switch (mode_) {
    case RollbackMode::kLatest:
      return serve(history.size() - 1);
    case RollbackMode::kOldest:
      return serve(0);
    case RollbackMode::kPinned: {
      auto pin = pinned_.find(key);
      const size_t idx = pin == pinned_.end() ? history.size() - 1
                                              : std::min(pin->second, history.size() - 1);
      return serve(idx);
    }
    case RollbackMode::kErase:
      return std::nullopt;
  }
  return std::nullopt;
}

void SealedStorage::PinServedVersion(const std::string& key, size_t version) {
  pinned_[key] = version;
}

size_t SealedStorage::NumVersions(const std::string& key) const {
  auto it = versions_.find(key);
  return it == versions_.end() ? 0 : it->second.size();
}

}  // namespace achilles
