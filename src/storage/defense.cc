#include "src/storage/defense.h"

#include <algorithm>

#include "src/common/check.h"

namespace achilles {
namespace persist {

const char* DefenseKindName(DefenseKind kind) {
  switch (kind) {
    case DefenseKind::kLocal:
      return "local";
    case DefenseKind::kRollbaccine:
      return "rollbaccine";
    case DefenseKind::kHealer:
      return "healer";
  }
  return "?";
}

bool DefenseKindFromName(std::string_view name, DefenseKind* out) {
  for (int i = 0; i < kNumDefenseKinds; ++i) {
    const DefenseKind kind = static_cast<DefenseKind>(i);
    if (name == DefenseKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const char* DefenseFateName(DefenseFate fate) {
  switch (fate) {
    case DefenseFate::kIntact:
      return "intact";
    case DefenseFate::kPeerStale:
      return "peer-stale";
    case DefenseFate::kPeerErased:
      return "peer-erased";
  }
  return "?";
}

DefenseService::DefenseService(uint32_t n, const DefenseCosts& costs)
    : n_(n), costs_(costs), holders_(n) {
  ACHILLES_CHECK(n >= 2);
}

void DefenseService::Replicate(uint32_t owner, const std::string& key, uint64_t version,
                               ByteView record) {
  ACHILLES_CHECK(owner < n_);
  ++replications_;
  for (uint32_t h = 0; h < n_; ++h) {
    if (h == owner) {
      continue;
    }
    holders_[h].copies[{owner, key}].push_back(
        Copy{version, Bytes(record.begin(), record.end())});
  }
}

std::optional<DefenseService::Copy> DefenseService::FreshestPeerCopy(
    uint32_t owner, const std::string& key) const {
  ACHILLES_CHECK(owner < n_);
  const Copy* best = nullptr;
  for (uint32_t h = 0; h < n_; ++h) {
    if (h == owner) {
      continue;
    }
    const auto it = holders_[h].copies.find({owner, key});
    if (it == holders_[h].copies.end() || it->second.empty()) {
      continue;
    }
    const Copy& latest = it->second.back();
    if (best == nullptr || latest.version > best->version) {
      best = &latest;
    }
  }
  return best != nullptr ? std::optional<Copy>(*best) : std::nullopt;
}

void DefenseService::Certify(uint32_t owner, const std::string& key, uint64_t version) {
  ACHILLES_CHECK(owner < n_);
  ++certifications_;
  for (uint32_t h = 0; h < n_; ++h) {
    if (h == owner) {
      continue;
    }
    holders_[h].certs[{owner, key}].push_back(version);
  }
}

uint64_t DefenseService::CertifiedFloor(uint32_t owner, const std::string& key) const {
  ACHILLES_CHECK(owner < n_);
  uint64_t floor = 0;
  for (uint32_t h = 0; h < n_; ++h) {
    if (h == owner) {
      continue;
    }
    const auto it = holders_[h].certs.find({owner, key});
    if (it == holders_[h].certs.end() || it->second.empty()) {
      continue;
    }
    floor = std::max(floor, *std::max_element(it->second.begin(), it->second.end()));
  }
  return floor;
}

void DefenseService::ApplyPeerFate(uint32_t owner, DefenseFate fate) {
  ACHILLES_CHECK(owner < n_);
  if (fate == DefenseFate::kIntact) {
    return;
  }
  Holder& holder = holders_[(owner + 1) % n_];
  for (auto& [key, copies] : holder.copies) {
    if (key.first != owner || copies.empty()) {
      continue;
    }
    if (fate == DefenseFate::kPeerErased) {
      copies.clear();
    } else {
      copies.erase(copies.begin() + 1, copies.end());  // Roll back to the oldest copy.
    }
  }
  for (auto& [key, certs] : holder.certs) {
    if (key.first != owner || certs.empty()) {
      continue;
    }
    if (fate == DefenseFate::kPeerErased) {
      certs.clear();
    } else {
      certs.erase(certs.begin() + 1, certs.end());
    }
  }
}

namespace {
DefenseKind g_default_defense = DefenseKind::kLocal;
}  // namespace

DefenseKind DefaultDefense() { return g_default_defense; }
void SetDefaultDefense(DefenseKind kind) { g_default_defense = kind; }

}  // namespace persist
}  // namespace achilles
