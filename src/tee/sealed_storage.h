// Untrusted persistent storage, version-keeping, adversary-controllable. SGX's seal/unseal
// protects confidentiality and integrity of each blob but NOT freshness: after a reboot the
// OS (here: the adversary) may serve any previously stored version — the rollback attack.
#ifndef SRC_TEE_SEALED_STORAGE_H_
#define SRC_TEE_SEALED_STORAGE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"

namespace achilles {

// What the (possibly adversarial) OS serves when an enclave asks for a sealed blob.
enum class RollbackMode {
  kLatest,   // Honest OS: freshest version.
  kOldest,   // Serve the very first version ever stored (full rollback/reset).
  kPinned,   // Serve the version pinned via PinServedVersion.
  kErase,    // Pretend nothing was ever stored.
};

class SealedStorage {
 public:
  SealedStorage() = default;

  // Stores a new version of `key` (history retained — the adversary can replay any of it).
  void Put(const std::string& key, Bytes blob);

  // Returns the blob the OS chooses to serve, per the rollback mode. `served_version`
  // (optional) reports which version was handed out, 1-based (0 = nothing served) — the
  // flight recorder uses it to make rollbacks visible (served < NumVersions = stale).
  std::optional<Bytes> Get(const std::string& key, size_t* served_version = nullptr) const;

  // --- Adversary controls ---
  void SetRollbackMode(RollbackMode mode) { mode_ = mode; }
  void PinServedVersion(const std::string& key, size_t version);

  size_t NumVersions(const std::string& key) const;
  uint64_t puts() const { return puts_; }

 private:
  std::map<std::string, std::vector<Bytes>> versions_;
  std::map<std::string, size_t> pinned_;
  RollbackMode mode_ = RollbackMode::kLatest;
  uint64_t puts_ = 0;
};

}  // namespace achilles

#endif  // SRC_TEE_SEALED_STORAGE_H_
