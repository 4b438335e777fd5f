// Simulated SGX enclave runtime. One instance per process incarnation: its in-memory state
// dies with the process (crash == enclave teardown), while sealed blobs live in the
// platform's untrusted storage. Provides cost accounting for the ECALL boundary and
// authenticated sealing whose only weakness is freshness — exactly SGX's rollback surface.
#ifndef SRC_TEE_ENCLAVE_H_
#define SRC_TEE_ENCLAVE_H_

#include <memory>
#include <optional>
#include <string>

#include "src/storage/defense.h"
#include "src/storage/persist.h"
#include "src/tee/platform.h"

namespace achilles {

class EnclaveRuntime;

// persist::Store view over the enclave's sealing surface (encrypt-then-MAC under the device
// key). Survives crashes, but the OS serves whatever version it likes — rollback/erasure is
// this surface's adversary, freshness is NOT guaranteed (the defense backend adds it).
class SealedStore final : public persist::Store {
 public:
  explicit SealedStore(EnclaveRuntime* enclave) : enclave_(enclave) {}

  void Put(const std::string& key, ByteView record) override;
  std::optional<Bytes> Get(const std::string& key) override;

 private:
  EnclaveRuntime* enclave_;
};

class EnclaveRuntime {
 public:
  explicit EnclaveRuntime(NodePlatform* platform);

  NodePlatform& platform() { return *platform_; }
  bool in_tee() const { return platform_->tee().components_in_tee; }

  // --- Cost accounting (charged to the host CPU) ---
  void ChargeEcall();               // One enclave transition round trip (no-op outside TEE).
  void ChargeSign();                // One signature, scaled by the in-enclave factor.
  void ChargeVerify(size_t count);  // `count` verifications, scaled likewise.
  // `count` signatures over ONE message (a quorum certificate): batched cost when the
  // batch check is cheaper (CostModel::BatchVerifyCost), scaled by the enclave factor.
  void ChargeVerifyBatch(size_t count);
  void ChargeHash(size_t bytes);

  // --- Signing with the node's key (the private key never leaves the enclave) ---
  Signature Sign(ByteView digest);
  bool Verify(const Signature& sig, ByteView digest) const;

  // Raw sealed blobs (src/storage/persist.h): rollback-prone, no freshness check. The
  // defense backends seal through it.
  persist::Store& sealed_store() { return sealed_store_; }

  // The rollback-defense backend this enclave's trusted state persists through
  // (src/storage/defense.h; built per the platform's configured DefenseKind). The
  // Damysus/OneShot/Achilles checkers and the checkpoint certificate floor run over this
  // seam — not over sealed_store() or the platform counter directly — so competing
  // defenses are swappable per run (--defense).
  persist::Backend& defense() { return *defense_; }

  // Deterministic per-enclave nonce source (models RDRAND inside the enclave).
  uint64_t FreshNonce();

  // Stats.
  uint64_t ecalls() const { return ecalls_; }

 private:
  friend class SealedStore;

  void DoSeal(const std::string& slot, ByteView plaintext);
  std::optional<Bytes> DoUnseal(const std::string& slot);
  Bytes Keystream(uint64_t iv, size_t len) const;

  NodePlatform* platform_;
  SealedStore sealed_store_{this};
  std::unique_ptr<persist::Backend> defense_;
  uint64_t seal_iv_ = 0;
  uint64_t nonce_state_;
  uint64_t ecalls_ = 0;
};

}  // namespace achilles

#endif  // SRC_TEE_ENCLAVE_H_
