// Signing suite shared by a cluster. Two interchangeable backends:
//  - kSchnorr:  the real secp256k1 Schnorr implementation (slow, used in crypto tests and the
//               calibration bench);
//  - kFastHmac: HMAC-SHA-256 tags under per-party keys held by the suite. Inside the closed
//               simulation this models an unforgeable signature (no simulated party can forge
//               without the suite), while keeping large runs fast. Wire size is modeled as an
//               ECDSA signature (64 B) to match the paper's prototype: the 32-byte tag
//               followed by 32 zero bytes, and any other padding is rejected.
// Either way the *cost* of signing/verifying charged to simulated CPUs comes from the
// CostModel, not from host wall-clock, so the backend choice never changes measured results.
//
// Verify memo. All replicas of a cluster share one suite in one process, so the same
// certificate signature reaches the suite once per receiver. The suite remembers tuples
// that passed full verification in a fixed-size direct-mapped table (kMemoSlots entries,
// allocated on the first verify): a hit needs byte-for-byte equality of signer, message
// and signature blob; a miss, a longer message or blob than a slot holds, and every
// failure take the full check, and failures are never stored. So the memo changes how
// often the host computes a MAC, never an accept/reject decision, and its memory is a
// constant. Callers still charge the CostModel for every verify. Because Verify writes the
// memo, a suite is confined to one thread: each Cluster and each RunParallelAchilles point
// builds its own.
#ifndef SRC_CRYPTO_SIGNER_H_
#define SRC_CRYPTO_SIGNER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/crypto/hmac.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"

namespace achilles {

enum class SignatureScheme {
  kSchnorr,
  kFastHmac,
};

struct Signature {
  uint32_t signer = 0;
  Bytes blob;

  // Bytes this signature occupies on the wire (id + blob).
  size_t WireSize() const { return 4 + blob.size(); }
  bool empty() const { return blob.empty(); }
};

class CryptoSuite {
 public:
  CryptoSuite(SignatureScheme scheme, uint32_t num_parties, uint64_t seed);

  SignatureScheme scheme() const { return scheme_; }
  uint32_t num_parties() const { return num_parties_; }

  Signature Sign(uint32_t signer, ByteView msg) const;
  bool Verify(const Signature& sig, ByteView msg) const;

  // Verifies a quorum of signatures over the same message: all valid, all signers distinct,
  // and at least `quorum` of them.
  bool VerifyQuorum(const std::vector<Signature>& sigs, ByteView msg, size_t quorum) const;

  // Memo geometry. A slot holds one verified (signer, message, blob) triple; messages
  // longer than kMemoMaxMsg bytes are never memoized.
  static constexpr size_t kMemoSlots = 4096;
  static constexpr size_t kMemoMaxMsg = 120;
  static constexpr size_t kMemoMaxBlob = kSchnorrSignatureSize;  // The larger scheme's blob.
  // Verify calls answered from the memo (tests use it to tell a hit from a full check).
  uint64_t memo_hits() const { return memo_hits_; }

 private:
  struct MemoEntry {
    uint32_t signer = 0;
    uint16_t msg_len = 0;
    uint16_t blob_len = 0;  // 0 marks an empty slot: only non-empty blobs are looked up.
    std::array<uint8_t, kMemoMaxMsg> msg{};
    std::array<uint8_t, kMemoMaxBlob> blob{};
  };

  bool VerifyFull(const Signature& sig, ByteView msg) const;

  SignatureScheme scheme_;
  uint32_t num_parties_;
  std::vector<SchnorrKeyPair> schnorr_keys_;  // kSchnorr only.
  std::vector<Hash256> hmac_keys_;            // kFastHmac only.
  std::vector<HmacKey> hmac_scheds_;          // kFastHmac only: precomputed key schedules.
  mutable std::vector<MemoEntry> memo_;       // Empty until the first Verify.
  mutable uint64_t memo_hits_ = 0;
};

}  // namespace achilles

#endif  // SRC_CRYPTO_SIGNER_H_
