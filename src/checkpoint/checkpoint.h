// Checkpoint primitives: quorum-certified digests over the committed state-machine prefix.
//
// A checkpoint at boundary height H binds (H, block hash, exec_result) into a digest that
// every replica reaching H can recompute; a quorum of signatures over that digest is a
// *stable checkpoint certificate* — proof that the certified prefix up to H is durable at a
// quorum and that any snapshot claiming to be H can be validated offline. Per surface the
// persistence classes differ deliberately (the PR 5 threat-model split):
//   - the snapshot payload (cert + boundary block) is host-durable: big, crash-consistent,
//     but the host disk has no rollback adversary to detect;
//   - the certificate alone is TEE-sealed (host-durable outside a TEE): tiny, and on reboot
//     its height is the local rollback-detection floor — a stale or erased snapshot under a
//     fresher sealed certificate is rejected exactly like any other rolled-back sealed blob.
// The CheckpointManager (src/checkpoint/manager.h) drives voting, assembly, truncation and
// snapshot-based state transfer; this header is the dependency-light part ReplicaBase needs.
#ifndef SRC_CHECKPOINT_CHECKPOINT_H_
#define SRC_CHECKPOINT_CHECKPOINT_H_

#include <optional>
#include <vector>

#include "src/consensus/block.h"
#include "src/crypto/signer.h"

namespace achilles {
namespace checkpoint {

// Signing domain for checkpoint votes (see src/consensus/certificates.h conventions).
inline constexpr const char* kCkptDomain = "ckpt/STABLE";
// Host record-store key of the snapshot payload (cert + boundary block).
inline constexpr const char* kSnapshotKey = "ckpt/snapshot";
// Sealed-store (or host record-store, outside a TEE) key of the certificate alone.
inline constexpr const char* kCertKey = "ckpt/cert";

// Snapshot-transfer (not backfill) when at least this many intervals behind the announced
// stable frontier. Block stores and the KV agreed log keep the same slack behind a stable
// checkpoint, so a peer closer than that still backfills block by block.
inline constexpr Height kCatchupIntervals = 2;

struct CheckpointOptions {
  bool enabled = false;
  Height interval = 64;  // C: a checkpoint boundary every C committed heights.

  Height CatchupSlack() const { return interval * kCatchupIntervals; }
};

// The digest every correct replica derives at boundary H: H(height, block hash,
// exec_result). exec_result already folds the whole transaction history (and therefore the
// KV state machine: mirrors are a pure function of the committed log), so no separate app
// hash is needed.
Hash256 CheckpointDigest(const Block& block);

// Quorum-certified stable checkpoint.
struct CheckpointCert {
  Height height = 0;
  Hash256 block_hash = ZeroHash();
  Hash256 digest = ZeroHash();
  std::vector<Signature> sigs;  // Distinct signers, >= the cluster's checkpoint quorum.

  bool empty() const { return sigs.empty(); }
  size_t WireSize() const;

  // Canonical message each signer signs (domain-separated, binds height + digest).
  Bytes SigningDigest() const;
  // All signatures valid, signers distinct, at least `quorum` of them, and the digest is
  // consistent with (height, block_hash) as far as the cert alone can tell.
  bool Verify(const CryptoSuite& suite, size_t quorum) const;

  Bytes Encode() const;
  static std::optional<CheckpointCert> Decode(ByteView wire);
};

// Host snapshot payload codec: {certificate, boundary block}.
Bytes EncodeSnapshotRecord(const CheckpointCert& cert, const Block& block);
bool DecodeSnapshotRecord(ByteView record, CheckpointCert* cert, BlockPtr* block);

}  // namespace checkpoint
}  // namespace achilles

#endif  // SRC_CHECKPOINT_CHECKPOINT_H_
