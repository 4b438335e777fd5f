// Fault scripts: the unit of adversarial scheduling for the chaos harness (src/chaos). A
// script is a per-run sampled list of timed fault events (crashes, reboots with per-surface
// storage fates — adversarial sealed blobs and/or host-disk crash-consistency faults —
// partitions, link blocks, schedule jitter, CPU stalls, a targeted stale-recovery-reply
// replay) plus per-replica Byzantine mode assignments, a heal time by
// which every fault has been lifted, and a run horizon. Scripts serialize to a small text
// format so a failing run can be stored as a CI artifact, replayed bit-identically, and
// delta-minimized.
#ifndef SRC_HARNESS_FAULT_SCRIPT_H_
#define SRC_HARNESS_FAULT_SCRIPT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/harness/cluster.h"
#include "src/storage/host_storage.h"
#include "src/tee/sealed_storage.h"

namespace achilles {

// Sealed-blob fate at reboot (the TEE sealed-storage surface — the only one the threat
// model allows to roll back).
enum class SealedFate : uint8_t {
  kFresh = 0,   // Latest sealed blob served honestly.
  kStale = 1,   // An old blob replayed (rollback attack).
  kErased = 2,  // Blob store wiped.
};
const char* SealedFateName(SealedFate fate);

// Per-surface storage outcome carried by a reboot event. The surfaces have disjoint
// fault vocabularies by design: the host WAL/record store suffers only crash-consistency
// faults (torn tail, lost unsynced suffix — never rollback), sealed blobs suffer
// only adversarial replay (never torn writes; the sealing device write is atomic), the
// checkpoint snapshot record is an adversarial host surface of its own — stale /
// erased / corrupt, rollback detectable only where the certificate is TEE-sealed — and
// the defense-backend peer quorum can lose/regress the rebooting owner's replicated
// copies at one holder (stale / erased; src/storage/defense.h — bounded at one holder so
// a fresh peer always survives, matching the backends' f < n/2 storage-fault assumption).
// Encoded into FaultEvent::arg as (wal | sealed << 8 | snapshot << 16 | defense << 24);
// the all-honest fate encodes to 0.
struct StorageFate {
  storage::WalFate wal = storage::WalFate::kIntact;
  SealedFate sealed = SealedFate::kFresh;
  checkpoint::SnapshotFate snapshot = checkpoint::SnapshotFate::kIntact;
  persist::DefenseFate defense = persist::DefenseFate::kIntact;
};
uint64_t EncodeStorageFate(StorageFate fate);
StorageFate DecodeStorageFate(uint64_t arg);
// What the adversarial OS sets the sealed-storage device to for this fate.
RollbackMode ToRollbackMode(SealedFate fate);

enum class FaultKind : uint8_t {
  kCrash,         // node: crash the replica host.
  kReboot,        // node, arg = EncodeStorageFate(): per-surface storage outcome.
  kPartition,     // node = rotation offset, peer = size of the first group.
  kHealPartition,
  kJitterOn,      // arg = extra one-way delay ceiling (ns); also enables reorder + dup.
  kJitterOff,
  kBlockLink,     // node -> peer directed link blocked.
  kUnblockLink,
  kStall,         // node, arg = CPU stall duration (ns).
  kStaleRecoveryReplay,  // node: chaos runner re-injects recorded recovery replies at the
                         // node's next boot (targeted nonce-freshness attack; no-op here).
};

const char* FaultKindName(FaultKind kind);
bool FaultKindFromName(std::string_view name, FaultKind* out);

struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kCrash;
  uint32_t node = 0;  // Primary operand (crash/reboot/stall target, link source, offset).
  uint32_t peer = 0;  // Secondary operand (link target, partition group size).
  uint64_t arg = 0;   // Kind-specific payload (rollback mode, nanoseconds).
};

struct FaultScript {
  std::vector<ByzantineMode> byzantine;  // Per-replica assignment (kNone = honest).
  std::vector<FaultEvent> events;        // Sorted by `at`.
  SimTime heal_at = 0;   // All faults lifted; the liveness clock starts here.
  SimTime horizon = 0;   // Run end.

  uint32_t ByzantineCount() const;
  // Replicas that crash at least once (distinct). Samplers keep
  // ByzantineCount() + CrashedCount() <= f so the liveness oracle stays sound.
  uint32_t CrashedCount() const;
};

// Byzantine modes the sampler may assign under this protocol's fault model (a crash-only
// protocol gets the omission and timing modes only).
std::vector<ByzantineMode> AllowedByzantineModes(Protocol protocol);

struct ScriptParams {
  Protocol protocol = Protocol::kAchilles;
  uint32_t f = 1;
  // Rollback-defense backend the run is configured with (--defense). Under a quorum
  // backend the sampler adds peer-quorum fates at reboot and extends sealed-fate attacks
  // to every backend-using protocol (the backend, not the protocol, must cope). All extra
  // RNG draws are gated behind defense != kLocal so kLocal streams — and therefore their
  // replay digests — do not depend on the quorum-fate sampler.
  persist::DefenseKind defense = persist::DefenseKind::kLocal;
  // Fault window end / post-heal liveness budget. The window must absorb the pacemaker's
  // accumulated exponential backoff after heal, so keep it generous.
  SimTime heal_at = Ms(1400);
  SimDuration liveness_window = Sec(12);
  // Probability the script contains crash+reboot cycles at all (--reboot-weight). Raising
  // it weights a chaos shard toward reboot-bearing schedules.
  double reboot_prob = 0.65;
  // Probability weight for checkpoint-aware fates (--ckpt-weight): snapshot-surface
  // attacks at reboot and long-lag reboots that force snapshot state transfer instead of
  // block backfill. CI's checkpoint shard raises it.
  double ckpt_prob = 0.35;
};

// Samples a random fault script from `rng`. The sample respects the soundness constraints
// the oracles assume: at most f faulty-or-crashing replicas combined, every reboot
// completes before heal_at, stale sealed storage only against rollback-protected
// protocols, and all chaos jitter off from heal_at on.
FaultScript SampleFaultScript(const ScriptParams& params, Rng& rng);

// A self-contained failing-run reproducer: everything needed to re-run one seed.
struct ScriptArtifact {
  std::string protocol;  // ProtocolName() string.
  uint32_t f = 1;
  uint64_t seed = 0;
  // DefenseKindName() string (`defense` header line; "local" when absent).
  std::string defense = "local";
  FaultScript script;

  std::string ToText() const;
  static bool FromText(const std::string& text, ScriptArtifact* out);
};

}  // namespace achilles

#endif  // SRC_HARNESS_FAULT_SCRIPT_H_
