// Deterministic flight recorder: a bounded per-node ring of structured
// protocol/TEE/lifecycle/network events, one sink of the obs::Recorder stream
// (src/obs/recorder.h). Recording is plain-memory bookkeeping with zero virtual-time cost,
// so enabling the journal changes no simulated outcome — the property the chaos harness's
// bit-identical replay check relies on.
//
// Causality: every send's seq rides the message's obs::Path (inside its obs::Cause); the
// matching deliver records it as its parent, and everything the receiving handler records
// points at the deliver. Records made outside a handler are chain roots (parent 0).
// Walking parent links reconstructs the cross-host causal chain that led to any record —
// the spine of the forensics analyzer (src/obs/forensics.h).
//
// Bounded memory: each node keeps two rings. High-rate "flow" kinds
// (send/deliver/ecall/wal-append/fsync/lease-serve) evict independently from the rare
// "control" kinds (view changes, commits, recovery phases, seal/unseal, counter ops,
// lifecycle), so a long run drops old traffic but keeps the state-transition history
// forensics needs. The span trace renders the control kinds as instants.
#ifndef SRC_OBS_JOURNAL_H_
#define SRC_OBS_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/sim_time.h"

namespace achilles {
namespace obs {

enum class JournalKind : uint8_t {
  // Host lifecycle.
  kBoot = 0,        // Process bound (genesis or post-reboot); bumps the node's incarnation.
  kCrash,           // Host went down; volatile state lost.
  kStall,           // Injected CPU stall (a = duration ns).
  // Network (flow ring).
  kSend,            // a = destination host, b = wire size; detail = message name.
  kDeliver,         // a = source host, b = wire size; parent = the matching send.
  // TEE boundary.
  kEcall,           // One enclave transition round trip (flow ring).
  kSeal,            // a = version count after the put; detail = slot.
  kUnseal,          // a = served version (1-based; 0 = absent/forged), b = latest version.
  kCounterWrite,    // a = new counter value.
  kCounterRead,     // a = value read.
  // Host stable storage (src/storage; flow ring except kWalTruncate).
  kWalAppend,       // a = record bytes, b = records in the log after; detail = log name.
  kFsync,           // Sync barrier: a = records made durable, b = bytes made durable.
  kWalTruncate,     // Crash fate applied: a = records dropped, b = bytes dropped.
  kRollbackReject,  // Checker refused stale sealed state: a = sealed version, b = expected.
  kHalt,            // Replica crash-stopped itself (rollback detected).
  // Protocol state transitions.
  kViewEnter,       // a = new view / epoch / term.
  kLeaderElected,   // a = term/view in which this node became leader.
  kLockUpdate,      // a = locked view, b = first 8 bytes of the locked hash (big-endian).
  kPropose,         // a = block height, b = view.
  kCommit,          // a = block height, b = first 8 bytes of the block hash (big-endian).
  kCheckpoint,      // Commit via state transfer; fields as kCommit.
  // Achilles recovery (Algorithm 3).
  kRecoveryEnter,   // Recovery started for this incarnation.
  kRecoveryRound,   // New request round broadcast; a = the round's nonce.
  kRecoveryExit,    // Recovery finished; a = consumed reply nonce, b = recovered view.
  // Application-level read leases (src/app/kv_service.h).
  kLeaseGrant,      // Peer granted a read-lease promise; a = grantee, b = expiry (ns).
  kLeaseRevoke,     // Leaseholder dropped its lease (foreign-led block applied or crash).
  kLeaseServe,      // Leaseholder served a lease read; a = key, b = served version (flow).
  // Checkpointing / snapshot state transfer (src/checkpoint).
  kCheckpointStable,// Stable checkpoint certified locally; a = height, b = signers.
  kLogTruncate,     // Compaction barrier: a = records dropped, b = bytes dropped.
  kSnapshotFetch,   // State transfer: a = checkpoint height, b = peer; detail = role.
  // Oracle verdict marker stamped by the chaos runner at violation time.
  kOracleViolation, // detail = the violation text.
};

inline constexpr size_t kNumJournalKinds =
    static_cast<size_t>(JournalKind::kOracleViolation) + 1;

// Stable display name ("view-enter", "rollback-reject", ...). Static storage, so the
// strings double as the span trace's instant names.
const char* JournalKindName(JournalKind kind);

// True for the high-rate kinds kept in the flow ring
// (send/deliver/ecall/wal-append/fsync/lease-serve); the span trace skips them.
bool JournalKindIsFlow(JournalKind kind);

struct JournalRecord {
  uint64_t seq = 0;          // Global recording order (1-based; 0 = invalid).
  SimTime ts = 0;            // Virtual nanoseconds (host LocalNow at the hook).
  uint32_t node = 0;         // Host id.
  uint32_t incarnation = 0;  // Boot count of the node when recorded (1 = genesis).
  JournalKind kind = JournalKind::kBoot;
  uint64_t parent = 0;       // seq of the causal parent record; 0 = chain root.
  uint64_t a = 0;            // Kind-specific payload (see JournalKind comments).
  uint64_t b = 0;
  std::string detail;        // Kind-specific text (slot name, message name, ...).

  // Deterministic one-line rendering, e.g.
  //   #000042 t=12500000 n1/2 recovery-exit p=#000040 a=7 b=3
  std::string ToLine() const;
};

class Journal {
 public:
  static constexpr size_t kDefaultControlCapacity = 4096;  // Per node.
  static constexpr size_t kDefaultFlowCapacity = 8192;     // Per node.

  explicit Journal(size_t control_capacity = kDefaultControlCapacity,
                   size_t flow_capacity = kDefaultFlowCapacity);

  // Records one event and returns its seq. `ts` is the recording host's
  // LocalNow; nodes are created on first use.
  uint64_t Record(uint32_t node, JournalKind kind, SimTime ts, uint64_t parent = 0,
                  uint64_t a = 0, uint64_t b = 0, std::string detail = {});

  // Boot count of `node` so far (0 before its first kBoot).
  uint32_t incarnation(uint32_t node) const;

  // Surviving events of one node / of all nodes, in seq order.
  std::vector<JournalRecord> NodeEvents(uint32_t node) const;
  std::vector<JournalRecord> Events() const;

  uint64_t recorded() const { return recorded_; }  // Total events accepted.
  uint64_t evicted() const { return evicted_; }    // Events overwritten by ring bounds.
  size_t live() const;                             // Events currently retained.

  // Deterministic text dump (one ToLine per surviving event, seq order, with a header).
  std::string ToText() const;
  // SHA-256 hex of ToText(): the replay-determinism fingerprint.
  std::string DigestHex() const;

 private:
  struct NodeRings {
    std::deque<JournalRecord> control;
    std::deque<JournalRecord> flow;
    uint32_t incarnation = 0;
  };

  NodeRings& RingsFor(uint32_t node);

  size_t control_capacity_;
  size_t flow_capacity_;
  uint64_t next_seq_ = 1;
  uint64_t recorded_ = 0;
  uint64_t evicted_ = 0;
  std::vector<NodeRings> nodes_;
};

}  // namespace obs
}  // namespace achilles

#endif  // SRC_OBS_JOURNAL_H_
