// Cluster-wide checkpoint coordinator: periodic stable checkpoints, log compaction
// triggers, and snapshot-based state transfer for lagging or rebooted replicas.
//
// One CheckpointManager serves a whole cluster, like KvService and CommitTracker: it lives
// outside the simulated machines but every effect it produces (signatures, verifies,
// broadcasts, journal events) happens inside some replica host's handler context, so
// virtual-time behavior is exactly as if each replica ran its own checkpoint module.
//
// Protocol (protocol-agnostic — driven entirely off CommitTracker commits):
//  1. Vote. When a replica commits boundary height H (H % interval == 0) it signs
//     CheckpointDigest(block) under the "ckpt/STABLE" domain and broadcasts a CkptVoteMsg.
//     Byzantine replicas never reach this path (the tracker drops their commits), so in a
//     2f+1 cluster the f+1 checkpoint quorum is always reachable from honest voters alone.
//  2. Assemble. A replica holding quorum matching votes AND its own commit at H assembles a
//     CheckpointCert, persists it via ReplicaBase::PersistStableCheckpoint (snapshot
//     payload host-durable, certificate TEE-sealed; WAL + block-store truncation follows),
//     and broadcasts a CkptAnnounceMsg.
//  3. State transfer. A replica that receives an announce for a checkpoint at least
//     kCatchupIntervals intervals ahead of its own committed prefix requests the snapshot
//     instead of backfilling blocks one by one. The responder ships {cert, boundary block,
//     KV state}; the requester verifies the quorum certificate, the digest, and its own
//     rollback floor before installing (AdoptStateTransfer + mirror install + persist).
//
// The deliberately-broken variant (--broken stale-snapshot-accept): responders serve their
// oldest retained snapshot and requesters skip every check, force-installing state that can
// lie BELOW what they already committed — a rollback by snapshot. The checkpoint oracle
// (src/chaos/oracles.h) must flag the resulting floor regression.
#ifndef SRC_CHECKPOINT_MANAGER_H_
#define SRC_CHECKPOINT_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/app/kv_service.h"
#include "src/checkpoint/checkpoint.h"
#include "src/consensus/replica_base.h"
#include "src/obs/metrics.h"
#include "src/sim/network.h"
#include "src/tee/platform.h"

namespace achilles {
namespace checkpoint {

// What the host snapshot surface looks like when a node comes back up — the checkpoint
// analogue of storage::WalFate, carried per reboot event by the chaos fault scripts.
// Unlike WAL crash fates these model an *adversarial* host disk: a stale snapshot is a
// rollback, detected only where the certificate lives on a TEE sealing surface.
enum class SnapshotFate : uint8_t {
  kIntact = 0,   // Snapshot payload survives as written.
  kStale = 1,    // Replaced by an older, internally-valid snapshot (rollback).
  kErased = 2,   // Snapshot record gone entirely.
  kCorrupt = 3,  // Payload bytes flipped (fails digest validation).
};

const char* SnapshotFateName(SnapshotFate fate);

// --- Wire messages (replica <-> replica, riding the app-message sink) ---

struct CkptVoteMsg : SimMessage {
  const char* TraceName() const override { return "ckpt_vote"; }
  Height height = 0;
  Hash256 block_hash = ZeroHash();
  Hash256 digest = ZeroHash();
  Signature sig;
  size_t WireSize() const override { return 8 + 32 + 32 + sig.WireSize(); }
};

struct CkptAnnounceMsg : SimMessage {
  const char* TraceName() const override { return "ckpt_announce"; }
  CheckpointCert cert;
  size_t WireSize() const override { return cert.WireSize(); }
};

struct SnapshotFetchRequestMsg : SimMessage {
  const char* TraceName() const override { return "ckpt_fetch_req"; }
  NodeId requester = kNoNode;
  Height have = 0;  // Requester's committed prefix; responders serve only above it.
  size_t WireSize() const override { return 12; }
};

struct SnapshotFetchResponseMsg : SimMessage {
  const char* TraceName() const override { return "ckpt_fetch_resp"; }
  CheckpointCert cert;
  BlockPtr block;                                 // The certified boundary block.
  std::shared_ptr<const app::KvState> kv_state;   // Null outside --app kv runs.
  size_t app_bytes = 0;                           // Serialized KV payload estimate.
  size_t WireSize() const override {
    return cert.WireSize() + (block ? block->WireSize() : 0) + app_bytes;
  }
};

class CheckpointManager : public AppMessageSink {
 public:
  CheckpointManager(std::vector<NodePlatform*> platforms, Network* net,
                    const CryptoSuite* suite, const CostModel& costs,
                    const CheckpointOptions& opts, BrokenVariant broken, size_t quorum,
                    obs::MetricsRegistry* metrics);

  // Current replica incarnations (indexed by replica id, nullptr while crashed). The
  // vector identity must be stable; entries may change across reboots.
  void AttachReplicas(const std::vector<ReplicaBase*>* replicas) { replicas_ = replicas; }
  // KV app, when the cluster runs one: snapshots then carry the materialized state and
  // fetch-accept installs the mirror.
  void AttachKv(app::KvService* kv) { kv_ = kv; }
  // Sink chaining: non-checkpoint app traffic is offered to `next` (the KvService).
  void SetNextSink(AppMessageSink* next) { next_ = next; }

  // Wire this into the tracker with AddCommitListener AFTER the KvService's listener (the
  // KV mirror must be current when a boundary snapshot is captured). Runs inside the
  // committing replica's handler context.
  void OnCommit(NodeId replica, const BlockPtr& block, SimTime now);

  // AppMessageSink: consumes Ckpt*/Snapshot* traffic, forwards the rest to the next sink.
  bool OnAppMessage(NodeId replica, uint32_t from_host, const MessageRef& msg) override;

  // Lifecycle notifications from the Cluster. Vote collections are volatile (lost with the
  // process); the manager's per-replica stable bookkeeping mirrors what the replica itself
  // re-derives from its sealed certificate on reboot.
  void OnReplicaCrash(NodeId replica);
  void OnReplicaReboot(NodeId replica);

  // Chaos back-door: reshape replica `id`'s on-disk snapshot surface while the node is
  // down (called between ApplyCrashFate and reboot). kStale installs the oldest retained
  // snapshot — a real, internally-valid old state. Where the certificate lives on the host
  // disk too (non-TEE platforms), the fate hits both records consistently: that is exactly
  // the undetectable-rollback baseline the README threat-model table documents.
  void ApplySnapshotFate(NodeId id, SnapshotFate fate);

  // Oracle taps: fired inside the acting replica's handler context.
  using CheckpointListener = std::function<void(NodeId, const CheckpointCert&, SimTime)>;
  void SetStableListener(CheckpointListener cb) { stable_listener_ = std::move(cb); }
  void SetAdoptListener(CheckpointListener cb) { adopt_listener_ = std::move(cb); }

  // --- Read-side accessors (benches, oracles, gauges) ---
  Height last_stable(NodeId replica) const { return per_replica_[replica].last_stable; }
  Height latest_stable() const;
  uint64_t checkpoints_assembled() const { return checkpoints_assembled_; }
  uint64_t votes_cast() const { return votes_cast_; }
  uint64_t snapshot_adopts() const { return snapshot_adopts_; }

 private:
  // One boundary awaiting stability at one replica.
  struct PendingBoundary {
    Hash256 digest = ZeroHash();      // Local digest; meaningful once `block` is set.
    BlockPtr block;                   // Non-null once this replica committed the boundary.
    // Received votes: claimed digest + signature per signer (claims are checked against
    // the local digest at assembly time, so a lying vote can never enter a cert).
    std::map<NodeId, std::pair<Hash256, Signature>> votes;
  };

  struct PerReplica {
    std::map<Height, PendingBoundary> pending;
    Height last_voted = 0;
    Height last_stable = 0;       // Highest cert assembled or adopted by this replica.
    CheckpointCert stable_cert;
    Height last_fetch_req = 0;    // Fetch rate limit: one request per announced height.
  };

  // Cluster-shared snapshot retention (state is deterministic, so one copy serves all
  // responders). `state` materializes when the first-commit frontier crosses the boundary;
  // `cert` when any replica assembles one.
  struct RetainedSnapshot {
    BlockPtr block;
    CheckpointCert cert;
    std::shared_ptr<const app::KvState> state;
  };

  uint32_t n() const { return static_cast<uint32_t>(platforms_.size()); }
  ReplicaBase* ReplicaAt(NodeId id) const {
    return replicas_ != nullptr && id < replicas_->size() ? (*replicas_)[id] : nullptr;
  }
  Host* HostAt(NodeId id) const { return &platforms_[id]->host(); }
  bool IsBoundary(Height h) const {
    return opts_.interval > 0 && h > 0 && h % opts_.interval == 0;
  }
  void Broadcast(NodeId from, const MessageRef& msg);
  // Folds first-committed blocks into the retention frontier; captures boundary blocks and
  // (in KV runs) boundary KV states into retained_.
  void StageForRetention(const BlockPtr& block);
  void PruneRetained();
  void TryAssemble(NodeId replica, Height height, SimTime now);
  void HandleVote(NodeId replica, const CkptVoteMsg& vote, SimTime now);
  void HandleAnnounce(NodeId replica, uint32_t from_host, const CkptAnnounceMsg& ann);
  void HandleFetchRequest(NodeId replica, uint32_t from_host,
                          const SnapshotFetchRequestMsg& req);
  void HandleFetchResponse(NodeId replica, uint32_t from_host,
                           const SnapshotFetchResponseMsg& resp);
  void SetStableGauge(NodeId replica, Height height);

  std::vector<NodePlatform*> platforms_;
  Network* net_;
  const CryptoSuite* suite_;
  CostModel costs_;
  CheckpointOptions opts_;
  BrokenVariant broken_;
  size_t quorum_;
  obs::MetricsRegistry* metrics_;
  const std::vector<ReplicaBase*>* replicas_ = nullptr;
  app::KvService* kv_ = nullptr;
  AppMessageSink* next_ = nullptr;

  std::vector<PerReplica> per_replica_;
  std::map<Height, RetainedSnapshot> retained_;
  // First-commit fold of the agreed log, used to capture boundary KV states exactly at
  // their height (mirrors may already be ahead when a vote-completing message arrives).
  app::KvState frontier_;
  std::map<Height, BlockPtr> stage_;  // First-committed blocks not yet folded.

  CheckpointListener stable_listener_;
  CheckpointListener adopt_listener_;

  uint64_t checkpoints_assembled_ = 0;
  uint64_t votes_cast_ = 0;
  uint64_t snapshot_adopts_ = 0;
  obs::Counter* stable_total_ = nullptr;
  obs::Counter* votes_total_ = nullptr;
  obs::Counter* serves_total_ = nullptr;
  obs::Counter* adopts_total_ = nullptr;
};

}  // namespace checkpoint
}  // namespace achilles

#endif  // SRC_CHECKPOINT_MANAGER_H_
