// Replicated KV application layer: executes the agreed log behind every protocol
// (order-then-execute off CommitTracker) and serves leader read-leases as a read fast path.
//
// One KvService instance serves a whole cluster. It lives outside the simulated machines —
// like CommitTracker — but every effect it produces (messages, timers, journal events, CPU
// charges) happens inside some replica host's handler context, so virtual-time behavior is
// exactly as if each replica ran its own app instance. Per-replica state is keyed by
// replica id.
//
// Read-lease protocol (quorum-promise leases with client-response withholding):
//  - A replica that has applied kStableStreak consecutive self-proposed blocks asks every
//    peer for a lease promise (KvLeaseRenewMsg). A grantor with no conflicting live promise
//    answers with an absolute expiry = its local now + kLeaseDuration (KvLeaseAckMsg) and
//    promises: until that expiry it will NOT release client completions (KvAppliedMsg) for
//    blocks proposed by anyone other than the holder. Withholding — not refusing to vote —
//    keeps the consensus layer untouched; writes still commit, clients just learn of them
//    only after every outstanding promise has lapsed.
//  - The holder serves lease reads from its own mirror only while it holds live promises
//    from ALL peers (each judged against the grantor's own clock, and acks expire exactly
//    at the grantor's promise_until, so clock comparison never crosses hosts unsafely) and
//    its self-led streak is intact. Applying a foreign-led block revokes: streak and acks
//    reset (journaled as kLeaseRevoke).
//  - Crash wipes a grantor's promise (it is volatile). The reboot path compensates with
//    boot silence: a rebooted replica delays all KvAppliedMsg releases until
//    bind_time + kLeaseDuration, an upper bound on any promise it could have made before
//    crashing (promise_until <= crash_time + L <= bind_time + L).
//  - The client-side completion rule (first applied-reply from the block's proposer, or
//    f+1 distinct replicas — src/client/kv_client.h) means a write is client-visible only
//    once the proposer or a quorum has passed the withholding gate.
//
// The deliberately-broken variant (--broken stale-read-lease): grantors skip the
// withholding clause, so after a leader change the new leader's writes complete at clients
// immediately while the old holder — if it has not yet applied a foreign-led block, e.g.
// because it is partitioned from its peers but not from clients — keeps serving its frozen
// mirror until its acks expire. That is precisely a client-observed stale read, and the
// linearizability oracle must flag it.
#ifndef SRC_APP_KV_SERVICE_H_
#define SRC_APP_KV_SERVICE_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "src/app/kv.h"
#include "src/consensus/replica_base.h"
#include "src/sim/host.h"

namespace achilles {
namespace app {

// --- Application wire messages (client <-> replica, replica <-> replica) ---

// Client -> replica: attempt a lease-served read.
struct KvReadRequestMsg : SimMessage {
  const char* TraceName() const override { return "kv_read_req"; }
  uint64_t op_id = 0;
  uint32_t key = 0;
  size_t WireSize() const override { return 20; }
};

// Replica -> client: lease read outcome. served == false means "no live lease here, try
// elsewhere" (the client rotates its read target and eventually falls back to an ordered
// GET through the log).
struct KvReadReplyMsg : SimMessage {
  const char* TraceName() const override { return "kv_read_reply"; }
  uint64_t op_id = 0;
  bool served = false;
  uint32_t key = 0;
  KvCell cell;
  NodeId server = kNoNode;
  size_t WireSize() const override { return 32; }
};

// Replica -> client: this replica applied `block` (proposed by `proposer`). Release of this
// message is where lease withholding and boot silence bite.
struct KvAppliedMsg : SimMessage {
  const char* TraceName() const override { return "kv_applied"; }
  BlockPtr block;
  NodeId replica = kNoNode;
  NodeId proposer = kNoNode;
  size_t WireSize() const override { return 16 + (block ? block->WireSize() : 0); }
};

// Holder -> peer: ask for / refresh a lease promise.
struct KvLeaseRenewMsg : SimMessage {
  const char* TraceName() const override { return "kv_lease_renew"; }
  NodeId holder = kNoNode;
  size_t WireSize() const override { return 12; }
};

// Peer -> holder: promise granted until `expiry` (grantor-clock absolute time).
struct KvLeaseAckMsg : SimMessage {
  const char* TraceName() const override { return "kv_lease_ack"; }
  NodeId grantor = kNoNode;
  SimTime expiry = 0;
  size_t WireSize() const override { return 20; }
};

class KvService : public AppMessageSink {
 public:
  KvService(std::vector<Host*> replica_hosts, Network* net, CommitTracker* tracker,
            uint32_t kv_client_host, BrokenVariant broken, obs::MetricsRegistry* metrics);

  // Wire this into the tracker with AddCommitListener. Runs inside the committing
  // replica's handler context.
  void OnCommit(NodeId replica, const BlockPtr& block, SimTime now);

  // Wire this into the tracker with AddProposeListener. Records the proposer's own
  // in-flight PUT keys: a leaseholder must not lease-serve a key it has proposed a write
  // for until its mirror has passed the proposal height. The grantor-side withholding
  // exempts holder-proposed blocks, so a partitioned holder whose proposal commits under
  // a new leader would otherwise serve the pre-write value after the write completed.
  void OnProposal(NodeId proposer, const BlockPtr& block);

  // AppMessageSink: consumes Kv* traffic arriving at replica hosts.
  bool OnAppMessage(NodeId replica, uint32_t from_host, const MessageRef& msg) override;

  // Lifecycle notifications from the Cluster. Lease state is volatile (lost on crash);
  // the mirror persists (it is a pure function of the durable log).
  void OnReplicaCrash(NodeId replica);
  void OnReplicaReboot(NodeId replica, SimTime bind_time);

  // Snapshot state transfer (src/checkpoint): replaces the replica's mirror with the
  // transferred state when it is ahead, revoking any lease, then rolls forward from the
  // shared log. No-op when the mirror already covers the snapshot.
  void InstallMirror(NodeId replica, const KvState& state, SimTime now);
  // Log compaction: drops agreed-log entries below `keep_from` (clamped so the slowest
  // mirror can still replay). Called by the Cluster when a checkpoint becomes stable.
  void PruneBelow(Height keep_from);

  const KvState& mirror(NodeId replica) const { return per_replica_[replica].mirror; }
  uint64_t lease_reads_served() const { return lease_reads_served_; }
  uint64_t stale_read_candidates() const { return stale_read_candidates_; }

 private:
  struct PerReplica {
    KvState mirror;
    // Holder (grantee) side.
    uint32_t streak = 0;                              // Consecutive self-led blocks applied.
    std::unordered_map<NodeId, SimTime> ack_expiry;   // Live promises held, per grantor.
    // Grantor side.
    NodeId promise_to = kNoNode;
    SimTime promise_until = 0;
    // Reboot silence (applies to KvAppliedMsg releases only).
    SimTime boot_silence_until = 0;
    // Self-proposed PUT keys not yet covered by the mirror, by proposal height. A key with
    // a live entry is barred from the lease fast path (the ordered path stays available).
    std::map<Height, std::vector<uint32_t>> pending_put_heights;
    std::unordered_map<uint32_t, uint32_t> pending_put_keys;  // key -> live proposal count
  };

  uint32_t n() const { return static_cast<uint32_t>(hosts_.size()); }
  bool CanServe(const PerReplica& pr, SimTime now) const;
  // Drops pending self-proposed PUT entries at or below the mirror height.
  static void PrunePendingPuts(PerReplica& pr);
  // Drops replica's holder-side lease state; journals kLeaseRevoke if it had any.
  void RevokeLease(NodeId replica, PerReplica& pr, bool journal);
  // Applies every chain-ready block from by_height_ to replica's mirror, doing lease
  // accounting and releasing KvAppliedMsg per block.
  void CatchUpMirror(NodeId replica, SimTime now);
  void OnBlockApplied(NodeId replica, const BlockPtr& block, SimTime now);
  void HandleReadRequest(NodeId replica, uint32_t from_host, const KvReadRequestMsg& req);
  void HandleLeaseRenew(NodeId replica, const KvLeaseRenewMsg& msg);
  void HandleLeaseAck(NodeId replica, const KvLeaseAckMsg& msg);

  std::vector<Host*> hosts_;  // hosts_[i] = replica i's host.
  Network* net_;
  CommitTracker* tracker_;
  uint32_t kv_client_host_;
  BrokenVariant broken_;

  // Agreed log by height, first commit wins (the safety oracle separately guarantees no
  // correct replica ever disagrees). Lets checkpoint-adopting mirrors catch up in order.
  std::map<Height, BlockPtr> by_height_;
  KvState canonical_;
  mutable std::vector<PerReplica> per_replica_;

  uint64_t lease_reads_served_ = 0;
  uint64_t stale_read_candidates_ = 0;
  obs::Counter* reads_total_ = nullptr;
  obs::Counter* reads_lease_ = nullptr;
  obs::Counter* reads_declined_ = nullptr;
  obs::Counter* stale_candidates_ = nullptr;
  obs::Counter* lease_grants_ = nullptr;
  obs::Counter* lease_revokes_ = nullptr;
};

}  // namespace app
}  // namespace achilles

#endif  // SRC_APP_KV_SERVICE_H_
