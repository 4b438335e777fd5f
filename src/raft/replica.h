// Raft baseline (the paper benchmarks BRaft in Table 3): leader-based log replication with
// majority commit, elections with randomized timeouts, batching identical to the BFT
// protocols. No signatures, no TEE — the CFT performance ceiling the paper compares
// Achilles against. Log repair reuses the content-addressed block store + fetch protocol
// in place of nextIndex bookkeeping.
//
// Stable storage per the Raft paper (Fig. 2 "persistent state"): currentTerm and votedFor
// go to the host record store before any vote or election message leaves the node, and log
// entries go to a host WAL with an fsync before the append is acknowledged. A rebooted
// replica restores all three in its constructor, so reboots cannot un-vote or un-ack.
#ifndef SRC_RAFT_REPLICA_H_
#define SRC_RAFT_REPLICA_H_

#include <set>
#include <unordered_map>

#include "src/consensus/replica_base.h"
#include "src/sim/process.h"

namespace achilles {

struct RaftAppendMsg : SimMessage {
  const char* TraceName() const override { return "raft_append"; }
  uint64_t term = 0;
  BlockPtr block;            // nullptr = heartbeat.
  Height commit_height = 0;  // Leader's commit index (piggybacked).
  Hash256 commit_hash = ZeroHash();
  size_t WireSize() const override {
    return 8 + 8 + 32 + (block != nullptr ? block->WireSize() : 0);
  }
};

struct RaftAckMsg : SimMessage {
  const char* TraceName() const override { return "raft_ack"; }
  uint64_t term = 0;
  Hash256 hash = ZeroHash();
  Height height = 0;
  size_t WireSize() const override { return 8 + 32 + 8; }
};

struct RaftVoteReqMsg : SimMessage {
  const char* TraceName() const override { return "raft_vote_req"; }
  uint64_t term = 0;
  uint64_t last_term = 0;    // Term of the candidate's last log entry (§5.4.1).
  Height last_height = 0;
  size_t WireSize() const override { return 8 + 8 + 8; }
};

struct RaftVoteRspMsg : SimMessage {
  const char* TraceName() const override { return "raft_vote_rsp"; }
  uint64_t term = 0;
  bool granted = false;
  size_t WireSize() const override { return 8 + 1; }
};

class RaftReplica : public ReplicaBase {
 public:
  RaftReplica(const ReplicaContext& ctx, bool initial_launch);

  void OnStart() override;

  enum class Role { kFollower, kCandidate, kLeader };
  Role role() const { return role_; }
  uint64_t term() const { return term_; }

  InvariantSnapshot Invariants() const override {
    InvariantSnapshot snap = ReplicaBase::Invariants();
    snap.view = term_;
    return snap;
  }

 protected:
  void HandleMessage(NodeId from, const MessageRef& msg) override;
  // Snapshot transfer fix-up: the log-head pointer advances past the adopted boundary.
  void OnCheckpointAdopted(const BlockPtr& block) override;

 private:
  void BecomeFollower(uint64_t term);
  void StartElection();
  void BecomeLeader();
  void TryPropose();
  void SendHeartbeats();
  void OnAppend(NodeId from, const std::shared_ptr<const RaftAppendMsg>& msg);
  void OnAck(NodeId from, const RaftAckMsg& msg);
  void OnVoteReq(NodeId from, const RaftVoteReqMsg& msg);
  void OnVoteRsp(NodeId from, const RaftVoteRspMsg& msg);
  void ArmElectionTimer();

  // Syncs (term, votedFor) to the host record store: must precede any message that makes
  // the vote or term adoption observable.
  void PersistMeta();
  void RestoreDurableState();

  bool initial_launch_;
  Role role_ = Role::kFollower;
  uint64_t term_ = 0;
  uint64_t voted_in_term_ = 0;  // Highest term we granted a vote in.
  NodeId leader_hint_ = kNoNode;

  BlockPtr head_;  // Tail of the local log.
  bool proposal_outstanding_ = false;
  struct Pending {
    BlockPtr block;
    std::set<NodeId> acks;
  };
  std::unordered_map<Hash256, Pending, Hash256Hasher> pending_;
  // Distinct grantors this candidacy, self included. A set, not a counter: the network may
  // duplicate a vote response, and double-counting one grantor elects a leader without a
  // real majority (a fork the chaos swarm found under duplication jitter).
  std::set<NodeId> votes_from_;
  uint64_t heartbeat_timer_ = 0;
  uint64_t election_timer_ = 0;
};

}  // namespace achilles

#endif  // SRC_RAFT_REPLICA_H_
