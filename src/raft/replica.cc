#include "src/raft/replica.h"

#include "src/common/serde.h"

namespace achilles {

namespace {
constexpr const char* kMetaKey = "raft-meta";
constexpr const char* kLogWal = "raft-log";
}  // namespace

RaftReplica::RaftReplica(const ReplicaContext& ctx, bool initial_launch)
    : ReplicaBase(ctx), initial_launch_(initial_launch) {
  head_ = Block::Genesis();
  set_client_replies_enabled(false);  // Only the leader answers clients in Raft.
  OpenBlockLog(kLogWal);
  if (!initial_launch_) {
    // Checkpoint first: the restored boundary becomes the committed prefix, and WAL replay
    // below skips the records the snapshot subsumes (they were truncated at checkpoint
    // time; only a not-yet-compacted tail can still carry them).
    if (const BlockPtr snapshot = RestoreStableCheckpoint()) {
      head_ = snapshot;
    }
    RestoreDurableState();
  }
}

void RaftReplica::RestoreDurableState() {
  if (const std::optional<Bytes> meta = HostRecords().Get(kMetaKey)) {
    ByteReader r(ByteView(meta->data(), meta->size()));
    const auto term = r.U64();
    const auto voted = r.U64();
    if (term && voted && r.remaining() == 0) {
      term_ = *term;
      voted_in_term_ = *voted;
    }
  }
  // Replay the log; the tail (highest (term, height)) becomes head_ again, so the election
  // restriction and re-replication behave as if the crash never happened.
  for (const BlockPtr& block : block_log_->Replay(last_committed_height_, store_)) {
    if (block->view > head_->view ||
        (block->view == head_->view && block->height > head_->height)) {
      head_ = block;
    }
  }
}

void RaftReplica::OnCheckpointAdopted(const BlockPtr& block) {
  // The adopted boundary supersedes everything the local log tail knew: propose on top of
  // it unless the tail is already further along in a no-older term.
  if (block->view > head_->view ||
      (block->view == head_->view && block->height > head_->height)) {
    head_ = block;
  }
}

void RaftReplica::PersistMeta() {
  ByteWriter w;
  w.U64(term_);
  w.U64(voted_in_term_);
  HostRecords().Put(kMetaKey, ByteView(w.bytes().data(), w.bytes().size()));
}

void RaftReplica::OnStart() {
  if (term_ == 0) {
    term_ = 1;
  }
  JournalEvent(obs::JournalKind::kViewEnter, term_);
  if (id() == 0 && initial_launch_) {
    // Node 0 bootstraps as the initial leader (deterministic start); elections take over on
    // any failure. A rebooted node 0 must win an election instead: another leader may have
    // been elected in its restored term while it was down.
    BecomeLeader();
  } else {
    ArmElectionTimer();
  }
}

void RaftReplica::ArmElectionTimer() {
  if (election_timer_ != 0) {
    host().CancelTimer(election_timer_);
  }
  const SimDuration base = params().base_timeout;
  const SimDuration jitter = static_cast<SimDuration>(
      host().sim().rng().UniformU64(static_cast<uint64_t>(base)));
  election_timer_ = host().SetTimer(base + jitter, [this] {
    if (role_ != Role::kLeader) {
      StartElection();
    }
  });
}

void RaftReplica::StartElection() {
  role_ = Role::kCandidate;
  ++term_;
  JournalEvent(obs::JournalKind::kViewEnter, term_);
  voted_in_term_ = term_;  // Vote for self.
  votes_from_.clear();
  votes_from_.insert(id());
  PersistMeta();  // (currentTerm, votedFor=self) hit disk before the candidacy is visible.
  auto req = std::make_shared<RaftVoteReqMsg>();
  req->term = term_;
  req->last_term = head_->view;
  req->last_height = head_->height;
  BroadcastToReplicas(req, /*include_self=*/false);
  ArmElectionTimer();
}

void RaftReplica::BecomeFollower(uint64_t term) {
  role_ = Role::kFollower;
  if (term > term_) {
    term_ = term;
    JournalEvent(obs::JournalKind::kViewEnter, term_);
    PersistMeta();  // Adopted term must survive a reboot (no double vote in it).
  }
  set_client_replies_enabled(false);
  if (heartbeat_timer_ != 0) {
    host().CancelTimer(heartbeat_timer_);
    heartbeat_timer_ = 0;
  }
  ArmElectionTimer();
}

void RaftReplica::BecomeLeader() {
  role_ = Role::kLeader;
  JournalEvent(obs::JournalKind::kLeaderElected, term_, id());
  set_client_replies_enabled(true);
  if (election_timer_ != 0) {
    host().CancelTimer(election_timer_);
    election_timer_ = 0;
  }
  proposal_outstanding_ = false;
  pending_.clear();
  // A new leader never discards its own log tail (§5.4.1): acked-but-uncommitted entries
  // must be re-replicated, not overwritten — proposing on top of the newest entry we hold
  // lets CommitChain re-commit them once a descendant commits. (The chaos swarm caught the
  // fork this causes when the tail is truncated to the commit index instead.)
  const BlockPtr committed = store_.Get(last_committed_hash_);
  if (committed != nullptr && committed->height > head_->height) {
    head_ = committed;
  }
  SendHeartbeats();
  TryPropose();
}

void RaftReplica::SendHeartbeats() {
  if (role_ != Role::kLeader) {
    return;
  }
  auto hb = std::make_shared<RaftAppendMsg>();
  hb->term = term_;
  hb->commit_height = last_committed_height_;
  hb->commit_hash = last_committed_hash_;
  if (proposal_outstanding_ && !pending_.empty()) {
    // Replication is at-least-once: re-send the in-flight block with every heartbeat so a
    // dropped append or ack cannot wedge the term (acks are idempotent; AcceptBlock
    // returns true for blocks already stored).
    hb->block = pending_.begin()->second.block;
  }
  BroadcastToReplicas(hb, /*include_self=*/false);
  heartbeat_timer_ =
      host().SetTimer(params().base_timeout / 4, [this] { SendHeartbeats(); });
}

void RaftReplica::TryPropose() {
  if (role_ != Role::kLeader || proposal_outstanding_) {
    return;
  }
  std::vector<Transaction> batch = mempool_.TakeBatch(params().batch_size);
  ChargeExecute(batch.size());
  const BlockPtr block = Block::Create(/*view=*/term_, head_, std::move(batch), LocalNow());
  ChargeHashBytes(block->WireSize());
  head_ = block;
  store_.Add(block);
  MarkProposed(block);
  block_log_->Append(*block, storage::SyncMode::kSync);  // Leader persists before replicating.
  proposal_outstanding_ = true;
  Pending& pending = pending_[block->hash];
  pending.block = block;
  pending.acks.insert(id());
  auto msg = std::make_shared<RaftAppendMsg>();
  msg->term = term_;
  msg->block = block;
  msg->commit_height = last_committed_height_;
  msg->commit_hash = last_committed_hash_;
  BroadcastToReplicas(msg, /*include_self=*/false);
}

void RaftReplica::HandleMessage(NodeId from, const MessageRef& msg) {
  if (auto append = std::dynamic_pointer_cast<const RaftAppendMsg>(msg)) {
    OnAppend(from, append);
  } else if (auto ack = std::dynamic_pointer_cast<const RaftAckMsg>(msg)) {
    OnAck(from, *ack);
  } else if (auto req = std::dynamic_pointer_cast<const RaftVoteReqMsg>(msg)) {
    OnVoteReq(from, *req);
  } else if (auto rsp = std::dynamic_pointer_cast<const RaftVoteRspMsg>(msg)) {
    OnVoteRsp(from, *rsp);
  }
}

void RaftReplica::OnAppend(NodeId from, const std::shared_ptr<const RaftAppendMsg>& msg) {
  if (msg->term < term_) {
    return;
  }
  if (msg->term > term_ || role_ == Role::kCandidate) {
    BecomeFollower(msg->term);
  }
  leader_hint_ = from;
  ArmElectionTimer();

  // An append at or below the commit index is one the leader committed long ago (a
  // delayed re-delivery): taking it in would restore a block the checkpoint pruned and ack
  // it again.
  if (msg->block != nullptr && msg->block->height > last_committed_height_) {
    ChargeHashBytes(msg->block->WireSize());
    if (AcceptBlock(msg->block) && EnsureAncestry(msg->block->hash, from)) {
      if (msg->block->parent == head_->hash || msg->block->height > head_->height) {
        head_ = msg->block;
      }
      // Durable append before the ack; a heartbeat re-delivery skips the second fsync.
      block_log_->Append(*msg->block, storage::SyncMode::kSync);
      auto ack = std::make_shared<RaftAckMsg>();
      ack->term = term_;
      ack->hash = msg->block->hash;
      ack->height = msg->block->height;
      SendTo(from, ack);
    }
  }
  // Apply the leader's commit index.
  if (msg->commit_height > last_committed_height_) {
    const BlockPtr committed = store_.Get(msg->commit_hash);
    if (committed != nullptr) {
      CommitChain(committed, /*cert_wire_size=*/0);
    } else {
      RequestBlock(from, msg->commit_hash);
    }
  }
}

void RaftReplica::OnAck(NodeId from, const RaftAckMsg& msg) {
  if (role_ != Role::kLeader || msg.term != term_) {
    return;
  }
  auto it = pending_.find(msg.hash);
  if (it == pending_.end()) {
    return;
  }
  it->second.acks.insert(from);
  CritNote(0, JournalHash(msg.hash));
  if (it->second.acks.size() < quorum()) {
    return;
  }
  CritJoin(0, JournalHash(msg.hash));
  const BlockPtr block = it->second.block;
  pending_.erase(it);
  CommitChain(block, /*cert_wire_size=*/0);
  proposal_outstanding_ = false;
  TryPropose();
}

void RaftReplica::OnVoteReq(NodeId from, const RaftVoteReqMsg& msg) {
  if (msg.term <= term_ || msg.term <= voted_in_term_) {
    return;
  }
  // Election restriction (§5.4.1): grant only if the candidate's log is at least as
  // up-to-date as OUR LOG, comparing (term, height) of the log tails. Comparing against
  // the commit index instead lets a candidate that is missing acked-but-uncommitted
  // entries win and overwrite a quorum-replicated entry (a fork the chaos swarm found).
  if (msg.last_term < head_->view ||
      (msg.last_term == head_->view && msg.last_height < head_->height)) {
    // Adopt the newer term even when rejecting (§5.1): the candidate must not stay wedged
    // above a leader that never hears of its term.
    BecomeFollower(msg.term);
    return;
  }
  BecomeFollower(msg.term);
  voted_in_term_ = msg.term;
  PersistMeta();  // votedFor hits disk before the grant leaves the node.
  auto rsp = std::make_shared<RaftVoteRspMsg>();
  rsp->term = msg.term;
  rsp->granted = true;
  SendTo(from, rsp);
}

void RaftReplica::OnVoteRsp(NodeId from, const RaftVoteRspMsg& msg) {
  if (role_ != Role::kCandidate || msg.term != term_ || !msg.granted) {
    return;
  }
  votes_from_.insert(from);
  if (votes_from_.size() >= quorum()) {  // Majority of DISTINCT grantors: f+1 of 2f+1.
    BecomeLeader();
  }
}

}  // namespace achilles
