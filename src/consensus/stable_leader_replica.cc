#include "src/consensus/stable_leader_replica.h"

#include <utility>
#include <vector>

namespace achilles {

StableLeaderReplica::StableLeaderReplica(const ReplicaContext& ctx, bool initial_launch,
                                         const std::string& log_name)
    : ReplicaBase(ctx), last_proposed_(Block::Genesis()) {
  OpenBlockLog(log_name);
  if (!initial_launch) {
    if (const BlockPtr snapshot = RestoreStableCheckpoint()) {
      last_proposed_ = snapshot;
    }
  }
}

void StableLeaderReplica::OnStart() {
  JournalEvent(obs::JournalKind::kViewEnter, view());
  ArmViewTimer();
  if (LeaderOf(view()) == id()) {
    // Small self-kick loop: propose as soon as transactions exist.
    host().SetTimer(Ms(1), [this] { TryPropose(); });
  }
}

// --- Proposals ---

void StableLeaderReplica::TryPropose() {
  if (LeaderOf(view()) != id()) {
    return;
  }
  if (!proposal_outstanding_) {
    std::vector<Transaction> batch = mempool_.TakeBatch(params().batch_size);
    ChargeExecute(batch.size());
    const BlockPtr block =
        Block::Create(/*view=*/view(), last_proposed_, std::move(batch), LocalNow());
    ChargeHashBytes(block->WireSize());
    if (OrderBlock(block)) {
      return;
    }
  }
  host().SetTimer(Ms(1), [this] { TryPropose(); });
}

void StableLeaderReplica::AdoptProposal(const BlockPtr& block) {
  proposal_outstanding_ = true;
  last_proposed_ = block;
  store_.Add(block);
  MarkProposed(block);
}

// --- Votes and commit ---

bool StableLeaderReplica::VoteFor(NodeId leader, const BlockPtr& block, bool may_vote) {
  if (!AcceptBlock(block) || !EnsureAncestry(block->hash, leader)) {
    return false;  // Vote only for fully-available chains; the leader re-achieves quorum.
  }
  Candidate& cand = candidates_[block->hash];
  cand.block = block;
  if (cand.voted || !may_vote) {
    return false;
  }
  cand.voted = true;
  NoteProgress(view());
  return true;
}

void StableLeaderReplica::CountVote(const Hash256& hash, NodeId voter,
                                    const std::function<bool()>& authentic) {
  Candidate& cand = candidates_[hash];
  if (cand.committed || !authentic() || !cand.voters.insert(voter).second) {
    return;
  }
  CritNote(0, JournalHash(hash));
  TryCommit(hash);
}

void StableLeaderReplica::TryCommit(const Hash256& hash) {
  auto it = candidates_.find(hash);
  if (it == candidates_.end() || it->second.committed || it->second.block == nullptr ||
      it->second.voters.size() < quorum()) {
    return;
  }
  if (!EnsureAncestry(hash, LeaderOf(view()))) {
    return;
  }
  it->second.committed = true;
  CritJoin(0, JournalHash(hash));
  const bool was_last_proposed = it->second.block == last_proposed_;
  const size_t cert_wire = it->second.voters.size() * (4 + 64);
  CommitChain(it->second.block, cert_wire);
  NoteProgress(view());
  // Drop finished candidates to keep long runs memory-stable.
  std::erase_if(candidates_, [this](const auto& entry) {
    return entry.second.block != nullptr &&
           entry.second.block->height + 8 < last_committed_height_;
  });
  if (LeaderOf(view()) == id() && was_last_proposed) {
    proposal_outstanding_ = false;
    TryPropose();
  }
}

void StableLeaderReplica::OnBlocksSynced() {
  std::vector<Hash256> ready;
  for (const auto& [hash, cand] : candidates_) {
    if (!cand.committed && cand.voters.size() >= quorum()) {
      ready.push_back(hash);
    }
  }
  for (const Hash256& hash : ready) {
    TryCommit(hash);
  }
}

// --- Epoch change ---

void StableLeaderReplica::OnViewTimeout(View /*armed*/) {
  // No commit progress: move to the next epoch and tell everyone our committed prefix.
  EnterView(NoteTimeout());
  proposal_outstanding_ = false;
  candidates_.clear();
  ArmViewTimer();
  BroadcastToReplicas(MakeEpochChange(), /*include_self=*/true);
}

void StableLeaderReplica::CollectEpochChange(NodeId sender, View target,
                                             const BlockPtr& committed_block,
                                             EpochReport report,
                                             const std::function<bool()>& admit) {
  if (target < view() || LeaderOf(target) != id() || !admit()) {
    return;
  }
  if (committed_block != nullptr) {
    AcceptBlock(committed_block);
  }
  if (report.voted_block != nullptr) {
    AcceptBlock(report.voted_block);
  }
  EpochReports& collected = epoch_msgs_[target];
  collected[sender] = std::move(report);
  if (collected.size() < quorum()) {
    return;
  }
  // Resume from the highest committed block reported, our own included.
  Height best_height = last_committed_height_;
  Hash256 best_hash = last_committed_hash_;
  for (const auto& [node, reported] : collected) {
    if (reported.committed_height > best_height) {
      best_height = reported.committed_height;
      best_hash = reported.committed_hash;
    }
  }
  const BlockPtr base = store_.Get(best_hash);
  if (base == nullptr) {
    return;  // Need the block first; epoch-change messages keep arriving.
  }
  if (!AdoptEpoch(target, base)) {
    return;
  }
  JournalEvent(obs::JournalKind::kLeaderElected, target, id());
  const BlockPtr revote = VotedAbove(collected, best_height);
  last_proposed_ = base;
  proposal_outstanding_ = false;
  candidates_.clear();
  epoch_msgs_.erase(epoch_msgs_.begin(), epoch_msgs_.upper_bound(target));
  ArmBaseTimeout();
  if (revote != nullptr) {
    OrderBlock(revote);
  } else {
    TryPropose();
  }
}

}  // namespace achilles
