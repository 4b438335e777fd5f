#include "src/damysus/replica.h"

namespace achilles {

DamysusReplica::DamysusReplica(const ReplicaContext& ctx, bool initial_launch)
    : ChainedReplica(ctx, kDamysusWire) {
  if (initial_launch) {
    checker_ = std::make_unique<SealedVoteChecker>(&enclave(), ctx.params.n, ctx.params.f,
                                                   kDamysusSealSlot, kDamysusWire.domains);
  } else {
    // Local restore: sealed state (+ counter check in -R). nullptr => crash-stop.
    checker_ = SealedVoteChecker::Restore(&enclave(), ctx.params.n, ctx.params.f,
                                          kDamysusSealSlot, kDamysusWire.domains,
                                          SkipsRestoreCheck(ctx.params.broken));
    RestoreStableCheckpoint();
  }
}

void DamysusReplica::OnStart() {
  if (checker_ == nullptr) {
    JournalEvent(obs::JournalKind::kHalt);
    return;  // Halted: rollback detected (or no sealed state to restore).
  }
  RejoinAtTrustedView();
}

void DamysusReplica::HandleMessage(NodeId from, const MessageRef& msg) {
  if (checker_ == nullptr) {
    return;
  }
  if (auto propose = std::dynamic_pointer_cast<const ChainedProposeMsg>(msg)) {
    OnPropose(from, propose);
  } else if (auto v1 = std::dynamic_pointer_cast<const ChainedVoteMsg>(msg)) {
    OnFirstVote(v1->cert);
  } else if (auto pc = std::dynamic_pointer_cast<const ChainedPreCommitMsg>(msg)) {
    OnPreCommit(from, *pc);
  } else if (auto v2 = std::dynamic_pointer_cast<const ChainedCommitVoteMsg>(msg)) {
    OnCommitVote(1, v2->cert);
  } else if (auto decide = std::dynamic_pointer_cast<const ChainedDecideMsg>(msg)) {
    OnDecide(from, msg, decide->qc);
  } else if (auto nv = std::dynamic_pointer_cast<const ChainedNewViewMsg>(msg)) {
    OnNewView(nv->cert);
  }
}

void DamysusReplica::OnPropose(NodeId from,
                               const std::shared_ptr<const ChainedProposeMsg>& msg) {
  if (!AdmitProposal(from, msg, msg->block, msg->cert)) {
    return;
  }
  const auto vote = checker_->VoteFirst(msg->cert);
  if (!vote) {
    return;
  }
  const View v = msg->cert.view;
  NoteProgress(v);
  SendTo(LeaderOf(v), std::make_shared<ChainedVoteMsg>(kDamysusWire.vote, *vote));
}

void DamysusReplica::OnPreCommit(NodeId from, const ChainedPreCommitMsg& msg) {
  const QuorumCert& qc = msg.qc;
  if (qc.view < checker_->vi()) {
    return;
  }
  if (store_.Get(qc.hash) == nullptr) {
    RequestBlock(from, qc.hash);
    return;  // Vote2 requires the block; rare (propose lost), recovered via timeout.
  }
  const auto vote = checker_->StorePrepared(qc);
  if (!vote) {
    return;
  }
  SendTo(LeaderOf(qc.view), std::make_shared<ChainedCommitVoteMsg>(kDamysusWire.commit_vote,
                                                                   *vote));
}

}  // namespace achilles
