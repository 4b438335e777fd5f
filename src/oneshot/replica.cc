#include "src/oneshot/replica.h"

#include <algorithm>

namespace achilles {

OneShotReplica::OneShotReplica(const ReplicaContext& ctx, bool initial_launch)
    : ChainedReplica(ctx, kOneShotWire) {
  if (initial_launch) {
    checker_ = std::make_unique<SealedVoteChecker>(&enclave(), ctx.params.n, ctx.params.f,
                                                   kOneShotSealSlot, kOneShotWire.domains);
  } else {
    checker_ = SealedVoteChecker::Restore(&enclave(), ctx.params.n, ctx.params.f,
                                          kOneShotSealSlot, kOneShotWire.domains,
                                          SkipsRestoreCheck(ctx.params.broken));
    RestoreStableCheckpoint();
  }
}

void OneShotReplica::OnStart() {
  if (checker_ == nullptr) {
    JournalEvent(obs::JournalKind::kHalt);
    return;
  }
  AdvanceViaNewView(std::max<View>(1, checker_->vi() + 1));
}

void OneShotReplica::HandleMessage(NodeId from, const MessageRef& msg) {
  if (checker_ == nullptr) {
    return;
  }
  if (auto propose = std::dynamic_pointer_cast<const ChainedProposeMsg>(msg)) {
    OnPropose(from, propose);
  } else if (auto v1 = std::dynamic_pointer_cast<const ChainedVoteMsg>(msg)) {
    OnFirstVote(v1->cert);
  } else if (auto pc = std::dynamic_pointer_cast<const ChainedPreCommitMsg>(msg)) {
    OnPreCommit(from, *pc);
  } else if (auto cv = std::dynamic_pointer_cast<const ChainedCommitVoteMsg>(msg)) {
    OnCommitVote(1, cv->cert);
  } else if (auto decide = std::dynamic_pointer_cast<const ChainedDecideMsg>(msg)) {
    OnDecide(from, msg, decide->qc);
  } else if (auto nv = std::dynamic_pointer_cast<const ChainedNewViewMsg>(msg)) {
    OnNewView(nv->cert);
  }
}

std::optional<SignedCert> OneShotReplica::TrustedPrepare(const Block& block,
                                                         const AccumulatorCert* acc,
                                                         const QuorumCert* commit_qc) {
  if (acc != nullptr) {
    auto cert = checker_->PrepareFromAcc(block, *acc);
    slow_views_ += cert ? 1 : 0;
    return cert;
  }
  // aux = 1 on the certificate marks the fast path: backups may single-phase store it.
  auto cert = checker_->PrepareFromCommit(block, *commit_qc, /*aux=*/1);
  fast_views_ += cert ? 1 : 0;
  return cert;
}

void OneShotReplica::OnPropose(NodeId from,
                               const std::shared_ptr<const ChainedProposeMsg>& msg) {
  if (!AdmitProposal(from, msg, msg->block, msg->cert)) {
    return;
  }
  const View v = msg->cert.view;
  if (msg->cert.aux == 1) {
    // Fast path: single-phase store.
    const auto vote = checker_->StoreFast(msg->cert);
    if (!vote) {
      return;
    }
    NoteProgress(v);
    SendTo(LeaderOf(v), std::make_shared<ChainedCommitVoteMsg>(kOneShotWire.commit_vote, *vote));
    return;
  }
  const auto vote = checker_->VoteFirst(msg->cert);
  if (!vote) {
    return;
  }
  NoteProgress(v);
  SendTo(LeaderOf(v), std::make_shared<ChainedVoteMsg>(kOneShotWire.vote, *vote));
}

void OneShotReplica::OnPreCommit(NodeId from, const ChainedPreCommitMsg& msg) {
  const QuorumCert& qc = msg.qc;
  if (qc.view < checker_->vi()) {
    return;
  }
  if (store_.Get(qc.hash) == nullptr) {
    RequestBlock(from, qc.hash);
    return;
  }
  const auto vote = checker_->StorePrepared(qc);
  if (!vote) {
    return;
  }
  SendTo(LeaderOf(qc.view), std::make_shared<ChainedCommitVoteMsg>(kOneShotWire.commit_vote,
                                                                   *vote));
}

}  // namespace achilles
