#include "src/oneshot/replica.h"

#include <algorithm>

namespace achilles {

OneShotReplica::OneShotReplica(const ReplicaContext& ctx, bool initial_launch)
    : ChainedReplica(ctx, {kOsNewView, kOsCommit}) {
  if (initial_launch) {
    checker_ = std::make_unique<OneShotChecker>(&enclave(), ctx.params.n, ctx.params.f);
  } else {
    checker_ = OneShotChecker::Restore(&enclave(), ctx.params.n, ctx.params.f,
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
  if (auto propose = std::dynamic_pointer_cast<const OsProposeMsg>(msg)) {
    OnPropose(from, propose);
  } else if (auto v1 = std::dynamic_pointer_cast<const OsVote1Msg>(msg)) {
    if (auto prepared_qc = CollectVote(0, v1->vote, kOsVote1)) {
      auto out = std::make_shared<OsPreCommitMsg>();
      out->prepared_qc = std::move(*prepared_qc);
      BroadcastToReplicas(out, /*include_self=*/true);
    }
  } else if (auto pc = std::dynamic_pointer_cast<const OsPreCommitMsg>(msg)) {
    OnPreCommit(from, *pc);
  } else if (auto cv = std::dynamic_pointer_cast<const OsCommitVoteMsg>(msg)) {
    if (auto commit_qc = CollectVote(1, cv->vote, kOsCommit)) {
      BroadcastToReplicas(MakeDecide(std::move(*commit_qc)), /*include_self=*/true);
    }
  } else if (auto decide = std::dynamic_pointer_cast<const OsDecideMsg>(msg)) {
    OnDecide(from, msg, decide->commit_qc);
  } else if (auto nv = std::dynamic_pointer_cast<const OsNewViewMsg>(msg)) {
    OnNewView(nv->view_cert);
  }
}

std::optional<SignedCert> OneShotReplica::TrustedPrepare(const Block& block,
                                                         const AccumulatorCert* acc,
                                                         const QuorumCert* commit_qc) {
  if (acc != nullptr) {
    auto cert = checker_->ToPrepareSlow(block, *acc);
    slow_views_ += cert ? 1 : 0;
    return cert;
  }
  auto cert = checker_->ToPrepareFast(block, *commit_qc);
  fast_views_ += cert ? 1 : 0;
  return cert;
}

MessageRef OneShotReplica::MakeNewView(const SignedCert& view_cert) const {
  auto msg = std::make_shared<OsNewViewMsg>();
  msg->view_cert = view_cert;
  return msg;
}

MessageRef OneShotReplica::MakePropose(const BlockPtr& block,
                                       const SignedCert& prep_cert) const {
  auto msg = std::make_shared<OsProposeMsg>();
  msg->block = block;
  msg->prep_cert = prep_cert;
  return msg;
}

MessageRef OneShotReplica::MakeDecide(QuorumCert commit_qc) const {
  auto msg = std::make_shared<OsDecideMsg>();
  msg->commit_qc = std::move(commit_qc);
  return msg;
}

void OneShotReplica::OnPropose(NodeId from, const std::shared_ptr<const OsProposeMsg>& msg) {
  if (!AdmitProposal(from, msg, msg->block, msg->prep_cert)) {
    return;
  }
  const View v = msg->prep_cert.view;
  if (msg->prep_cert.aux == 1) {
    // Fast path: single-phase store.
    const auto vote = checker_->ToStoreFast(msg->prep_cert);
    if (!vote) {
      return;
    }
    NoteProgress(v);
    auto out = std::make_shared<OsCommitVoteMsg>();
    out->vote = *vote;
    SendTo(LeaderOf(v), out);
    return;
  }
  const auto vote = checker_->ToVote(msg->prep_cert);
  if (!vote) {
    return;
  }
  NoteProgress(v);
  auto out = std::make_shared<OsVote1Msg>();
  out->vote = *vote;
  SendTo(LeaderOf(v), out);
}

void OneShotReplica::OnPreCommit(NodeId from, const OsPreCommitMsg& msg) {
  const QuorumCert& qc = msg.prepared_qc;
  if (qc.view < checker_->vi()) {
    return;
  }
  if (store_.Get(qc.hash) == nullptr) {
    RequestBlock(from, qc.hash);
    return;
  }
  const auto vote = checker_->ToStoreSlow(qc);
  if (!vote) {
    return;
  }
  auto out = std::make_shared<OsCommitVoteMsg>();
  out->vote = *vote;
  SendTo(LeaderOf(qc.view), out);
}

}  // namespace achilles
