#include "src/damysus/replica.h"

namespace achilles {

DamysusReplica::DamysusReplica(const ReplicaContext& ctx, bool initial_launch)
    : ChainedReplica(ctx, {kDamNewView, kDamVote2}) {
  if (initial_launch) {
    checker_ = std::make_unique<DamysusChecker>(&enclave(), ctx.params.n, ctx.params.f);
  } else {
    // Local restore: sealed state (+ counter check in -R). nullptr => crash-stop.
    checker_ = DamysusChecker::Restore(&enclave(), ctx.params.n, ctx.params.f,
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
  if (auto propose = std::dynamic_pointer_cast<const DamProposeMsg>(msg)) {
    OnPropose(from, propose);
  } else if (auto v1 = std::dynamic_pointer_cast<const DamVote1Msg>(msg)) {
    if (auto prepared_qc = CollectVote(0, v1->vote, kDamVote1)) {
      auto out = std::make_shared<DamPreCommitMsg>();
      out->prepared_qc = std::move(*prepared_qc);
      BroadcastToReplicas(out, /*include_self=*/true);
    }
  } else if (auto pc = std::dynamic_pointer_cast<const DamPreCommitMsg>(msg)) {
    OnPreCommit(from, *pc);
  } else if (auto v2 = std::dynamic_pointer_cast<const DamVote2Msg>(msg)) {
    if (auto commit_qc = CollectVote(1, v2->vote, kDamVote2)) {
      BroadcastToReplicas(MakeDecide(std::move(*commit_qc)), /*include_self=*/true);
    }
  } else if (auto decide = std::dynamic_pointer_cast<const DamDecideMsg>(msg)) {
    OnDecide(from, msg, decide->commit_qc);
  } else if (auto nv = std::dynamic_pointer_cast<const DamNewViewMsg>(msg)) {
    OnNewView(nv->view_cert);
  }
}

MessageRef DamysusReplica::MakeNewView(const SignedCert& view_cert) const {
  auto msg = std::make_shared<DamNewViewMsg>();
  msg->view_cert = view_cert;
  return msg;
}

MessageRef DamysusReplica::MakePropose(const BlockPtr& block,
                                       const SignedCert& prep_cert) const {
  auto msg = std::make_shared<DamProposeMsg>();
  msg->block = block;
  msg->prep_cert = prep_cert;
  return msg;
}

MessageRef DamysusReplica::MakeDecide(QuorumCert commit_qc) const {
  auto msg = std::make_shared<DamDecideMsg>();
  msg->commit_qc = std::move(commit_qc);
  return msg;
}

void DamysusReplica::OnPropose(NodeId from,
                               const std::shared_ptr<const DamProposeMsg>& msg) {
  if (!AdmitProposal(from, msg, msg->block, msg->prep_cert)) {
    return;
  }
  const auto vote = checker_->TdVote(msg->prep_cert);
  if (!vote) {
    return;
  }
  const View v = msg->prep_cert.view;
  NoteProgress(v);
  auto out = std::make_shared<DamVote1Msg>();
  out->vote = *vote;
  SendTo(LeaderOf(v), out);
}

void DamysusReplica::OnPreCommit(NodeId from, const DamPreCommitMsg& msg) {
  const QuorumCert& qc = msg.prepared_qc;
  if (qc.view < checker_->vi()) {
    return;
  }
  if (store_.Get(qc.hash) == nullptr) {
    RequestBlock(from, qc.hash);
    return;  // Vote2 requires the block; rare (propose lost), recovered via timeout.
  }
  const auto vote = checker_->TdStore(qc);
  if (!vote) {
    return;
  }
  auto out = std::make_shared<DamVote2Msg>();
  out->vote = *vote;
  SendTo(LeaderOf(qc.view), out);
}

}  // namespace achilles
