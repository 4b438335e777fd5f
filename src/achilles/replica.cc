#include "src/achilles/replica.h"

#include <algorithm>

namespace achilles {

AchillesReplica::AchillesReplica(const ReplicaContext& ctx, bool initial_launch)
    : ChainedReplica(ctx, kAchillesWire),
      checker_(&enclave(), ctx.params.n, ctx.params.f, initial_launch,
               ctx.params.broken == BrokenVariant::kRecoveryNonce) {
  preb_.block = Block::Genesis();
  if (!initial_launch) {
    // Seed the committed prefix from the last stable checkpoint (if its snapshot and
    // sealed certificate agree): recovery then backfills from the boundary, not genesis.
    RestoreStableCheckpoint();
  }
}

void AchillesReplica::OnStart() {
  if (checker_.recovering()) {
    JournalEvent(obs::JournalKind::kRecoveryEnter, checker_.vi());
    StartRecoveryRound();
    return;
  }
  // Genesis, or a reboot with a fresh storage restore (quorum defense backend): the
  // trusted state survived intact, so skip Algorithm 3 and rejoin directly.
  RejoinAtTrustedView();
}

void AchillesReplica::HandleMessage(NodeId from, const MessageRef& msg) {
  if (auto propose = std::dynamic_pointer_cast<const ChainedProposeMsg>(msg)) {
    OnPropose(from, propose);
  } else if (auto vote = std::dynamic_pointer_cast<const ChainedCommitVoteMsg>(msg)) {
    OnCommitVote(0, vote->cert);
  } else if (auto decide = std::dynamic_pointer_cast<const ChainedDecideMsg>(msg)) {
    OnDecide(from, msg, decide->qc);
  } else if (auto nv = std::dynamic_pointer_cast<const ChainedNewViewMsg>(msg)) {
    OnNewView(nv->cert);
  } else if (auto req = std::dynamic_pointer_cast<const AchRecoveryRequestMsg>(msg)) {
    OnRecoveryRequest(from, *req);
  } else if (auto rpy = std::dynamic_pointer_cast<const AchRecoveryReplyMsg>(msg)) {
    OnRecoveryReply(from, *rpy);
  }
}

// --- Normal case: store + vote ---

void AchillesReplica::OnPropose(NodeId from,
                                const std::shared_ptr<const ChainedProposeMsg>& msg) {
  if (!AdmitProposal(from, msg, msg->block, msg->cert)) {
    return;
  }
  const auto store_cert = checker_.TeeStore(msg->cert);
  if (!store_cert) {
    return;
  }
  if (preb_.block == nullptr || msg->block->view >= preb_.block->view) {
    preb_ = StoredBlock{msg->block, msg->cert, QuorumCert{}};
  }
  const View v = msg->cert.view;
  NoteProgress(v);
  SendTo(LeaderOf(v), std::make_shared<ChainedCommitVoteMsg>(kAchillesWire.commit_vote,
                                                             *store_cert));
}

void AchillesReplica::OnDecided(const BlockPtr& block, const QuorumCert& cert) {
  // Record the freshest certificates for recovery replies.
  if (preb_.block != nullptr && preb_.block->hash == cert.hash) {
    preb_.commit_cert = cert;
  } else if (preb_.block == nullptr || block->view > preb_.block->view) {
    preb_ = StoredBlock{block, SignedCert{}, cert};
  }
  if (latest_committed_.block == nullptr || block->view > latest_committed_.block->view) {
    latest_committed_ = StoredBlock{block, SignedCert{}, cert};
  }
}

// --- Recovery ---

void AchillesReplica::StartRecoveryRound() {
  const auto request = checker_.TeeRequest();
  if (!request) {
    return;
  }
  recovery_replies_.clear();
  reply_source_.clear();
  last_request_nonce_ = request->aux;
  JournalEvent(obs::JournalKind::kRecoveryRound, request->aux);
  auto msg = std::make_shared<AchRecoveryRequestMsg>();
  msg->request = *request;
  BroadcastToReplicas(msg, /*include_self=*/false);
  // Retry with a fresh nonce if the round cannot complete (e.g. the highest-view reply is
  // not from that view's leader yet — §4.5: wait for the next leader). Rounds are cheap
  // (one small message per peer), so retry every few RTTs rather than a full view timeout.
  const SimDuration retry = std::max<SimDuration>(Ms(2), params().base_timeout / 20);
  host().SetTimer(retry, [this] {
    if (checker_.recovering()) {
      StartRecoveryRound();
    }
  });
}

void AchillesReplica::OnRecoveryRequest(NodeId from, const AchRecoveryRequestMsg& msg) {
  const auto reply = checker_.TeeReply(msg.request, from);
  if (!reply) {
    return;
  }
  auto out = std::make_shared<AchRecoveryReplyMsg>();
  out->reply = *reply;
  out->block = preb_.block;
  out->block_cert = preb_.block_cert;
  out->commit_cert = preb_.commit_cert;
  out->committed_block = latest_committed_.block;
  out->committed_cert = latest_committed_.commit_cert;
  SendTo(from, out);
}

void AchillesReplica::OnRecoveryReply(NodeId from, const AchRecoveryReplyMsg& msg) {
  if (!checker_.recovering() ||
      (params().broken != BrokenVariant::kRecoveryNonce && msg.reply.aux2 != last_request_nonce_)) {
    return;  // Not recovering, or a reply from a superseded request round.
  }
  if (msg.block != nullptr) {
    AcceptBlock(msg.block);
    recovered_certs_[msg.block->hash] = RecoveredCerts{msg.block_cert, msg.commit_cert};
  }
  if (msg.committed_block != nullptr && !msg.committed_cert.empty()) {
    AcceptBlock(msg.committed_block);
    // Keep the highest *verified* certified checkpoint for state transfer.
    if (best_recovery_checkpoint_.block == nullptr ||
        msg.committed_block->height > best_recovery_checkpoint_.block->height) {
      ChargeVerifyBatch(msg.committed_cert.sigs.size());
      if (msg.committed_cert.hash == msg.committed_block->hash &&
          msg.committed_cert.Verify(platform().suite(), kAchCommit, quorum())) {
        best_recovery_checkpoint_ =
            StoredBlock{msg.committed_block, SignedCert{}, msg.committed_cert};
      }
    }
  }
  for (const SignedCert& existing : recovery_replies_) {
    if (existing.sig.signer == msg.reply.sig.signer) {
      return;
    }
  }
  ChargeVerifyPlain(1);
  recovery_replies_.push_back(msg.reply);
  reply_source_[msg.reply.sig.signer] = from;
  TryFinishRecovery();
}

void AchillesReplica::TryFinishRecovery() {
  if (!checker_.recovering() || recovery_replies_.size() < quorum()) {
    return;
  }
  // Find the highest current view among the replies; several replies usually tie (all
  // correct nodes that stored the same proposal report the same vi), so among the ties we
  // must pick the one signed by that view's leader — the checker enforces exactly this.
  View max_view = 0;
  for (const SignedCert& reply : recovery_replies_) {
    max_view = std::max<View>(max_view, reply.aux);
  }
  const SignedCert* leader_reply = nullptr;
  for (const SignedCert& reply : recovery_replies_) {
    if (reply.aux == max_view && reply.sig.signer == LeaderOfView(max_view, n())) {
      leader_reply = &reply;
      break;
    }
  }
  if (leader_reply == nullptr) {
    return;  // Wait for more replies (or the retry round).
  }
  const BlockPtr recovered = store_.Get(leader_reply->hash);
  if (recovered == nullptr) {
    auto src = reply_source_.find(leader_reply->sig.signer);
    if (src != reply_source_.end()) {
      RequestBlock(src->second, leader_reply->hash);
    }
    return;
  }
  const auto view_cert = checker_.TeeRecover(*leader_reply, recovery_replies_);
  if (!view_cert) {
    return;
  }
  recovery_completed_at_ = LocalNow();
  recovery_completed_nonce_ = leader_reply->aux2;
  const View view = checker_.vi();
  // a = nonce echoed by the accepted round, b = the view recovery lands in. Forensics
  // compares a against the last kRecoveryRound nonce to detect a stale-round acceptance.
  JournalEvent(obs::JournalKind::kRecoveryExit, leader_reply->aux2, view);
  EnterView(view);
  // State transfer: adopt the best certified committed checkpoint from the replies.
  if (best_recovery_checkpoint_.block != nullptr) {
    AdoptCheckpoint(best_recovery_checkpoint_.block,
                    best_recovery_checkpoint_.commit_cert.WireSize());
    latest_committed_ = best_recovery_checkpoint_;
  }
  preb_.block = recovered;
  auto certs = recovered_certs_.find(recovered->hash);
  if (certs != recovered_certs_.end()) {
    preb_.block_cert = certs->second.block_cert;
    preb_.commit_cert = certs->second.commit_cert;
    if (!certs->second.commit_cert.empty()) {
      CommitChain(recovered, certs->second.commit_cert.WireSize());
      if (latest_committed_.block == nullptr ||
          recovered->view > latest_committed_.block->view) {
        latest_committed_ = StoredBlock{recovered, SignedCert{}, certs->second.commit_cert};
      }
    }
  } else {
    preb_.block_cert = SignedCert{};
    preb_.commit_cert = QuorumCert{};
  }
  recovery_replies_.clear();
  recovered_certs_.clear();
  best_recovery_checkpoint_ = StoredBlock{};
  NoteProgress(view);
  SendTo(LeaderOf(view), std::make_shared<ChainedNewViewMsg>(kAchillesWire.new_view, *view_cert));
}

void AchillesReplica::OnBlocksSynced() {
  ChainedReplica::OnBlocksSynced();
  TryFinishRecovery();
}

}  // namespace achilles
