#include "src/consensus/chained_replica.h"

namespace achilles {

ChainedReplica::ChainedReplica(const ReplicaContext& ctx, const ChainedWireSpec& wire)
    : ReplicaBase(ctx), wire_(wire) {}

// --- View change ---

void ChainedReplica::AdvanceViaNewView(View target) {
  const auto cert = TrustedNewView(target);
  if (!cert) {
    return;
  }
  EnterView(target);
  ArmViewTimer();
  SendTo(LeaderOf(target), std::make_shared<ChainedNewViewMsg>(wire_.new_view, *cert));
}

void ChainedReplica::RejoinAtTrustedView() {
  const View restored = TrustedView();
  if (restored == 0) {
    AdvanceViaNewView(1);
    return;
  }
  EnterView(restored);
  AdvanceViaNewView(restored + 1);
}

void ChainedReplica::OnViewTimeout(View armed) {
  if (Active() && armed == view()) {
    AdvanceViaNewView(NoteTimeout());
  }
}

void ChainedReplica::EnterViewAfterCommit(View new_view, const MessageRef& decide,
                                          const QuorumCert& cert) {
  if (new_view <= view()) {
    return;
  }
  NoteProgress(new_view);
  if (!params().commit_fast_path) {
    // Ablation: fall back to the NEW-VIEW collection for every view.
    AdvanceViaNewView(new_view);
    return;
  }
  // NEW-VIEW optimization (§4.4): hand the commit certificate to the new leader instead of
  // a NEW-VIEW certificate. Self-addressed copies short-circuit locally.
  const NodeId next_leader = LeaderOf(new_view);
  if (next_leader == id()) {
    commit_certs_[new_view] = cert;
    TryProposeFromCommit(new_view);
  } else {
    SendTo(next_leader, decide);
  }
}

// --- Proposals ---

void ChainedReplica::TryProposeFromCommit(View w) {
  if (!Active() || LeaderOf(w) != id() || w < view() || proposed_hash_.count(w) > 0) {
    return;
  }
  auto it = commit_certs_.find(w);
  if (it == commit_certs_.end()) {
    return;
  }
  const QuorumCert& cert = it->second;
  if (!EnsureAncestry(cert.hash, LeaderOf(cert.view))) {
    return;  // Sync will retry via OnBlocksSynced.
  }
  BuildAndBroadcastProposal(w, store_.Get(cert.hash), /*acc=*/nullptr, &cert);
}

void ChainedReplica::TryProposeFromViewCerts(View w) {
  if (!Active() || LeaderOf(w) != id() || w < view() || proposed_hash_.count(w) > 0) {
    return;
  }
  auto it = view_certs_.find(w);
  if (it == view_certs_.end() || it->second.size() < quorum()) {
    return;
  }
  // Join the view in the trusted component if the pacemaker hasn't got us there yet; our
  // own NEW-VIEW certificate (sent to ourselves) will land in the collection too, but the
  // quorum check above already passed without it.
  if (TrustedView() < w) {
    AdvanceViaNewView(w);
    if (TrustedView() != w) {
      return;
    }
  }
  // The freshest stored block among the certificates must be locally available before we
  // can extend it.
  const SignedCert* best = nullptr;
  for (const SignedCert& cert : it->second) {
    if (best == nullptr || cert.view > best->view) {
      best = &cert;
    }
  }
  if (!EnsureAncestry(best->hash, best->sig.signer)) {
    return;
  }
  const BlockPtr parent = store_.Get(best->hash);
  const auto acc = TrustedAccum(it->second);
  if (!acc) {
    return;
  }
  BuildAndBroadcastProposal(w, parent, &*acc, /*commit_cert=*/nullptr);
}

void ChainedReplica::BuildAndBroadcastProposal(View w, const BlockPtr& parent,
                                               const AccumulatorCert* acc,
                                               const QuorumCert* commit_cert) {
  std::vector<Transaction> batch = mempool_.TakeBatch(params().batch_size);
  // executeTx + createLeaf: hash the batch and execute it against the parent state.
  ChargeExecute(batch.size());
  const BlockPtr block = Block::Create(w, parent, std::move(batch), LocalNow());
  ChargeHashBytes(block->WireSize());
  const auto block_cert = TrustedPrepare(*block, acc, commit_cert);
  if (!block_cert) {
    return;
  }
  EnterView(w);
  proposed_hash_[w] = block->hash;
  store_.Add(block);
  MarkProposed(block);
  PruneBelow(proposed_hash_, view());
  PruneBelow(view_certs_, view());
  for (auto& votes : votes_) {
    PruneBelow(votes, view());
  }
  PruneBelow(commit_certs_, view());
  // The leader takes part in its own block too (self-delivery): with f Byzantine backups
  // every f+1 quorum must be reachable from the leader plus f correct backups.
  BroadcastToReplicas(std::make_shared<ChainedProposeMsg>(wire_.propose, block, *block_cert),
                      /*include_self=*/true);
}

bool ChainedReplica::AdmitProposal(NodeId from, const MessageRef& msg, const BlockPtr& block,
                                   const SignedCert& cert) {
  if (!Active() || block == nullptr) {
    return false;
  }
  if (cert.view < TrustedView() || block->hash != cert.hash || block->view != cert.view) {
    return false;
  }
  if (!AcceptBlock(block)) {
    return false;  // Failed integrity validation.
  }
  if (!EnsureAncestry(block->hash, from)) {
    pending_proposals_.emplace_back(from, msg);
    return false;
  }
  return true;
}

// --- Leader-side collection ---

void ChainedReplica::OnNewView(const SignedCert& view_cert) {
  if (!Active()) {
    return;
  }
  const View w = view_cert.aux;  // Certificate's target view.
  if (LeaderOf(w) != id() || w + kPruneHorizon < view() || proposed_hash_.count(w) > 0) {
    return;
  }
  if (!VerifyPlain(view_cert, wire_.domains.new_view)) {
    return;
  }
  std::vector<SignedCert>& certs = view_certs_[w];
  for (const SignedCert& existing : certs) {
    if (existing.sig.signer == view_cert.sig.signer) {
      return;
    }
  }
  certs.push_back(view_cert);
  TryProposeFromViewCerts(w);
}

void ChainedReplica::OnFirstVote(const SignedCert& vote) {
  if (auto prepared_qc = CollectVote(0, vote, wire_.domains.vote1)) {
    BroadcastToReplicas(std::make_shared<ChainedPreCommitMsg>(wire_.precommit,
                                                              std::move(*prepared_qc)),
                        /*include_self=*/true);
  }
}

void ChainedReplica::OnCommitVote(uint32_t phase, const SignedCert& vote) {
  if (auto commit_cert = CollectVote(phase, vote, wire_.domains.commit)) {
    BroadcastToReplicas(std::make_shared<ChainedDecideMsg>(wire_.decide, std::move(*commit_cert)),
                        /*include_self=*/true);
  }
}

std::optional<QuorumCert> ChainedReplica::CollectVote(uint32_t phase, const SignedCert& vote,
                                                      const char* domain) {
  const View v = vote.view;
  if (!Active() || LeaderOf(v) != id() || quorum_view_[phase] >= v) {
    return std::nullopt;
  }
  auto proposed = proposed_hash_.find(v);
  if (proposed == proposed_hash_.end() || vote.hash != proposed->second) {
    return std::nullopt;
  }
  if (!VerifyPlain(vote, domain)) {
    return std::nullopt;
  }
  std::vector<SignedCert>& votes = votes_[phase][v];
  for (const SignedCert& existing : votes) {
    if (existing.sig.signer == vote.sig.signer) {
      return std::nullopt;
    }
  }
  votes.push_back(vote);
  CritNote(phase, v);
  if (votes.size() < quorum()) {
    return std::nullopt;
  }
  CritJoin(phase, v);
  quorum_view_[phase] = v;
  QuorumCert qc;
  qc.hash = proposed->second;
  qc.view = v;
  for (const SignedCert& signed_vote : votes) {
    qc.sigs.push_back(signed_vote.sig);
  }
  return qc;
}

// --- DECIDE + chained commit ---

void ChainedReplica::OnDecide(NodeId from, const MessageRef& msg, const QuorumCert& cert) {
  if (!Active()) {
    return;
  }
  BlockPtr block = store_.Get(cert.hash);
  if (block != nullptr && block->height <= last_committed_height_) {
    return;  // Duplicate decide for an already-committed block.
  }
  ChargeVerifyBatch(cert.sigs.size());
  if (!cert.Verify(platform().suite(), wire_.domains.commit, quorum())) {
    return;
  }
  if (block == nullptr) {
    pending_decides_.emplace_back(from, msg);
    RequestBlock(from, cert.hash);
    return;
  }
  if (!EnsureAncestry(cert.hash, from) && block->height <= last_committed_height_ + 64) {
    // A small gap: wait for sync. (A deep gap falls through to checkpoint adoption in
    // CommitChain — state transfer instead of replay.)
    pending_decides_.emplace_back(from, msg);
    return;
  }
  CommitChain(block, cert.WireSize());
  OnDecided(block, cert);
  // As the (possibly future) leader, remember the justification for view v+1.
  if (params().commit_fast_path && LeaderOf(cert.view + 1) == id()) {
    commit_certs_[cert.view + 1] = cert;
    TryProposeFromCommit(cert.view + 1);
  }
  EnterViewAfterCommit(cert.view + 1, msg, cert);
}

void ChainedReplica::OnBlocksSynced() {
  auto proposals = std::move(pending_proposals_);
  pending_proposals_.clear();
  for (auto& [from, msg] : proposals) {
    HandleMessage(from, msg);
  }
  auto decides = std::move(pending_decides_);
  pending_decides_.clear();
  for (auto& [from, msg] : decides) {
    HandleMessage(from, msg);
  }
  TryProposeFromCommit(view());
  TryProposeFromViewCerts(view());
}

}  // namespace achilles
