#include "src/hotstuff/replica.h"

#include <algorithm>

#include "src/common/serde.h"

namespace achilles {

namespace {
constexpr const char* kStateKey = "hotstuff-qc";

void WriteQc(ByteWriter& w, const QuorumCert& qc) {
  w.Raw(ByteView(qc.hash.data(), qc.hash.size()));
  w.U64(qc.view);
  w.U32(static_cast<uint32_t>(qc.sigs.size()));
  for (const Signature& sig : qc.sigs) {
    w.U32(sig.signer);
    w.Blob(ByteView(sig.blob.data(), sig.blob.size()));
  }
}

bool ReadQc(ByteReader& r, QuorumCert& qc) {
  const auto hash = r.Raw(32);
  const auto view = r.U64();
  const auto count = r.U32();
  if (!hash || !view || !count) {
    return false;
  }
  std::copy(hash->begin(), hash->end(), qc.hash.begin());
  qc.view = *view;
  qc.sigs.clear();
  qc.sigs.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    const auto signer = r.U32();
    auto blob = r.Blob();
    if (!signer || !blob) {
      return false;
    }
    Signature sig;
    sig.signer = *signer;
    sig.blob = std::move(*blob);
    qc.sigs.push_back(std::move(sig));
  }
  return true;
}
}  // namespace

const char* HsPhaseDomain(HsPhase phase) {
  switch (phase) {
    case HsPhase::kPrepare:
      return kHsPrepare;
    case HsPhase::kPreCommit:
      return kHsPreCommit;
    case HsPhase::kCommit:
      return kHsCommit;
  }
  return "?";
}

HotStuffReplica::HotStuffReplica(const ReplicaContext& ctx, bool initial_launch)
    : ReplicaBase(ctx) {
  // Genesis QC: empty certificate referencing the genesis block.
  prepare_qc_.hash = Block::Genesis()->hash;
  prepare_qc_.view = 0;
  locked_qc_ = prepare_qc_;
  if (!initial_launch) {
    RestoreStableCheckpoint();
    RestoreDurableState();
  }
}

void HotStuffReplica::RestoreDurableState() {
  const std::optional<Bytes> state = HostRecords().Get(kStateKey);
  if (!state) {
    return;
  }
  ByteReader r(ByteView(state->data(), state->size()));
  const auto view = r.U64();
  QuorumCert prepare_qc;
  QuorumCert locked_qc;
  if (!view || !ReadQc(r, prepare_qc) || !ReadQc(r, locked_qc) || r.remaining() != 0) {
    return;
  }
  RestoreView(*view);
  prepare_qc_ = std::move(prepare_qc);
  locked_qc_ = std::move(locked_qc);
}

void HotStuffReplica::PersistState() {
  ByteWriter w;
  w.U64(view());
  WriteQc(w, prepare_qc_);
  WriteQc(w, locked_qc_);
  HostRecords().Put(kStateKey, ByteView(w.bytes().data(), w.bytes().size()));
}

void HotStuffReplica::OnStart() {
  // A rebooted replica may have voted in the restored view, so that view is burned:
  // entering view+1 is what makes a second PREPARE vote there impossible.
  AdvanceViaNewView(view() + 1);
}

void HotStuffReplica::AdvanceViaNewView(View target) {
  if (!EnterView(target)) {
    return;
  }
  PersistState();  // The view entry must survive a reboot (restored view is burned).
  ArmViewTimer();
  auto msg = std::make_shared<HsNewViewMsg>();
  msg->view = target;
  msg->prepare_qc = prepare_qc_;
  ChargeSignPlain();
  const Bytes digest = CertDigest(kHsNewView, prepare_qc_.hash, target);
  msg->sig = platform().suite().Sign(id(), ByteView(digest.data(), digest.size()));
  SendTo(LeaderOf(target), msg);
}

void HotStuffReplica::OnViewTimeout(View armed) {
  if (armed == view()) {
    AdvanceViaNewView(NoteTimeout());
  }
}

void HotStuffReplica::HandleMessage(NodeId from, const MessageRef& msg) {
  if (auto nv = std::dynamic_pointer_cast<const HsNewViewMsg>(msg)) {
    OnNewView(*nv);
  } else if (auto propose = std::dynamic_pointer_cast<const HsProposeMsg>(msg)) {
    OnPropose(from, propose);
  } else if (auto vote = std::dynamic_pointer_cast<const HsVoteMsg>(msg)) {
    OnVote(*vote);
  } else if (auto qc = std::dynamic_pointer_cast<const HsQcMsg>(msg)) {
    OnQc(from, qc);
  }
}

void HotStuffReplica::OnNewView(const HsNewViewMsg& msg) {
  if (LeaderOf(msg.view) != id() || msg.view + kPruneHorizon < view() ||
      proposed_hash_.count(msg.view) > 0) {
    return;
  }
  ChargeVerifyPlain(1);
  const Bytes digest = CertDigest(kHsNewView, msg.prepare_qc.hash, msg.view);
  if (!platform().suite().Verify(msg.sig, ByteView(digest.data(), digest.size()))) {
    return;
  }
  std::vector<HsNewViewMsg>& collected = new_views_[msg.view];
  for (const HsNewViewMsg& existing : collected) {
    if (existing.sig.signer == msg.sig.signer) {
      return;
    }
  }
  collected.push_back(msg);
  TryPropose(msg.view);
}

void HotStuffReplica::TryPropose(View v) {
  auto it = new_views_.find(v);
  if (it == new_views_.end() || it->second.size() < quorum() || v < view() ||
      proposed_hash_.count(v) > 0) {
    return;
  }
  // Extend the highest prepare QC among the collected new-views (and our own).
  const QuorumCert* high = &prepare_qc_;
  for (const HsNewViewMsg& nv : it->second) {
    if (nv.prepare_qc.view > high->view) {
      high = &nv.prepare_qc;
    }
  }
  if (!EnsureAncestry(high->hash, LeaderOf(high->view))) {
    return;
  }
  const BlockPtr parent = store_.Get(high->hash);
  std::vector<Transaction> batch = mempool_.TakeBatch(params().batch_size);
  ChargeExecute(batch.size());
  const BlockPtr block = Block::Create(v, parent, std::move(batch), LocalNow());
  ChargeHashBytes(block->WireSize());
  EnterView(v);
  proposed_hash_[v] = block->hash;
  store_.Add(block);
  MarkProposed(block);
  PruneBelow(new_views_, v);
  PruneBelow(proposed_hash_, v);
  for (auto& votes : votes_) {
    PruneBelow(votes, v);
  }
  PruneBelow(phase_done_, v);

  auto msg = std::make_shared<HsProposeMsg>();
  msg->block = block;
  msg->justify = *high;
  BroadcastToReplicas(msg, /*include_self=*/true);
}

bool HotStuffReplica::SafeToVote(const BlockPtr& block, const QuorumCert& justify) const {
  // HotStuff safety rule: vote iff the block extends the locked block, or the justify QC
  // is newer than the lock (liveness rule).
  if (store_.Extends(block->hash, locked_qc_.hash)) {
    return true;
  }
  return justify.view > locked_qc_.view;
}

void HotStuffReplica::OnPropose(NodeId from, const std::shared_ptr<const HsProposeMsg>& msg) {
  if (msg->block == nullptr || msg->block->view < view() ||
      LeaderOf(msg->block->view) != from) {
    return;
  }
  // Verify the justify QC (genesis QC is empty and always accepted).
  if (!msg->justify.sigs.empty()) {
    ChargeVerifyBatch(msg->justify.sigs.size());
    if (!msg->justify.Verify(platform().suite(), kHsPrepare, quorum())) {
      return;
    }
  } else if (msg->justify.hash != Block::Genesis()->hash) {
    return;
  }
  if (msg->block->parent != msg->justify.hash) {
    return;
  }
  if (!AcceptBlock(msg->block)) {
    return;
  }
  if (!EnsureAncestry(msg->block->hash, from)) {
    pending_proposals_.emplace_back(from, msg);
    return;
  }
  if (!SafeToVote(msg->block, msg->justify)) {
    return;
  }
  NoteProgress(msg->block->view);
  PersistState();  // The view we PREPARE-vote in hits disk before the vote leaves.
  SendVote(HsPhase::kPrepare, msg->block->hash, msg->block->view);
}

void HotStuffReplica::SendVote(HsPhase phase, const Hash256& hash, View view) {
  auto msg = std::make_shared<HsVoteMsg>();
  msg->phase = phase;
  msg->vote.hash = hash;
  msg->vote.view = view;
  SignPlain(msg->vote, HsPhaseDomain(phase));
  SendTo(LeaderOf(view), msg);
}

void HotStuffReplica::OnVote(const HsVoteMsg& msg) {
  const View v = msg.vote.view;
  const auto phase_index = static_cast<size_t>(msg.phase);
  if (LeaderOf(v) != id()) {
    return;
  }
  auto proposed = proposed_hash_.find(v);
  if (proposed == proposed_hash_.end() || msg.vote.hash != proposed->second) {
    return;
  }
  if (phase_done_[v] > phase_index) {
    return;  // This phase's QC already formed.
  }
  if (!VerifyPlain(msg.vote, HsPhaseDomain(msg.phase))) {
    return;
  }
  std::vector<SignedCert>& votes = votes_[phase_index][v];
  for (const SignedCert& existing : votes) {
    if (existing.sig.signer == msg.vote.sig.signer) {
      return;
    }
  }
  votes.push_back(msg.vote);
  CritNote(static_cast<uint32_t>(phase_index), v);
  if (votes.size() < quorum()) {
    return;
  }
  CritJoin(static_cast<uint32_t>(phase_index), v);
  phase_done_[v] = static_cast<uint8_t>(phase_index + 1);
  auto out = std::make_shared<HsQcMsg>();
  out->phase = msg.phase;
  out->qc.hash = proposed->second;
  out->qc.view = v;
  for (const SignedCert& vote : votes) {
    out->qc.sigs.push_back(vote.sig);
  }
  BroadcastToReplicas(out, /*include_self=*/true);
}

void HotStuffReplica::OnQc(NodeId from, const std::shared_ptr<const HsQcMsg>& msg) {
  const QuorumCert& qc = msg->qc;
  ChargeVerifyBatch(qc.sigs.size());
  if (!qc.Verify(platform().suite(), HsPhaseDomain(msg->phase), quorum())) {
    return;
  }
  switch (msg->phase) {
    case HsPhase::kPrepare:
      if (qc.view >= prepare_qc_.view) {
        prepare_qc_ = qc;
        PersistState();  // The highest prepare QC must survive a reboot.
      }
      SendVote(HsPhase::kPreCommit, qc.hash, qc.view);
      return;
    case HsPhase::kPreCommit:
      if (qc.view >= locked_qc_.view) {
        locked_qc_ = qc;  // Lock.
        JournalEvent(obs::JournalKind::kLockUpdate, qc.view, JournalHash(qc.hash));
        PersistState();  // The lock hits disk before the COMMIT vote leaves the node.
      }
      SendVote(HsPhase::kCommit, qc.hash, qc.view);
      return;
    case HsPhase::kCommit: {
      const BlockPtr block = store_.Get(qc.hash);
      if (block == nullptr) {
        RequestBlock(from, qc.hash);
        return;
      }
      CommitChain(block, qc.WireSize());
      ResetBackoff();
      AdvanceViaNewView(qc.view + 1);
      return;
    }
  }
}

void HotStuffReplica::OnBlocksSynced() {
  auto proposals = std::move(pending_proposals_);
  pending_proposals_.clear();
  for (auto& [from, msg] : proposals) {
    OnPropose(from, msg);
  }
  TryPropose(view());
}

}  // namespace achilles
