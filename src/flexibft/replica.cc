#include "src/flexibft/replica.h"

#include <algorithm>

#include "src/common/serde.h"

namespace achilles {

namespace {
constexpr const char* kSeqKey = "flexibft-seq";
constexpr const char* kLogWal = "flexibft-log";
}  // namespace

std::optional<SignedCert> FlexiSequencer::Order(const Block& b, uint64_t seq,
                                                uint64_t epoch) {
  enclave_->ChargeEcall();
  if (epoch != epoch_ || seq != next_seq_) {
    return std::nullopt;
  }
  ++next_seq_;
  // The sequencer is the only counter-protected state in FlexiBFT: one write per block.
  MonotonicCounter& counter = enclave_->platform().counter();
  if (counter.spec().enabled()) {
    counter.IncrementBlocking();
  }
  PersistState();  // The (epoch, seq) burn hits disk before the certificate leaves.
  SignedCert cert;
  cert.hash = b.hash;
  cert.view = seq;
  cert.aux = epoch;
  enclave_->ChargeSign();
  const Bytes digest = cert.Digest(kFbOrder);
  cert.sig = enclave_->Sign(ByteView(digest.data(), digest.size()));
  return cert;
}

bool FlexiSequencer::StartEpoch(uint64_t epoch, uint64_t start_seq) {
  enclave_->ChargeEcall();
  if (epoch <= epoch_) {
    return false;
  }
  epoch_ = epoch;
  next_seq_ = start_seq;
  PersistState();  // Epoch adoption must survive a reboot (epochs only move forward).
  return true;
}

void FlexiSequencer::PersistState() {
  ByteWriter w;
  w.U64(epoch_);
  w.U64(next_seq_);
  w.U64(enclave_->platform().counter().value());
  meta_->Put(kSeqKey, ByteView(w.bytes().data(), w.bytes().size()));
}

void FlexiSequencer::Restore() {
  uint64_t persisted_counter = 0;
  if (const std::optional<Bytes> state = meta_->Get(kSeqKey)) {
    ByteReader r(ByteView(state->data(), state->size()));
    const auto epoch = r.U64();
    const auto next_seq = r.U64();
    const auto counter_at = r.U64();
    if (epoch && next_seq && counter_at && r.remaining() == 0) {
      epoch_ = *epoch;
      next_seq_ = *next_seq;
      persisted_counter = *counter_at;
    }
  }
  // The device counts every Order ever issued and survives anything the host disk can
  // suffer: a gap against the persisted mirror means orders happened after the record was
  // written, so the frontier skips past them rather than reissue a burned (epoch, seq).
  MonotonicCounter& counter = enclave_->platform().counter();
  if (counter.spec().enabled()) {
    const uint64_t device = counter.ReadBlocking();
    if (device > persisted_counter) {
      next_seq_ += device - persisted_counter;
    }
  }
}

FlexiBftReplica::FlexiBftReplica(const ReplicaContext& ctx, bool initial_launch)
    : ReplicaBase(ctx),
      initial_launch_(initial_launch),
      sequencer_(&enclave(), &HostRecords()) {
  // Backups keep no trusted state: a rebooted FlexiBFT node simply rejoins at the current
  // epoch (its quorum math tolerates rolled-back backups — the 3f+1 trade-off). Only the
  // leader-side sequencer frontier and its ordered-block log are durable.
  last_proposed_ = Block::Genesis();
  if (!initial_launch_) {
    // Stable checkpoint first: it sets the committed floor the log replay filters
    // against, and seeds the proposal chain when the whole log was compacted away.
    if (const BlockPtr snapshot = RestoreStableCheckpoint()) {
      last_proposed_ = snapshot;
    }
    RestoreDurableState();
  }
}

void FlexiBftReplica::RestoreDurableState() {
  sequencer_.Restore();
  RestoreView(sequencer_.epoch());
  // Replay the ordered-block log so a restored leader proposes on top of what it already
  // sequenced. Records at or past the sequence frontier were appended but never ordered
  // (Order() failed after the append) and are ignored.
  for (const Bytes& record : Wal(kLogWal).records()) {
    const BlockPtr block = DecodeBlockRecord(ByteView(record.data(), record.size()));
    if (block == nullptr || block->height >= sequencer_.next_seq() ||
        block->height <= last_committed_height_) {
      continue;  // Past the frontier, or subsumed by the restored checkpoint.
    }
    store_.Add(block);
    if (block->height > last_proposed_->height) {
      last_proposed_ = block;
    }
  }
}

void FlexiBftReplica::OnStart() {
  JournalEvent(obs::JournalKind::kViewEnter, view());
  ArmViewTimer();
  if (LeaderOfEpoch(view()) == id()) {
    // Small self-kick loop: propose as soon as transactions exist.
    host().SetTimer(Ms(1), [this] { TryPropose(); });
  }
}

void FlexiBftReplica::HandleMessage(NodeId from, const MessageRef& msg) {
  if (auto propose = std::dynamic_pointer_cast<const FbProposeMsg>(msg)) {
    OnPropose(from, propose);
  } else if (auto vote = std::dynamic_pointer_cast<const FbVoteMsg>(msg)) {
    OnVote(*vote);
  } else if (auto ec = std::dynamic_pointer_cast<const FbEpochChangeMsg>(msg)) {
    OnEpochChange(from, *ec);
  }
}

void FlexiBftReplica::TryPropose() {
  if (LeaderOfEpoch(view()) != id()) {
    return;
  }
  if (proposal_outstanding_) {
    host().SetTimer(Ms(1), [this] { TryPropose(); });
    return;
  }
  std::vector<Transaction> batch = mempool_.TakeBatch(params().batch_size);
  ChargeExecute(batch.size());
  const BlockPtr block =
      Block::Create(/*view=*/view(), last_proposed_, std::move(batch), LocalNow());
  ChargeHashBytes(block->WireSize());
  // Log the block before ordering it: the sequencer's sync inside Order() makes both
  // durable in the same barrier, so the restored log can never lag the burned sequence
  // number. If Order() fails the orphan record stays below the frontier filter on replay.
  const Bytes record = EncodeBlockRecord(*block);
  Wal(kLogWal).Append(ByteView(record.data(), record.size()), storage::SyncMode::kAsync);
  const auto cert = sequencer_.Order(*block, block->height, view());
  if (!cert) {
    host().SetTimer(Ms(1), [this] { TryPropose(); });
    return;
  }
  proposal_outstanding_ = true;
  last_proposed_ = block;
  store_.Add(block);
  MarkProposed(block);
  auto msg = std::make_shared<FbProposeMsg>();
  msg->block = block;
  msg->order_cert = *cert;
  BroadcastToReplicas(msg, /*include_self=*/true);
}

void FlexiBftReplica::OnPropose(NodeId from, const std::shared_ptr<const FbProposeMsg>& msg) {
  const uint64_t cert_epoch = msg->order_cert.aux;
  if (msg->block == nullptr || cert_epoch < view() ||
      msg->order_cert.sig.signer != LeaderOfEpoch(cert_epoch) ||
      msg->order_cert.hash != msg->block->hash ||
      msg->order_cert.view != msg->block->height) {
    return;
  }
  ChargeVerifyPlain(1);
  const Bytes digest = msg->order_cert.Digest(kFbOrder);
  if (!platform().suite().Verify(msg->order_cert.sig, ByteView(digest.data(), digest.size()))) {
    return;
  }
  if (cert_epoch > view()) {
    // Epoch fast-forward: a valid order certificate from the leader of a newer epoch is
    // proof the cluster moved on. This is how a rebooted backup — which by design keeps no
    // durable state — rejoins at the current epoch instead of timing out once per epoch.
    NoteProgress(cert_epoch);
  }
  if (!AcceptBlock(msg->block)) {
    return;
  }
  if (!EnsureAncestry(msg->block->hash, from)) {
    return;  // Vote only for fully-available chains; leader will re-achieve quorum.
  }
  Candidate& cand = candidates_[msg->block->hash];
  cand.block = msg->block;
  if (cand.voted || msg->block->height <= last_voted_seq_) {
    return;
  }
  cand.voted = true;
  last_voted_seq_ = msg->block->height;
  NoteProgress(view());

  SignedCert vote;
  vote.hash = msg->block->hash;
  vote.view = msg->block->height;
  vote.aux = view();
  ChargeSignPlain();
  const Bytes vote_digest = vote.Digest(kFbVote);
  vote.sig = platform().suite().Sign(id(), ByteView(vote_digest.data(), vote_digest.size()));
  auto out = std::make_shared<FbVoteMsg>();
  out->vote = vote;
  BroadcastToReplicas(out, /*include_self=*/true);  // All-to-all: the O(n^2) term.
}

void FlexiBftReplica::OnVote(const FbVoteMsg& msg) {
  if (msg.vote.aux != view()) {
    return;
  }
  Candidate& cand = candidates_[msg.vote.hash];
  if (cand.committed) {
    return;
  }
  ChargeVerifyPlain(1);
  const Bytes digest = msg.vote.Digest(kFbVote);
  if (!platform().suite().Verify(msg.vote.sig, ByteView(digest.data(), digest.size()))) {
    return;
  }
  for (const Signature& existing : cand.votes) {
    if (existing.signer == msg.vote.sig.signer) {
      return;
    }
  }
  cand.votes.push_back(msg.vote.sig);
  CritNote(0, JournalHash(msg.vote.hash));
  TryCommit(msg.vote.hash);
}

void FlexiBftReplica::TryCommit(const Hash256& hash) {
  auto it = candidates_.find(hash);
  if (it == candidates_.end() || it->second.committed ||
      it->second.votes.size() < quorum() || it->second.block == nullptr) {
    return;
  }
  if (!EnsureAncestry(hash, LeaderOfEpoch(view()))) {
    return;
  }
  it->second.committed = true;
  CritJoin(0, JournalHash(hash));
  const size_t qc_wire = it->second.votes.size() * (4 + 64);
  const bool was_last_proposed = it->second.block == last_proposed_;
  CommitChain(it->second.block, qc_wire);
  NoteProgress(view());
  // Drop finished candidates to keep long runs memory-stable.
  std::erase_if(candidates_, [this](const auto& entry) {
    return entry.second.block != nullptr &&
           entry.second.block->height + 8 < last_committed_height_;
  });
  if (LeaderOfEpoch(view()) == id() && was_last_proposed) {
    proposal_outstanding_ = false;
    TryPropose();
  }
}

void FlexiBftReplica::OnViewTimeout(View /*armed*/) {
  // No commit progress: move to the next epoch and tell everyone our committed prefix.
  EnterView(NoteTimeout());
  proposal_outstanding_ = false;
  candidates_.clear();
  last_voted_seq_ = last_committed_height_;
  ArmViewTimer();

  SignedCert cert;
  cert.hash = last_committed_hash_;
  cert.view = last_committed_height_;
  cert.aux = view();
  ChargeSignPlain();
  const Bytes digest = cert.Digest(kFbEpoch);
  cert.sig = platform().suite().Sign(id(), ByteView(digest.data(), digest.size()));
  auto msg = std::make_shared<FbEpochChangeMsg>();
  msg->cert = cert;
  msg->committed_block = store_.Get(last_committed_hash_);
  BroadcastToReplicas(msg, /*include_self=*/true);
}

void FlexiBftReplica::OnEpochChange(NodeId /*from*/, const FbEpochChangeMsg& msg) {
  const uint64_t new_epoch = msg.cert.aux;
  if (new_epoch < view() || LeaderOfEpoch(new_epoch) != id()) {
    return;
  }
  ChargeVerifyPlain(1);
  const Bytes digest = msg.cert.Digest(kFbEpoch);
  if (!platform().suite().Verify(msg.cert.sig, ByteView(digest.data(), digest.size()))) {
    return;
  }
  if (msg.committed_block != nullptr) {
    AcceptBlock(msg.committed_block);
  }
  auto& collected = epoch_msgs_[new_epoch];
  collected[msg.cert.sig.signer] = {msg.cert.view, msg.cert.hash};
  if (collected.size() < quorum()) {
    return;
  }
  // Become leader of new_epoch: resume from the highest committed block reported.
  Height best_height = last_committed_height_;
  Hash256 best_hash = last_committed_hash_;
  for (const auto& [node, hh] : collected) {
    if (hh.first > best_height) {
      best_height = hh.first;
      best_hash = hh.second;
    }
  }
  const BlockPtr base = store_.Get(best_hash);
  if (base == nullptr) {
    return;  // Need the block first; epoch messages keep arriving.
  }
  if (!sequencer_.StartEpoch(new_epoch, base->height + 1)) {
    return;
  }
  EnterView(new_epoch);
  JournalEvent(obs::JournalKind::kLeaderElected, new_epoch, id());
  last_proposed_ = base;
  proposal_outstanding_ = false;
  candidates_.clear();
  epoch_msgs_.erase(epoch_msgs_.begin(), epoch_msgs_.upper_bound(new_epoch));
  ArmBaseTimeout();
  TryPropose();
}

void FlexiBftReplica::OnStableCheckpoint(const checkpoint::CheckpointCert& cert) {
  ReplicaBase::OnStableCheckpoint(cert);
  // Compact the ordered-block log behind the certified boundary. The scan stops at the
  // first record beyond the boundary so later appends are never dropped.
  storage::WriteAheadLog& wal = Wal(kLogWal);
  size_t drop = 0;
  for (const Bytes& record : wal.records()) {
    const BlockPtr block = DecodeBlockRecord(ByteView(record.data(), record.size()));
    if (block != nullptr && block->height > cert.height) {
      break;
    }
    ++drop;
  }
  wal.TruncateFront(drop);
}

void FlexiBftReplica::OnBlocksSynced() {
  std::vector<Hash256> ready;
  for (const auto& [hash, cand] : candidates_) {
    if (!cand.committed && cand.votes.size() >= quorum()) {
      ready.push_back(hash);
    }
  }
  for (const Hash256& hash : ready) {
    TryCommit(hash);
  }
}

}  // namespace achilles
