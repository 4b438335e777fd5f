#include "src/flexibft/replica.h"

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
    : StableLeaderReplica(ctx, initial_launch, kLogWal),
      sequencer_(&enclave(), &HostRecords()) {
  // Backups keep no trusted state: a rebooted FlexiBFT node simply rejoins at the current
  // epoch (its quorum math tolerates rolled-back backups — the 3f+1 trade-off). Only the
  // leader-side sequencer frontier and its ordered-block log are durable.
  if (initial_launch) {
    return;
  }
  sequencer_.Restore();
  RestoreView(sequencer_.epoch());
  // Replay the ordered-block log so a restored leader proposes on top of what it already
  // sequenced. Records at or past the sequence frontier were appended but never ordered
  // (Order() failed after the append) and are ignored.
  for (const BlockPtr& block :
       block_log_->Replay(last_committed_height_, store_, sequencer_.next_seq())) {
    if (block->height > last_proposed_->height) {
      last_proposed_ = block;
    }
  }
}

void FlexiBftReplica::HandleMessage(NodeId from, const MessageRef& msg) {
  if (auto propose = std::dynamic_pointer_cast<const FbProposeMsg>(msg)) {
    OnPropose(from, propose);
  } else if (auto vote = std::dynamic_pointer_cast<const FbVoteMsg>(msg)) {
    OnVote(*vote);
  } else if (auto ec = std::dynamic_pointer_cast<const FbEpochChangeMsg>(msg)) {
    OnEpochChange(*ec);
  }
}

bool FlexiBftReplica::OrderBlock(const BlockPtr& block) {
  // Log the block before ordering it: the sequencer's sync inside Order() makes both
  // durable in the same barrier, so the restored log can never lag the burned sequence
  // number. If Order() fails the orphan record stays below the frontier filter on replay.
  block_log_->Append(*block, storage::SyncMode::kAsync);
  const auto cert = sequencer_.Order(*block, block->height, view());
  if (!cert) {
    return false;
  }
  AdoptProposal(block);
  auto msg = std::make_shared<FbProposeMsg>();
  msg->block = block;
  msg->order_cert = *cert;
  BroadcastToReplicas(msg, /*include_self=*/true);
  return true;
}

void FlexiBftReplica::OnPropose(NodeId from, const std::shared_ptr<const FbProposeMsg>& msg) {
  const uint64_t cert_epoch = msg->order_cert.aux;
  if (msg->block == nullptr || cert_epoch < view() ||
      msg->order_cert.sig.signer != LeaderOf(cert_epoch) ||
      msg->order_cert.hash != msg->block->hash ||
      msg->order_cert.view != msg->block->height) {
    return;
  }
  if (!VerifyPlain(msg->order_cert, kFbOrder)) {
    return;
  }
  if (cert_epoch > view()) {
    // Epoch fast-forward: a valid order certificate from the leader of a newer epoch is
    // proof the cluster moved on. This is how a rebooted backup — which by design keeps no
    // durable state — rejoins at the current epoch instead of timing out once per epoch.
    NoteProgress(cert_epoch);
  }
  if (!VoteFor(from, msg->block, msg->block->height > last_voted_seq_)) {
    return;
  }
  last_voted_seq_ = msg->block->height;

  SignedCert vote;
  vote.hash = msg->block->hash;
  vote.view = msg->block->height;
  vote.aux = view();
  SignPlain(vote, kFbVote);
  auto out = std::make_shared<FbVoteMsg>();
  out->vote = vote;
  BroadcastToReplicas(out, /*include_self=*/true);  // All-to-all: the O(n^2) term.
}

void FlexiBftReplica::OnVote(const FbVoteMsg& msg) {
  if (msg.vote.aux != view()) {
    return;
  }
  CountVote(msg.vote.hash, msg.vote.sig.signer, [&] { return VerifyPlain(msg.vote, kFbVote); });
}

MessageRef FlexiBftReplica::MakeEpochChange() {
  last_voted_seq_ = last_committed_height_;
  SignedCert cert;
  cert.hash = last_committed_hash_;
  cert.view = last_committed_height_;
  cert.aux = view();
  SignPlain(cert, kFbEpoch);
  auto msg = std::make_shared<FbEpochChangeMsg>();
  msg->cert = cert;
  msg->committed_block = store_.Get(last_committed_hash_);
  return msg;
}

void FlexiBftReplica::OnEpochChange(const FbEpochChangeMsg& msg) {
  // Keyed by the signer: a forwarded copy counts for whoever signed it, once.
  CollectEpochChange(msg.cert.sig.signer, msg.cert.aux, msg.committed_block,
                     {msg.cert.view, msg.cert.hash, /*voted_epoch=*/0, /*voted_block=*/nullptr},
                     [&] { return VerifyPlain(msg.cert, kFbEpoch); });
}

bool FlexiBftReplica::AdoptEpoch(View epoch, const BlockPtr& base) {
  // The sequencer starts each epoch once, so late epoch-change messages that rebuild a
  // quorum for it elect nobody.
  if (!sequencer_.StartEpoch(epoch, base->height + 1)) {
    return false;
  }
  EnterView(epoch);
  return true;
}

}  // namespace achilles
