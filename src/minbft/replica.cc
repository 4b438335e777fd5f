#include "src/minbft/replica.h"

#include <algorithm>
#include <utility>

#include "src/common/serde.h"

namespace achilles {

namespace {
constexpr const char* kMetaKey = "minbft-meta";
constexpr const char* kLogWal = "minbft-log";
}  // namespace

MinBftReplica::MinBftReplica(const ReplicaContext& ctx, bool initial_launch)
    : ReplicaBase(ctx),
      initial_launch_(initial_launch),
      usig_(&enclave()),
      verifier_(ctx.params.n) {
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

void MinBftReplica::RestoreDurableState() {
  Hash256 voted_hash = ZeroHash();
  if (const std::optional<Bytes> meta = HostRecords().Get(kMetaKey)) {
    ByteReader r(ByteView(meta->data(), meta->size()));
    const auto epoch = r.U64();
    const auto voted_epoch = r.U64();
    const auto hash = r.Raw(32);
    const auto usig_counter = r.U64();
    if (epoch && voted_epoch && hash && usig_counter && r.remaining() == 0) {
      RestoreView(*epoch);
      voted_epoch_ = *voted_epoch;
      std::copy(hash->begin(), hash->end(), voted_hash.begin());
      usig_.ResumeFrom(*usig_counter);
    }
  }
  // The counter device outlives the crash and is authoritative when enabled: reading it
  // back (and paying the read latency) is MinBFT's reboot path. The persisted mirror above
  // covers counter-less configurations.
  MonotonicCounter& counter = platform().counter();
  if (counter.spec().enabled()) {
    usig_.ResumeFrom(counter.ReadBlocking());
  }
  // Replay the message log so the vote we certified last incarnation is still ours.
  BlockPtr tip;
  for (const Bytes& record : Wal(kLogWal).records()) {
    const BlockPtr block = DecodeBlockRecord(ByteView(record.data(), record.size()));
    if (block == nullptr) {
      continue;  // Torn/unfinished record: everything after it is gone anyway.
    }
    logged_.insert(block->hash);  // Still durable: re-deliveries must not re-append.
    if (block->height <= last_committed_height_) {
      continue;  // Subsumed by the restored checkpoint; its vote is committed history.
    }
    store_.Add(block);
    if (block->hash == voted_hash) {
      voted_block_ = block;
    }
    if (tip == nullptr || block->height >= tip->height) {
      tip = block;  // >=: the later append wins ties across epoch changes.
    }
  }
  // The log tip, not the restored vote, seeds the proposal chain. A leader that crashed
  // after logging and broadcasting a proposal but before its own loopback PREPARE landed
  // has the proposal in the WAL while the persisted vote still names its parent;
  // re-proposing from the vote would mint a second block at an already-broadcast height.
  if (tip != nullptr) {
    last_proposed_ = tip;
  }
}

void MinBftReplica::PersistMeta() {
  ByteWriter w;
  w.U64(view());
  w.U64(voted_epoch_);
  const Hash256 voted_hash = voted_block_ != nullptr ? voted_block_->hash : ZeroHash();
  w.Raw(ByteView(voted_hash.data(), voted_hash.size()));
  w.U64(usig_.counter());
  HostRecords().Put(kMetaKey, ByteView(w.bytes().data(), w.bytes().size()));
}

void MinBftReplica::AppendToLog(const BlockPtr& block) {
  if (!logged_.insert(block->hash).second) {
    return;  // Already durable (re-proposal across epochs); no second append.
  }
  const Bytes record = EncodeBlockRecord(*block);
  // Async: every call site follows with PersistMeta(), whose sync makes the appended
  // record durable in the same barrier (one disk, one fsync).
  Wal(kLogWal).Append(ByteView(record.data(), record.size()), storage::SyncMode::kAsync);
}

void MinBftReplica::OnStart() {
  JournalEvent(obs::JournalKind::kViewEnter, view());
  ArmViewTimer();
  if (LeaderOfEpoch(view()) == id()) {
    host().SetTimer(Ms(1), [this] { TryPropose(); });
  }
}

void MinBftReplica::HandleMessage(NodeId from, const MessageRef& msg) {
  if (auto prepare = std::dynamic_pointer_cast<const MinPrepareMsg>(msg)) {
    OnPrepare(from, prepare);
  } else if (auto commit = std::dynamic_pointer_cast<const MinCommitMsg>(msg)) {
    OnCommit(from, *commit);
  } else if (auto ec = std::dynamic_pointer_cast<const MinEpochChangeMsg>(msg)) {
    OnEpochChange(from, *ec);
  }
}

void MinBftReplica::TryPropose() {
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
  ProposeBlock(block);
}

void MinBftReplica::ProposeBlock(const BlockPtr& block) {
  proposal_outstanding_ = true;
  last_proposed_ = block;
  store_.Add(block);
  MarkProposed(block);
  auto msg = std::make_shared<MinPrepareMsg>();
  msg->block = block;
  msg->epoch = view();
  msg->ui = usig_.CreateUi(block->hash);  // Counter write #1 on the critical path.
  AppendToLog(block);
  PersistMeta();  // Message log + counter mirror hit disk before the PREPARE leaves.
  BroadcastToReplicas(msg, /*include_self=*/true);
}

void MinBftReplica::OnPrepare(NodeId from, const std::shared_ptr<const MinPrepareMsg>& msg) {
  if (msg->block == nullptr || msg->epoch != view() || from != LeaderOfEpoch(view())) {
    return;
  }
  if (!usig_.VerifyUi(msg->ui, msg->block->hash)) {
    return;
  }
  // Monotonic acceptance of the leader's UI stream prevents PREPARE equivocation.
  if (!verifier_.AcceptMonotonic(from, msg->ui)) {
    return;
  }
  if (!AcceptBlock(msg->block) || !EnsureAncestry(msg->block->hash, from)) {
    return;
  }
  Candidate& cand = candidates_[msg->block->hash];
  cand.block = msg->block;
  if (cand.self_committed) {
    return;
  }
  cand.self_committed = true;
  voted_block_ = msg->block;  // Latest vote supersedes; reported in epoch changes.
  voted_epoch_ = view();
  NoteProgress(view());

  auto out = std::make_shared<MinCommitMsg>();
  out->block_hash = msg->block->hash;
  out->epoch = view();
  // Certify the commit with our own USIG: counter write #2 on the critical path (every
  // backup pays it). Leader-side equivocation is excluded by the leader's UI stream.
  out->ui = usig_.CreateUi(msg->block->hash);
  AppendToLog(msg->block);
  PersistMeta();  // The vote (and its UI counter) must survive a reboot.
  BroadcastToReplicas(out, /*include_self=*/true);  // All-to-all: O(n^2).
}

void MinBftReplica::OnCommit(NodeId from, const MinCommitMsg& msg) {
  if (msg.epoch != view()) {
    return;
  }
  Candidate& cand = candidates_[msg.block_hash];
  if (cand.committed) {
    return;
  }
  if (msg.ui.sig.signer != from || !usig_.VerifyUi(msg.ui, msg.block_hash)) {
    return;
  }
  if (!verifier_.AcceptMonotonic(from, msg.ui)) {
    return;
  }
  cand.commits.insert(from);
  CritNote(0, JournalHash(msg.block_hash));
  TryFinalize(msg.block_hash);
}

void MinBftReplica::TryFinalize(const Hash256& hash) {
  auto it = candidates_.find(hash);
  if (it == candidates_.end() || it->second.committed || it->second.block == nullptr ||
      it->second.commits.size() < quorum()) {  // f+1 of 2f+1.
    return;
  }
  if (!EnsureAncestry(hash, LeaderOfEpoch(view()))) {
    return;
  }
  it->second.committed = true;
  CritJoin(0, JournalHash(hash));
  const bool was_last_proposed = it->second.block == last_proposed_;
  const size_t cert_wire = it->second.commits.size() * (4 + 64);
  CommitChain(it->second.block, cert_wire);
  NoteProgress(view());
  std::erase_if(candidates_, [this](const auto& entry) {
    return entry.second.block != nullptr &&
           entry.second.block->height + 8 < last_committed_height_;
  });
  if (LeaderOfEpoch(view()) == id() && was_last_proposed) {
    proposal_outstanding_ = false;
    TryPropose();
  }
}

void MinBftReplica::OnViewTimeout(View /*armed*/) {
  EnterView(NoteTimeout());
  PersistMeta();  // The epoch bump must survive a reboot (no replayed-epoch votes).
  proposal_outstanding_ = false;
  candidates_.clear();
  ArmViewTimer();
  auto msg = std::make_shared<MinEpochChangeMsg>();
  msg->new_epoch = view();
  msg->committed_height = last_committed_height_;
  msg->committed_hash = last_committed_hash_;
  msg->committed_block = store_.Get(last_committed_hash_);
  msg->voted_epoch = voted_epoch_;
  msg->voted_block = voted_block_;
  BroadcastToReplicas(msg, /*include_self=*/true);
}

void MinBftReplica::OnEpochChange(NodeId from, const MinEpochChangeMsg& msg) {
  if (msg.new_epoch < view() || LeaderOfEpoch(msg.new_epoch) != id() ||
      msg.new_epoch + 1 <= ec_done_epoch_plus1_) {
    return;
  }
  if (msg.committed_block != nullptr) {
    AcceptBlock(msg.committed_block);
  }
  if (msg.voted_block != nullptr) {
    AcceptBlock(msg.voted_block);
  }
  auto& collected = epoch_msgs_[msg.new_epoch];
  collected[from] = {msg.committed_height, msg.committed_hash, msg.voted_epoch,
                     msg.voted_block};
  if (collected.size() < quorum()) {
    return;
  }
  Height best_height = last_committed_height_;
  Hash256 best_hash = last_committed_hash_;
  // Our own state participates alongside the quorum's reports.
  uint64_t best_voted_epoch = voted_epoch_;
  BlockPtr best_voted = voted_block_;
  for (const auto& [node, info] : collected) {
    if (info.committed_height > best_height) {
      best_height = info.committed_height;
      best_hash = info.committed_hash;
    }
    if (info.voted_block != nullptr &&
        (best_voted == nullptr ||
         std::pair(info.voted_epoch, info.voted_block->height) >
             std::pair(best_voted_epoch, best_voted->height))) {
      best_voted_epoch = info.voted_epoch;
      best_voted = info.voted_block;
    }
  }
  const BlockPtr base = store_.Get(best_hash);
  if (base == nullptr) {
    return;
  }
  if (EnterView(msg.new_epoch)) {
    PersistMeta();  // Adopted epoch must survive a reboot.
  }
  JournalEvent(obs::JournalKind::kLeaderElected, view(), id());
  ec_done_epoch_plus1_ = view() + 1;
  last_proposed_ = base;
  proposal_outstanding_ = false;
  candidates_.clear();
  epoch_msgs_.erase(epoch_msgs_.begin(), epoch_msgs_.upper_bound(msg.new_epoch));
  ArmBaseTimeout();
  if (best_voted != nullptr && best_voted->height > best_height) {
    // A vote beyond the committed prefix may back a block that already gathered a commit
    // quorum somewhere: re-propose that exact block rather than forking past it.
    ProposeBlock(best_voted);
  } else {
    TryPropose();
  }
}

void MinBftReplica::OnStableCheckpoint(const checkpoint::CheckpointCert& cert) {
  ReplicaBase::OnStableCheckpoint(cert);
  // Compact the message log: every record at or below the certified boundary is
  // committed history the checkpoint now vouches for. The scan stops at the first
  // record beyond the boundary so later out-of-order appends are never dropped.
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

void MinBftReplica::OnBlocksSynced() {
  std::vector<Hash256> ready;
  for (const auto& [hash, cand] : candidates_) {
    if (!cand.committed && cand.commits.size() >= quorum()) {
      ready.push_back(hash);
    }
  }
  for (const Hash256& hash : ready) {
    TryFinalize(hash);
  }
}

}  // namespace achilles
