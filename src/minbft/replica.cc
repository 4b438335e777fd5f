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
    : StableLeaderReplica(ctx, initial_launch, kLogWal),
      usig_(&enclave()),
      verifier_(ctx.params.n) {
  if (initial_launch) {
    return;
  }
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
  // Replay the message log so the vote we certified last incarnation is still ours; blocks
  // the restored checkpoint subsumes are committed history.
  BlockPtr tip;
  for (const BlockPtr& block : block_log_->Replay(last_committed_height_, store_)) {
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

void MinBftReplica::HandleMessage(NodeId from, const MessageRef& msg) {
  if (auto prepare = std::dynamic_pointer_cast<const MinPrepareMsg>(msg)) {
    OnPrepare(from, prepare);
  } else if (auto commit = std::dynamic_pointer_cast<const MinCommitMsg>(msg)) {
    OnCommit(from, *commit);
  } else if (auto ec = std::dynamic_pointer_cast<const MinEpochChangeMsg>(msg)) {
    OnEpochChange(from, *ec);
  }
}

bool MinBftReplica::OrderBlock(const BlockPtr& block) {
  AdoptProposal(block);
  auto msg = std::make_shared<MinPrepareMsg>();
  msg->block = block;
  msg->epoch = view();
  msg->ui = usig_.CreateUi(block->hash);  // Counter write #1 on the critical path.
  // Async: PersistMeta()'s sync makes the appended record durable in the same barrier.
  block_log_->Append(*block, storage::SyncMode::kAsync);
  PersistMeta();  // Message log + counter mirror hit disk before the PREPARE leaves.
  BroadcastToReplicas(msg, /*include_self=*/true);
  return true;
}

void MinBftReplica::OnPrepare(NodeId from, const std::shared_ptr<const MinPrepareMsg>& msg) {
  if (msg->block == nullptr || msg->epoch != view() || from != LeaderOf(view())) {
    return;
  }
  if (!usig_.VerifyUi(msg->ui, msg->block->hash)) {
    return;
  }
  // Monotonic acceptance of the leader's UI stream prevents PREPARE equivocation.
  if (!verifier_.AcceptMonotonic(from, msg->ui)) {
    return;
  }
  if (!VoteFor(from, msg->block, /*may_vote=*/true)) {
    return;
  }
  voted_block_ = msg->block;  // Latest vote supersedes; reported in epoch changes.
  voted_epoch_ = view();

  auto out = std::make_shared<MinCommitMsg>();
  out->block_hash = msg->block->hash;
  out->epoch = view();
  // Certify the commit with our own USIG: counter write #2 on the critical path (every
  // backup pays it). Leader-side equivocation is excluded by the leader's UI stream.
  out->ui = usig_.CreateUi(msg->block->hash);
  block_log_->Append(*msg->block, storage::SyncMode::kAsync);
  PersistMeta();  // The vote (and its UI counter) must survive a reboot.
  BroadcastToReplicas(out, /*include_self=*/true);  // All-to-all: O(n^2).
}

void MinBftReplica::OnCommit(NodeId from, const MinCommitMsg& msg) {
  if (msg.epoch != view()) {
    return;
  }
  CountVote(msg.block_hash, from, [&] {
    // A sender's UI counter only rises, so each COMMIT counts once.
    return msg.ui.sig.signer == from && usig_.VerifyUi(msg.ui, msg.block_hash) &&
           verifier_.AcceptMonotonic(from, msg.ui);
  });
}

MessageRef MinBftReplica::MakeEpochChange() {
  PersistMeta();  // The epoch bump must survive a reboot (no replayed-epoch votes).
  auto msg = std::make_shared<MinEpochChangeMsg>();
  msg->new_epoch = view();
  msg->committed_height = last_committed_height_;
  msg->committed_hash = last_committed_hash_;
  msg->committed_block = store_.Get(last_committed_hash_);
  msg->voted_epoch = voted_epoch_;
  msg->voted_block = voted_block_;
  return msg;
}

void MinBftReplica::OnEpochChange(NodeId from, const MinEpochChangeMsg& msg) {
  // Unsigned, so keyed by the sending replica. Late messages for an epoch this replica was
  // already elected in are dropped before they can rebuild a quorum and re-propose.
  CollectEpochChange(
      from, msg.new_epoch, msg.committed_block,
      {msg.committed_height, msg.committed_hash, msg.voted_epoch, msg.voted_block},
      [&] { return msg.new_epoch + 1 > ec_done_epoch_plus1_; });
}

bool MinBftReplica::AdoptEpoch(View epoch, const BlockPtr& /*base*/) {
  if (EnterView(epoch)) {
    PersistMeta();  // Adopted epoch must survive a reboot.
  }
  ec_done_epoch_plus1_ = epoch + 1;
  return true;
}

BlockPtr MinBftReplica::VotedAbove(const EpochReports& quorum, Height committed) const {
  // Our own vote participates alongside the quorum's reports.
  uint64_t best_epoch = voted_epoch_;
  BlockPtr best = voted_block_;
  for (const auto& [node, reported] : quorum) {
    if (reported.voted_block != nullptr &&
        (best == nullptr || std::pair(reported.voted_epoch, reported.voted_block->height) >
                                std::pair(best_epoch, best->height))) {
      best_epoch = reported.voted_epoch;
      best = reported.voted_block;
    }
  }
  // A vote beyond the committed prefix may back a block that already gathered a commit
  // quorum somewhere: the new leader re-proposes that exact block rather than forking past
  // it.
  return best != nullptr && best->height > committed ? best : nullptr;
}

}  // namespace achilles
