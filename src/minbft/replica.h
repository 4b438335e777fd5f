// MinBFT (Veronese et al., IEEE ToC 2013) — the classic USIG-based TEE-BFT the Achilles
// paper positions itself against (§2.2): n = 2f+1, PBFT-style PREPARE + all-to-all COMMIT
// (O(n²)), every certified message writes the persistent counter. Four steps end to end,
// but with two counter-write stalls on the critical path (leader PREPARE + backup COMMIT).
//
// Stable storage per the MinBFT paper (§IV, "message log"): every block this replica
// certifies a UI for (its own proposals and its PREPARE votes) goes to a host WAL, and the
// (epoch, voted epoch, voted hash, USIG counter) tuple goes to the record store, both
// fsynced before the certified message leaves the node. On reboot the constructor replays
// the log and resumes the USIG from max(device counter, persisted mirror), so a restarted
// replica can neither reissue a counter value nor forget a vote it already certified.
#ifndef SRC_MINBFT_REPLICA_H_
#define SRC_MINBFT_REPLICA_H_

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "src/consensus/replica_base.h"
#include "src/minbft/usig.h"
#include "src/sim/process.h"

namespace achilles {

struct MinPrepareMsg : SimMessage {
  const char* TraceName() const override { return "min_prepare"; }
  BlockPtr block;
  uint64_t epoch = 0;
  UniqueIdentifier ui;  // Leader's UI over the block hash.
  size_t WireSize() const override { return block->WireSize() + 8 + ui.WireSize(); }
};

struct MinCommitMsg : SimMessage {
  const char* TraceName() const override { return "min_commit"; }
  Hash256 block_hash = ZeroHash();
  uint64_t epoch = 0;
  UniqueIdentifier ui;  // Sender's UI over the (block hash, leader UI counter) pair.
  size_t WireSize() const override { return 32 + 8 + ui.WireSize(); }
};

struct MinEpochChangeMsg : SimMessage {
  const char* TraceName() const override { return "min_epoch_change"; }
  uint64_t new_epoch = 0;
  Height committed_height = 0;
  Hash256 committed_hash = ZeroHash();
  BlockPtr committed_block;
  // Highest block this replica COMMIT-voted for and the epoch of that vote. A block with a
  // commit quorum is known (voted) by at least one member of any f+1 epoch-change quorum,
  // so the new leader can re-propose it instead of forking past it (PBFT view-change rule;
  // the chaos swarm found the fork when only committed prefixes were exchanged).
  uint64_t voted_epoch = 0;
  BlockPtr voted_block;
  size_t WireSize() const override {
    return 8 + 8 + 32 + 8 + (committed_block != nullptr ? committed_block->WireSize() : 0) +
           (voted_block != nullptr ? voted_block->WireSize() : 0);
  }
};

class MinBftReplica : public ReplicaBase {
 public:
  MinBftReplica(const ReplicaContext& ctx, bool initial_launch);

  void OnStart() override;

 protected:
  void HandleMessage(NodeId from, const MessageRef& msg) override;
  void OnViewTimeout(View armed) override;
  void OnBlocksSynced() override;
  // Log compaction: drops the message-log prefix a stable checkpoint subsumes.
  void OnStableCheckpoint(const checkpoint::CheckpointCert& cert) override;

 private:
  void TryPropose();
  void ProposeBlock(const BlockPtr& block);
  void OnPrepare(NodeId from, const std::shared_ptr<const MinPrepareMsg>& msg);
  void OnCommit(NodeId from, const MinCommitMsg& msg);
  void OnEpochChange(NodeId from, const MinEpochChangeMsg& msg);
  void TryFinalize(const Hash256& hash);
  NodeId LeaderOfEpoch(uint64_t epoch) const { return static_cast<NodeId>(epoch % n()); }

  // Syncs (epoch, voted epoch, voted hash, USIG counter) to the host record store: must
  // precede any message whose UI counter or epoch it reflects.
  void PersistMeta();
  // Appends `block` to the durable message log with an fsync, once per block per
  // incarnation.
  void AppendToLog(const BlockPtr& block);
  void RestoreDurableState();

  bool initial_launch_;
  Usig usig_;
  UsigVerifier verifier_;

  BlockPtr last_proposed_;
  bool proposal_outstanding_ = false;

  struct Candidate {
    BlockPtr block;
    std::set<NodeId> commits;
    bool committed = false;
    bool self_committed = false;
  };
  std::unordered_map<Hash256, Candidate, Hash256Hasher> candidates_;
  // Blocks already in the durable message log (rebuilt from the WAL on reboot).
  std::unordered_set<Hash256, Hash256Hasher> logged_;
  struct EpochInfo {
    Height committed_height = 0;
    Hash256 committed_hash = ZeroHash();
    uint64_t voted_epoch = 0;
    BlockPtr voted_block;
  };
  std::map<uint64_t, std::map<NodeId, EpochInfo>> epoch_msgs_;

  // Our own highest commit-phase vote (survives epoch changes; reported in ECs).
  BlockPtr voted_block_;
  uint64_t voted_epoch_ = 0;
  // Epoch of the last epoch-change quorum we acted on, plus one (0 = none). Guards
  // against re-proposing twice in the same epoch when late ECs rebuild a quorum.
  uint64_t ec_done_epoch_plus1_ = 0;
};

}  // namespace achilles

#endif  // SRC_MINBFT_REPLICA_H_
