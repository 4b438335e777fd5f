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

#include "src/consensus/stable_leader_replica.h"
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

class MinBftReplica : public StableLeaderReplica {
 public:
  MinBftReplica(const ReplicaContext& ctx, bool initial_launch);

 protected:
  void HandleMessage(NodeId from, const MessageRef& msg) override;
  bool OrderBlock(const BlockPtr& block) override;
  MessageRef MakeEpochChange() override;
  bool AdoptEpoch(View epoch, const BlockPtr& base) override;
  BlockPtr VotedAbove(const EpochReports& quorum, Height committed) const override;

 private:
  void OnPrepare(NodeId from, const std::shared_ptr<const MinPrepareMsg>& msg);
  void OnCommit(NodeId from, const MinCommitMsg& msg);
  void OnEpochChange(NodeId from, const MinEpochChangeMsg& msg);

  // Syncs (epoch, voted epoch, voted hash, USIG counter) to the host record store: must
  // precede any message whose UI counter or epoch it reflects.
  void PersistMeta();

  Usig usig_;
  UsigVerifier verifier_;

  // Our own highest commit-phase vote (survives epoch changes; reported in ECs).
  BlockPtr voted_block_;
  uint64_t voted_epoch_ = 0;
  // Epoch of the last epoch-change quorum we acted on, plus one (0 = none). Guards
  // against re-proposing twice in the same epoch when late ECs rebuild a quorum.
  uint64_t ec_done_epoch_plus1_ = 0;
};

}  // namespace achilles

#endif  // SRC_MINBFT_REPLICA_H_
