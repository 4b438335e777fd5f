// Untrusted epoch driver shared by the stable-leader baselines, FlexiBFT and MinBFT (paper
// §2.2, Fig. 4). The leader of epoch e (ReplicaBase::LeaderOf) proposes back to back, every
// replica broadcasts one vote per block, n - f distinct voters commit the chain, and an
// expired timer moves everyone to the next epoch, whose leader resumes from the best
// committed block a quorum of epoch-change messages reports. Each protocol keeps its wire
// messages, its trusted component (FlexiBFT's sequencer, MinBFT's USIG) and its durable
// state, and plugs them in through the hooks below.
#ifndef SRC_CONSENSUS_STABLE_LEADER_REPLICA_H_
#define SRC_CONSENSUS_STABLE_LEADER_REPLICA_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "src/consensus/replica_base.h"

namespace achilles {

class StableLeaderReplica : public ReplicaBase {
 public:
  // Journals the starting epoch, arms the timer and starts the leader's proposal loop.
  void OnStart() override;

 protected:
  // Opens the protocol's block log (host WAL `log_name`). A rebooted replica restores its
  // stable checkpoint first: that sets the committed floor the protocol's log replay
  // filters against, and seeds the proposal chain if the whole log was compacted away.
  StableLeaderReplica(const ReplicaContext& ctx, bool initial_launch,
                      const std::string& log_name);

  // One epoch-change report: the sender's committed prefix and, in MinBFT, its highest
  // vote and that vote's epoch.
  struct EpochReport {
    Height committed_height = 0;
    Hash256 committed_hash = ZeroHash();
    uint64_t voted_epoch = 0;
    BlockPtr voted_block;
  };
  using EpochReports = std::map<NodeId, EpochReport>;

  // --- Protocol hooks ---
  // Orders `block` through the trusted component, calls AdoptProposal and broadcasts it.
  // False when the component refused; the leader retries in 1 ms.
  virtual bool OrderBlock(const BlockPtr& block) = 0;
  // Timeout: view() has just risen to the next epoch. Updates the protocol's per-epoch
  // state and returns the epoch-change message announcing view().
  virtual MessageRef MakeEpochChange() = 0;
  // Election: moves this leader into `epoch`, whose first block extends `base`. False when
  // the trusted component refuses, which ends the election.
  virtual bool AdoptEpoch(View epoch, const BlockPtr& base) = 0;
  // Election: a voted block above the quorum's best committed height, which the new leader
  // re-proposes instead of forking past it; nullptr for none.
  virtual BlockPtr VotedAbove(const EpochReports& /*quorum*/, Height /*committed*/) const {
    return nullptr;
  }

  // --- Shared steps ---
  // Leader: the block now outstanding (store, journal, latency attribution).
  void AdoptProposal(const BlockPtr& block);
  // Backup: admits `block` from `leader` as a candidate once its ancestry is available.
  // True iff `may_vote` and this replica had not voted for it: it now has, and that counts
  // as progress in view().
  bool VoteFor(NodeId leader, const BlockPtr& block, bool may_vote);
  // Counts a vote for `hash` once per voter, unless the block already committed or
  // `authentic` (the protocol's check, run only then) fails; commits at n - f voters.
  void CountVote(const Hash256& hash, NodeId voter, const std::function<bool()>& authentic);
  // Leader-to-be: records `sender`'s report for `target` (and accepts the blocks it
  // carries) if this replica leads `target`, is not past it, and `admit` (the protocol's
  // check, run only then) passes. At n - f reports, adopts the epoch and proposes from the
  // best committed block reported.
  void CollectEpochChange(NodeId sender, View target, const BlockPtr& committed_block,
                          EpochReport report, const std::function<bool()>& admit);

  void OnViewTimeout(View armed) override;
  void OnBlocksSynced() override;

  BlockPtr last_proposed_;  // Leader: the chain tip new blocks extend.

 private:
  struct Candidate {
    BlockPtr block;
    std::set<NodeId> voters;
    bool voted = false;  // This replica voted for it.
    bool committed = false;
  };

  void TryPropose();
  void TryCommit(const Hash256& hash);

  bool proposal_outstanding_ = false;
  std::unordered_map<Hash256, Candidate, Hash256Hasher> candidates_;
  std::map<View, EpochReports> epoch_msgs_;
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_STABLE_LEADER_REPLICA_H_
