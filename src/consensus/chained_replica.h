// Untrusted view-change driver shared by the chained, TEE-checked family: Achilles,
// Damysus and OneShot (paper §4 and Appendix A). On top of ReplicaBase's pacemaker it owns
// the view-change steps (timeout, trusted NEW-VIEW, rejoin at boot), NEW-VIEW collection
// into the trusted accumulator, the commit-certificate hand-off to the next leader, both
// proposal triggers, f+1 vote collection, DECIDE with chained commit, and the replay of
// stashed work after a block sync. Each protocol keeps only its own phases and plugs its
// trusted checker and wire messages in through the hooks below.
#ifndef SRC_CONSENSUS_CHAINED_REPLICA_H_
#define SRC_CONSENSUS_CHAINED_REPLICA_H_

#include <map>
#include <optional>
#include <vector>

#include "src/consensus/certificates.h"
#include "src/consensus/replica_base.h"

namespace achilles {

class ChainedReplica : public ReplicaBase {
 protected:
  // Signature domains of the protocol's NEW-VIEW certificates and of its commit votes (the
  // commit certificate a DECIDE carries verifies under the latter).
  struct Domains {
    const char* new_view;
    const char* commit;
  };
  ChainedReplica(const ReplicaContext& ctx, Domains domains);

  // --- Protocol hooks ---
  // False while the replica must not take part: Achilles recovering, a -R replica halted.
  virtual bool Active() const = 0;
  // The trusted checker's view and its NEW-VIEW / ACCUMULATOR / PREPARE calls. Prepare is
  // justified by exactly one of `acc` (NEW-VIEW path) and `commit_cert` (hand-off path).
  virtual View TrustedView() const = 0;
  virtual std::optional<SignedCert> TrustedNewView(View target) = 0;
  virtual std::optional<AccumulatorCert> TrustedAccum(const std::vector<SignedCert>& certs) = 0;
  virtual std::optional<SignedCert> TrustedPrepare(const Block& block, const AccumulatorCert* acc,
                                                   const QuorumCert* commit_cert) = 0;
  // Wire messages (each protocol keeps its own structs and trace names).
  virtual MessageRef MakeNewView(const SignedCert& view_cert) const = 0;
  virtual MessageRef MakePropose(const BlockPtr& block, const SignedCert& block_cert) const = 0;
  virtual MessageRef MakeDecide(QuorumCert commit_cert) const = 0;
  // A verified DECIDE for `block` was just committed (Achilles records recovery state).
  virtual void OnDecided(const BlockPtr& /*block*/, const QuorumCert& /*cert*/) {}

  // --- View change (the pacemaker itself lives in ReplicaBase) ---
  // Jumps the checker to `target` and sends its NEW-VIEW certificate to leader(target).
  void AdvanceViaNewView(View target);
  // Boot with an active checker: genesis enters view 1; a restored view v is journaled and
  // one view is burned past it, since messages may have gone out in v before the crash.
  void RejoinAtTrustedView();
  void OnViewTimeout(View armed) override;
  // Replays stashed proposals and decides, then retries both proposal triggers.
  void OnBlocksSynced() override;

  // --- Shared message handling ---
  // Common gate for a leader proposal `msg` carrying `block` with certificate `cert`: true
  // when the protocol may hand it to its checker. Stashes it while ancestors are missing.
  bool AdmitProposal(NodeId from, const MessageRef& msg, const BlockPtr& block,
                     const SignedCert& cert);
  // Leader: verify, dedup by signer, then propose once f+1 certificates for a view arrive.
  void OnNewView(const SignedCert& view_cert);
  // Leader: vote collection for vote phase `phase` (also the critical-path tag). Verifies
  // `vote` under `domain`, dedups by signer, and returns the f+1 certificate for the
  // proposed block exactly once per view.
  std::optional<QuorumCert> CollectVote(uint32_t phase, const SignedCert& vote,
                                        const char* domain);
  // Any node: verify the commit certificate, commit the chain, hand it to the next leader.
  void OnDecide(NodeId from, const MessageRef& msg, const QuorumCert& cert);

 private:
  static constexpr uint32_t kVotePhases = 2;

  void TryProposeFromCommit(View w);
  void TryProposeFromViewCerts(View w);
  void BuildAndBroadcastProposal(View w, const BlockPtr& parent, const AccumulatorCert* acc,
                                 const QuorumCert* commit_cert);
  void EnterViewAfterCommit(View new_view, const MessageRef& decide, const QuorumCert& cert);

  const Domains domains_;

  // Leader-side collections, pruned together below the current view.
  std::map<View, std::vector<SignedCert>> view_certs_;
  std::map<View, Hash256> proposed_hash_;    // Blocks this node proposed per view.
  std::map<View, QuorumCert> commit_certs_;  // Justifications: cert of view v enables v+1.
  std::map<View, std::vector<SignedCert>> votes_[kVotePhases];
  View quorum_view_[kVotePhases] = {};  // Highest view each phase formed a quorum in.

  // Messages waiting for ancestor synchronization, replayed through HandleMessage.
  std::vector<std::pair<NodeId, MessageRef>> pending_proposals_;
  std::vector<std::pair<NodeId, MessageRef>> pending_decides_;
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_CHAINED_REPLICA_H_
