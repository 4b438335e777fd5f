// Untrusted view-change driver shared by the chained, TEE-checked family: Achilles,
// Damysus and OneShot (paper §4 and Appendix A). On top of ReplicaBase's pacemaker it owns
// the view-change steps (timeout, trusted NEW-VIEW, rejoin at boot), NEW-VIEW collection
// into the trusted accumulator, the commit-certificate hand-off to the next leader, both
// proposal triggers, f+1 vote collection, DECIDE with chained commit, and the replay of
// stashed work after a block sync. The three protocols share the phase messages below and
// keep their own trace names and signing domains (their ChainedWireSpec); each keeps only
// its own phases and plugs its trusted checker in through the hooks.
#ifndef SRC_CONSENSUS_CHAINED_REPLICA_H_
#define SRC_CONSENSUS_CHAINED_REPLICA_H_

#include <map>
#include <optional>
#include <vector>

#include "src/consensus/certificates.h"
#include "src/consensus/checker_core.h"
#include "src/consensus/replica_base.h"

namespace achilles {

// One protocol's wire format: the trace name of each phase message and the signing domain
// of each certificate kind. One-phase Achilles leaves `vote` and `precommit` null.
struct ChainedWireSpec {
  const char* propose;
  const char* vote;         // First-phase vote.
  const char* precommit;
  const char* commit_vote;  // The vote whose f+1 signatures form the commit certificate.
  const char* decide;
  const char* new_view;
  ChainedDomains domains;
};

// --- Phase messages (each returns the trace name it was built with) ---

// Leader -> all: a block with the leader's block certificate. For Achilles the certificate
// is the whole justification (TEEprepare enforced parent selection); OneShot marks its
// fast path with aux == 1.
struct ChainedProposeMsg : SimMessage {
  ChainedProposeMsg(const char* name, BlockPtr proposed, const SignedCert& block_cert)
      : trace_name(name), block(std::move(proposed)), cert(block_cert) {}
  const char* TraceName() const override { return trace_name; }
  size_t WireSize() const override { return block->WireSize() + cert.WireSize(); }
  const char* trace_name;
  BlockPtr block;
  SignedCert cert;
};

// Backup -> leader: a first-phase vote (Damysus, OneShot's slow path).
struct ChainedVoteMsg : SimMessage {
  ChainedVoteMsg(const char* name, const SignedCert& vote) : trace_name(name), cert(vote) {}
  const char* TraceName() const override { return trace_name; }
  size_t WireSize() const override { return cert.WireSize(); }
  const char* trace_name;
  SignedCert cert;
};

// Backup -> leader: a commit vote (Achilles' store certificate, Damysus' second-phase
// vote, OneShot's fast store or slow second-phase vote).
struct ChainedCommitVoteMsg : SimMessage {
  ChainedCommitVoteMsg(const char* name, const SignedCert& vote)
      : trace_name(name), cert(vote) {}
  const char* TraceName() const override { return trace_name; }
  size_t WireSize() const override { return cert.WireSize(); }
  const char* trace_name;
  SignedCert cert;
};

// Leader -> all: the prepared QC (f+1 first-phase votes).
struct ChainedPreCommitMsg : SimMessage {
  ChainedPreCommitMsg(const char* name, QuorumCert prepared_qc)
      : trace_name(name), qc(std::move(prepared_qc)) {}
  const char* TraceName() const override { return trace_name; }
  size_t WireSize() const override { return qc.WireSize(); }
  const char* trace_name;
  QuorumCert qc;
};

// Leader -> all (and every node -> next leader): the commit certificate.
struct ChainedDecideMsg : SimMessage {
  ChainedDecideMsg(const char* name, QuorumCert commit_qc)
      : trace_name(name), qc(std::move(commit_qc)) {}
  const char* TraceName() const override { return trace_name; }
  size_t WireSize() const override { return qc.WireSize(); }
  const char* trace_name;
  QuorumCert qc;
};

// Node -> leader of the new view: the trusted NEW-VIEW certificate.
struct ChainedNewViewMsg : SimMessage {
  ChainedNewViewMsg(const char* name, const SignedCert& view_cert)
      : trace_name(name), cert(view_cert) {}
  const char* TraceName() const override { return trace_name; }
  size_t WireSize() const override { return cert.WireSize(); }
  const char* trace_name;
  SignedCert cert;
};

class ChainedReplica : public ReplicaBase {
 protected:
  // `wire` must outlive the replica (each protocol passes its constant spec).
  ChainedReplica(const ReplicaContext& ctx, const ChainedWireSpec& wire);

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
  // Leader: a first-phase vote (Damysus, OneShot); f+1 of them go out in PRE-COMMIT.
  void OnFirstVote(const SignedCert& vote);
  // Leader: a commit vote of vote phase `phase` (0 in Achilles, 1 in Damysus and OneShot);
  // f+1 of them go out as the commit certificate in DECIDE.
  void OnCommitVote(uint32_t phase, const SignedCert& vote);
  // Any node: verify the commit certificate, commit the chain, hand it to the next leader.
  void OnDecide(NodeId from, const MessageRef& msg, const QuorumCert& cert);

 private:
  static constexpr uint32_t kVotePhases = 2;

  // Vote collection for vote phase `phase` (also the critical-path tag). Verifies `vote`
  // under `domain`, dedups by signer, and returns the f+1 certificate for the proposed
  // block exactly once per view.
  std::optional<QuorumCert> CollectVote(uint32_t phase, const SignedCert& vote,
                                        const char* domain);

  void TryProposeFromCommit(View w);
  void TryProposeFromViewCerts(View w);
  void BuildAndBroadcastProposal(View w, const BlockPtr& parent, const AccumulatorCert* acc,
                                 const QuorumCert* commit_cert);
  void EnterViewAfterCommit(View new_view, const MessageRef& decide, const QuorumCert& cert);

  const ChainedWireSpec& wire_;

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
