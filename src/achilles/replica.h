// The Achilles replica: one-phase normal case with chained commit rules (Algorithm 1) and
// the rollback-resilient recovery driver (Algorithm 3). Trusted decisions live in
// AchillesChecker. ChainedReplica drives the view change, vote collection and DECIDE; this
// class adds the one-phase store and the recovery driver.
#ifndef SRC_ACHILLES_REPLICA_H_
#define SRC_ACHILLES_REPLICA_H_

#include <map>
#include <vector>

#include "src/achilles/checker.h"
#include "src/achilles/messages.h"
#include "src/consensus/chained_replica.h"

namespace achilles {

// Achilles' trace names and signing domains (one vote phase: no first-phase vote or
// PRE-COMMIT).
inline constexpr ChainedWireSpec kAchillesWire{
    .propose = "ach_propose",
    .vote = nullptr,
    .precommit = nullptr,
    .commit_vote = "ach_vote",
    .decide = "ach_decide",
    .new_view = "ach_new_view",
    .domains = {.prep = kAchProp,
                .vote1 = nullptr,
                .commit = kAchCommit,
                .new_view = kAchNewView,
                .acc = kAchAcc}};

class AchillesReplica : public ChainedReplica {
 public:
  // `initial_launch` must be true only for the genesis incarnation of the node; reboots
  // construct with false, which starts the replica in recovery.
  AchillesReplica(const ReplicaContext& ctx, bool initial_launch);

  void OnStart() override;

  // Introspection (tests/harness).
  bool recovering() const { return checker_.recovering(); }
  const AchillesChecker& checker() const { return checker_; }
  SimTime recovery_completed_at() const { return recovery_completed_at_; }
  // Nonce carried by the replies the last completed recovery actually consumed (the
  // chaos freshness oracle compares it against the final TeeRequest nonce on the wire).
  uint64_t recovery_completed_nonce() const { return recovery_completed_nonce_; }

  InvariantSnapshot Invariants() const override {
    InvariantSnapshot snap = ReplicaBase::Invariants();
    snap.view = checker_.vi();
    snap.recovering = checker_.recovering();
    snap.trusted_version = checker_.version();  // 0 under --defense local.
    return snap;
  }

 protected:
  void HandleMessage(NodeId from, const MessageRef& msg) override;
  void OnBlocksSynced() override;

  // ChainedReplica hooks.
  bool Active() const override { return !checker_.recovering(); }
  View TrustedView() const override { return checker_.vi(); }
  std::optional<SignedCert> TrustedNewView(View target) override {
    return checker_.TeeView(target);
  }
  std::optional<AccumulatorCert> TrustedAccum(const std::vector<SignedCert>& certs) override {
    return checker_.TeeAccum(certs);
  }
  std::optional<SignedCert> TrustedPrepare(const Block& block, const AccumulatorCert* acc,
                                           const QuorumCert* commit_cert) override {
    return acc != nullptr ? checker_.TeePrepare(block, *acc)
                          : checker_.TeePrepare(block, *commit_cert);
  }
  void OnDecided(const BlockPtr& block, const QuorumCert& cert) override;

 private:
  struct StoredBlock {
    BlockPtr block;
    SignedCert block_cert;
    QuorumCert commit_cert;
  };

  void OnPropose(NodeId from, const std::shared_ptr<const ChainedProposeMsg>& msg);
  void OnRecoveryRequest(NodeId from, const AchRecoveryRequestMsg& msg);
  void OnRecoveryReply(NodeId from, const AchRecoveryReplyMsg& msg);

  // Recovery driver.
  void StartRecoveryRound();
  void TryFinishRecovery();

  AchillesChecker checker_;
  StoredBlock preb_;  // Latest stored block from a leader (Algorithm 1 line 3).
  StoredBlock latest_committed_;  // Latest block committed with its certificate.

  // Recovery state (untrusted side).
  std::vector<SignedCert> recovery_replies_;
  struct RecoveredCerts {
    SignedCert block_cert;
    QuorumCert commit_cert;
  };
  std::unordered_map<Hash256, RecoveredCerts, Hash256Hasher> recovered_certs_;
  StoredBlock best_recovery_checkpoint_;   // Highest certified committed block seen.
  std::map<NodeId, NodeId> reply_source_;  // Reply signer -> host that sent it (for sync).
  uint64_t last_request_nonce_ = 0;        // Pre-filter for superseded reply rounds.
  SimTime recovery_completed_at_ = -1;
  uint64_t recovery_completed_nonce_ = 0;
};

}  // namespace achilles

#endif  // SRC_ACHILLES_REPLICA_H_
