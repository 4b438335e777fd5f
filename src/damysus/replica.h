// Chained Damysus replica (Appendix A of the Achilles paper): NEW-VIEW, PREPARE (propose +
// first votes), PRE-COMMIT (QC + second votes), DECIDE. Six end-to-end steps vs Achilles'
// four. Its trusted CHECKER (a SealedVoteChecker) tracks the last *prepared* block. With a
// counter-equipped platform this is Damysus-R: every checker mutation stalls on a
// persistent counter write.
#ifndef SRC_DAMYSUS_REPLICA_H_
#define SRC_DAMYSUS_REPLICA_H_

#include <memory>

#include "src/consensus/chained_replica.h"

namespace achilles {

// Damysus' trace names and signing domains, and the slot its checker seals its state in.
inline constexpr ChainedWireSpec kDamysusWire{
    .propose = "dam_propose",
    .vote = "dam_vote1",
    .precommit = "dam_precommit",
    .commit_vote = "dam_vote2",
    .decide = "dam_decide",
    .new_view = "dam_new_view",
    .domains = {.prep = "damysus/PREP",
                .vote1 = "damysus/VOTE1",
                .commit = "damysus/VOTE2",
                .new_view = "damysus/NEW-VIEW",
                .acc = "damysus/ACC"}};
inline constexpr const char* kDamysusSealSlot = "damysus-checker";

class DamysusReplica : public ChainedReplica {
 public:
  DamysusReplica(const ReplicaContext& ctx, bool initial_launch);

  void OnStart() override;

  // True when restore after reboot failed (detected rollback in -R): crash-stop.
  bool halted() const { return checker_ == nullptr; }
  const SealedVoteChecker* checker() const { return checker_.get(); }

  InvariantSnapshot Invariants() const override {
    InvariantSnapshot snap = ReplicaBase::Invariants();
    snap.halted = halted();
    if (checker_ != nullptr) {
      snap.view = checker_->vi();
      snap.trusted_version = checker_->version();
    }
    return snap;
  }

 protected:
  void HandleMessage(NodeId from, const MessageRef& msg) override;

  // ChainedReplica hooks.
  bool Active() const override { return !halted(); }
  View TrustedView() const override { return checker_->vi(); }
  std::optional<SignedCert> TrustedNewView(View target) override {
    return checker_->NewView(target);
  }
  std::optional<AccumulatorCert> TrustedAccum(const std::vector<SignedCert>& certs) override {
    return checker_->Accum(certs);
  }
  std::optional<SignedCert> TrustedPrepare(const Block& block, const AccumulatorCert* acc,
                                           const QuorumCert* commit_qc) override {
    return acc != nullptr ? checker_->PrepareFromAcc(block, *acc)
                          : checker_->PrepareFromCommit(block, *commit_qc, /*aux=*/0);
  }

 private:
  void OnPropose(NodeId from, const std::shared_ptr<const ChainedProposeMsg>& msg);
  void OnPreCommit(NodeId from, const ChainedPreCommitMsg& msg);

  std::unique_ptr<SealedVoteChecker> checker_;
};

}  // namespace achilles

#endif  // SRC_DAMYSUS_REPLICA_H_
