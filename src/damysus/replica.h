// Chained Damysus replica (Appendix A of the Achilles paper): NEW-VIEW, PREPARE (propose +
// first votes), PRE-COMMIT (QC + second votes), DECIDE. Six end-to-end steps vs Achilles'
// four. With a counter-equipped platform this is Damysus-R: every checker mutation stalls
// on a persistent counter write.
#ifndef SRC_DAMYSUS_REPLICA_H_
#define SRC_DAMYSUS_REPLICA_H_

#include <memory>

#include "src/consensus/chained_replica.h"
#include "src/damysus/checker.h"
#include "src/damysus/messages.h"

namespace achilles {

class DamysusReplica : public ChainedReplica {
 public:
  DamysusReplica(const ReplicaContext& ctx, bool initial_launch);

  void OnStart() override;

  // True when restore after reboot failed (detected rollback in -R): crash-stop.
  bool halted() const { return checker_ == nullptr; }
  const DamysusChecker* checker() const { return checker_.get(); }

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
    return checker_->TdNewView(target);
  }
  std::optional<AccumulatorCert> TrustedAccum(const std::vector<SignedCert>& certs) override {
    return checker_->TdAccum(certs);
  }
  std::optional<SignedCert> TrustedPrepare(const Block& block, const AccumulatorCert* acc,
                                           const QuorumCert* commit_qc) override {
    return acc != nullptr ? checker_->TdPrepare(block, *acc)
                          : checker_->TdPrepare(block, *commit_qc);
  }
  MessageRef MakeNewView(const SignedCert& view_cert) const override;
  MessageRef MakePropose(const BlockPtr& block, const SignedCert& prep_cert) const override;
  MessageRef MakeDecide(QuorumCert commit_qc) const override;

 private:
  void OnPropose(NodeId from, const std::shared_ptr<const DamProposeMsg>& msg);
  void OnPreCommit(NodeId from, const DamPreCommitMsg& msg);

  std::unique_ptr<DamysusChecker> checker_;
};

}  // namespace achilles

#endif  // SRC_DAMYSUS_REPLICA_H_
