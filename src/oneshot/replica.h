// OneShot replica: four communication steps on the piggyback fast path (previous view
// committed), six on the NEW-VIEW slow path. With a counter-equipped platform this is
// OneShot-R (1 write per node per fast view, 2 otherwise).
#ifndef SRC_ONESHOT_REPLICA_H_
#define SRC_ONESHOT_REPLICA_H_

#include <memory>

#include "src/consensus/chained_replica.h"
#include "src/oneshot/checker.h"
#include "src/oneshot/messages.h"

namespace achilles {

class OneShotReplica : public ChainedReplica {
 public:
  OneShotReplica(const ReplicaContext& ctx, bool initial_launch);

  void OnStart() override;
  bool halted() const { return checker_ == nullptr; }
  uint64_t fast_views() const { return fast_views_; }
  uint64_t slow_views() const { return slow_views_; }

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

  // ChainedReplica hooks. A block built on the previous view's commit certificate takes
  // the fast path, one built on f+1 NEW-VIEW certificates the slow one.
  bool Active() const override { return !halted(); }
  View TrustedView() const override { return checker_->vi(); }
  std::optional<SignedCert> TrustedNewView(View target) override {
    return checker_->ToNewView(target);
  }
  std::optional<AccumulatorCert> TrustedAccum(const std::vector<SignedCert>& certs) override {
    return checker_->ToAccum(certs);
  }
  std::optional<SignedCert> TrustedPrepare(const Block& block, const AccumulatorCert* acc,
                                           const QuorumCert* commit_qc) override;
  MessageRef MakeNewView(const SignedCert& view_cert) const override;
  MessageRef MakePropose(const BlockPtr& block, const SignedCert& prep_cert) const override;
  MessageRef MakeDecide(QuorumCert commit_qc) const override;

 private:
  void OnPropose(NodeId from, const std::shared_ptr<const OsProposeMsg>& msg);
  void OnPreCommit(NodeId from, const OsPreCommitMsg& msg);

  std::unique_ptr<OneShotChecker> checker_;
  uint64_t fast_views_ = 0;
  uint64_t slow_views_ = 0;
};

}  // namespace achilles

#endif  // SRC_ONESHOT_REPLICA_H_
