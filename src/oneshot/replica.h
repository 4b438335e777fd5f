// OneShot replica: four communication steps on the piggyback fast path (previous view
// committed), six on the NEW-VIEW slow path. Its trusted CHECKER (a SealedVoteChecker) is
// view-adapting: on the fast path backups store and vote in a single phase, while a view
// entered through NEW-VIEW certificates falls back to Damysus-style two-phase voting. With
// a counter-equipped platform this is OneShot-R (1 write per node per fast view, 2
// otherwise).
#ifndef SRC_ONESHOT_REPLICA_H_
#define SRC_ONESHOT_REPLICA_H_

#include <memory>

#include "src/consensus/chained_replica.h"

namespace achilles {

// OneShot's trace names and signing domains, and the slot its checker seals its state in.
// Fast-path store votes and slow-path second-phase votes share the COMMIT domain.
inline constexpr ChainedWireSpec kOneShotWire{
    .propose = "os_propose",
    .vote = "os_vote1",
    .precommit = "os_precommit",
    .commit_vote = "os_commit_vote",
    .decide = "os_decide",
    .new_view = "os_new_view",
    .domains = {.prep = "oneshot/PREP",
                .vote1 = "oneshot/VOTE1",
                .commit = "oneshot/COMMIT",
                .new_view = "oneshot/NEW-VIEW",
                .acc = "oneshot/ACC"}};
inline constexpr const char* kOneShotSealSlot = "oneshot-checker";

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
    return checker_->NewView(target);
  }
  std::optional<AccumulatorCert> TrustedAccum(const std::vector<SignedCert>& certs) override {
    return checker_->Accum(certs);
  }
  std::optional<SignedCert> TrustedPrepare(const Block& block, const AccumulatorCert* acc,
                                           const QuorumCert* commit_qc) override;

 private:
  void OnPropose(NodeId from, const std::shared_ptr<const ChainedProposeMsg>& msg);
  void OnPreCommit(NodeId from, const ChainedPreCommitMsg& msg);

  std::unique_ptr<SealedVoteChecker> checker_;
  uint64_t fast_views_ = 0;
  uint64_t slow_views_ = 0;
};

}  // namespace achilles

#endif  // SRC_ONESHOT_REPLICA_H_
