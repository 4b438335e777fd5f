// Basic HotStuff (Yin et al., PODC'19): the non-TEE ancestor of Damysus/Achilles.
// n = 3f+1, quorum 2f+1, three voting phases (PREPARE / PRE-COMMIT / COMMIT) plus DECIDE —
// eight communication steps end to end, no trusted components, safety from the locking
// rule instead of non-equivocation hardware. Included to quantify what the TEE buys
// (bench_context_protocols): HotStuff 8 steps/3f+1 -> Damysus 6/2f+1 -> Achilles 4/2f+1.
//
// Stable storage: the safety-critical tuple (current view, highest prepare QC, locked QC)
// goes to the host record store with an fsync before any vote or NEW-VIEW that reflects it
// leaves the node. On reboot the constructor restores the tuple and OnStart re-enters
// view+1 — the restored view was potentially voted in, so it is burned, which is what
// prevents a second PREPARE vote there. Blocks are not persisted: the QC hashes are
// content addresses and the fetch protocol backfills bodies from peers.
#ifndef SRC_HOTSTUFF_REPLICA_H_
#define SRC_HOTSTUFF_REPLICA_H_

#include <map>

#include "src/consensus/certificates.h"
#include "src/consensus/replica_base.h"
#include "src/sim/process.h"

namespace achilles {

inline constexpr const char* kHsNewView = "hotstuff/NEW-VIEW";
inline constexpr const char* kHsPrepare = "hotstuff/PREPARE";
inline constexpr const char* kHsPreCommit = "hotstuff/PRE-COMMIT";
inline constexpr const char* kHsCommit = "hotstuff/COMMIT";

// Phase of a quorum certificate (selects the signing domain).
enum class HsPhase : uint8_t { kPrepare, kPreCommit, kCommit };
const char* HsPhaseDomain(HsPhase phase);

struct HsNewViewMsg : SimMessage {
  const char* TraceName() const override { return "hs_new_view"; }
  View view = 0;             // View being entered.
  QuorumCert prepare_qc;     // Sender's highest prepare QC (may be empty at genesis).
  Signature sig;             // Sender authentication.
  size_t WireSize() const override { return 8 + prepare_qc.WireSize() + sig.WireSize(); }
};

struct HsProposeMsg : SimMessage {
  const char* TraceName() const override { return "hs_propose"; }
  BlockPtr block;
  QuorumCert justify;  // The high QC the proposal extends.
  size_t WireSize() const override { return block->WireSize() + justify.WireSize(); }
};

struct HsVoteMsg : SimMessage {
  const char* TraceName() const override { return "hs_vote"; }
  HsPhase phase = HsPhase::kPrepare;
  SignedCert vote;  // ⟨phase-domain, block hash, view⟩.
  size_t WireSize() const override { return 1 + vote.WireSize(); }
};

struct HsQcMsg : SimMessage {
  const char* TraceName() const override { return "hs_qc"; }
  HsPhase phase = HsPhase::kPrepare;
  QuorumCert qc;
  size_t WireSize() const override { return 1 + qc.WireSize(); }
};

class HotStuffReplica : public ReplicaBase {
 public:
  HotStuffReplica(const ReplicaContext& ctx, bool initial_launch);

  void OnStart() override;

 protected:
  void HandleMessage(NodeId from, const MessageRef& msg) override;
  void OnViewTimeout(View armed) override;
  void OnBlocksSynced() override;

 private:
  // Enters `target` (durably), arms the view timer and sends leader(target) a NEW-VIEW
  // carrying the highest prepare QC. No-op unless `target` is above view().
  void AdvanceViaNewView(View target);
  void OnNewView(const HsNewViewMsg& msg);
  void TryPropose(View v);
  void OnPropose(NodeId from, const std::shared_ptr<const HsProposeMsg>& msg);
  void OnVote(const HsVoteMsg& msg);
  void OnQc(NodeId from, const std::shared_ptr<const HsQcMsg>& msg);
  void SendVote(HsPhase phase, const Hash256& hash, View view);
  bool SafeToVote(const BlockPtr& block, const QuorumCert& justify) const;

  // Syncs (view(), prepare_qc_, locked_qc_) to the host record store: must precede any
  // message that makes the view entry, QC adoption, or lock observable.
  void PersistState();
  void RestoreDurableState();

  QuorumCert prepare_qc_;  // Highest prepare QC seen (generic QC in HotStuff terms).
  QuorumCert locked_qc_;   // Lock from the COMMIT phase.

  // Leader collections per view.
  std::map<View, std::vector<HsNewViewMsg>> new_views_;
  std::map<View, Hash256> proposed_hash_;
  std::map<View, std::vector<SignedCert>> votes_[3];  // Indexed by HsPhase.
  std::map<View, uint8_t> phase_done_;

  std::vector<std::pair<NodeId, std::shared_ptr<const HsProposeMsg>>> pending_proposals_;
};

}  // namespace achilles

#endif  // SRC_HOTSTUFF_REPLICA_H_
