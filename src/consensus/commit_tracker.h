// Global experiment observer: audits safety across replicas and collects throughput and
// latency statistics. Lives outside the simulated machines (zero simulated cost).
#ifndef SRC_CONSENSUS_COMMIT_TRACKER_H_
#define SRC_CONSENSUS_COMMIT_TRACKER_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/consensus/block.h"
#include "src/consensus/metrics.h"
#include "src/obs/breakdown.h"
#include "src/obs/recorder.h"

namespace achilles {

class CommitTracker {
 public:
  explicit CommitTracker(uint32_t num_replicas);

  // Excludes a replica from the safety audit (its commits are adversary-controlled).
  void MarkByzantine(NodeId id) { byzantine_.insert(id); }

  // Application hook: invoked once per (replica, block) commit — this is how replicated
  // state machines consume the agreed sequence (see examples/replicated_kv.cc and
  // src/app/kv_service.h). Listeners append and fire in registration order, so the
  // chaos runner, tests and the KV app observe commits side by side.
  using CommitListener = std::function<void(NodeId, const BlockPtr&, SimTime)>;
  void AddCommitListener(CommitListener listener) {
    if (listener) {
      listeners_.push_back(std::move(listener));
    }
  }

  // Fires on every attributed proposal (ReplicaBase::MarkProposed), before any commit of
  // the block. The KV app uses it to pin the proposer's own in-flight writes.
  using ProposeListener = std::function<void(NodeId, const BlockPtr&)>;
  void AddProposeListener(ProposeListener listener) {
    if (listener) {
      propose_listeners_.push_back(std::move(listener));
    }
  }

  // Attribution sink for confirmed-block latency decomposition; measurement-window gating
  // happens here so attribution and the e2e recorder always agree.
  void SetBreakdown(obs::BreakdownAttributor* breakdown) { breakdown_ = breakdown; }
  // Record stream (src/obs/recorder.h; null when every sink is off): confirmed chains
  // are recorded with the same window gating and per-tx weighting as the breakdown
  // attributor, and StartMeasurement opens the recorder's window.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  // --- Called by replicas / clients ---
  // Called by ReplicaBase::MarkProposed: records the propose time and which replica
  // proposed the block, exposed via ProposerOf. Exact for every protocol (Raft's leader is
  // whoever won the election, not view % n, so LeaderOfView cannot substitute).
  void OnPropose(NodeId proposer, const BlockPtr& block);
  void OnCommit(NodeId replica, const BlockPtr& block, SimTime now);
  // First client-visible confirmation of a block (reply responsiveness: one valid reply).
  // `path` (optional) is the causal chain that delivered the confirming reply.
  void OnClientConfirm(const BlockPtr& block, SimTime now, const obs::Path* path = nullptr);

  // --- Measurement window ---
  void StartMeasurement(SimTime now);
  void EndMeasurement(SimTime now);
  double ThroughputTps() const;           // Committed txs per second inside the window.
  const LatencyRecorder& commit_latency() const { return commit_latency_; }
  const LatencyRecorder& e2e_latency() const { return e2e_latency_; }

  // --- Safety / liveness state ---
  bool safety_violated() const { return !violation_.empty(); }
  const std::string& violation() const { return violation_; }
  Height committed_height(NodeId replica) const;
  Height max_committed_height() const;
  uint64_t total_committed_blocks() const { return blocks_committed_; }
  uint64_t total_committed_txs() const { return txs_committed_total_; }
  // The committed hash at `height` (from the audit map); ZeroHash if none.
  Hash256 committed_hash_at(Height h) const;
  // The replica that proposed `hash` (from OnPropose); kNoProposer when the
  // block was never seen through MarkProposed (e.g. hand-built test blocks).
  static constexpr NodeId kNoProposer = ~NodeId{0};
  NodeId ProposerOf(const Hash256& hash) const;

 private:
  uint32_t num_replicas_;
  std::set<NodeId> byzantine_;

  // One record per proposed block, from OnPropose.
  struct Proposal {
    NodeId proposer;
    SimTime propose_time;
  };
  std::unordered_map<Hash256, Proposal, Hash256Hasher> proposals_;
  // Audit: agreed hash per height among correct replicas.
  std::map<Height, Hash256> height_to_hash_;
  // Per replica: highest committed height and set of committed hashes (for dedup).
  std::vector<Height> replica_height_;
  std::vector<std::unordered_set<Hash256, Hash256Hasher>> replica_committed_;
  // First-commit bookkeeping (global, correct replicas only).
  std::unordered_set<Hash256, Hash256Hasher> first_committed_;
  std::unordered_set<Hash256, Hash256Hasher> client_confirmed_;

  std::string violation_;
  std::vector<CommitListener> listeners_;
  std::vector<ProposeListener> propose_listeners_;
  obs::BreakdownAttributor* breakdown_ = nullptr;
  obs::Recorder* recorder_ = nullptr;

  SimTime window_start_ = 0;
  SimTime window_end_ = -1;
  bool measuring_ = false;
  uint64_t txs_in_window_ = 0;
  uint64_t blocks_committed_ = 0;
  uint64_t txs_committed_total_ = 0;
  LatencyRecorder commit_latency_;
  LatencyRecorder e2e_latency_;
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_COMMIT_TRACKER_H_
