// Closed-loop KV client population: a fixed set of sessions, each issuing one operation at
// a time against the replicated KV app (src/app) and recording a complete invocation /
// response history with virtual-time intervals — the input to the linearizability checker
// (src/chaos/linearizability.h).
//
// Reads try the lease fast path first: a KvReadRequestMsg to a sticky read target (the last
// replica that served this client successfully). A decline or timeout rotates the target;
// after kLeaseReadAttempts failures the read falls back to an ordered GET through the
// log. Stickiness matters for the oracle self-test: it keeps reads flowing to a deposed
// leaseholder, which is exactly where a broken lease serves stale state.
//
// Writes (and fallback GETs) are submitted as transactions to every replica and periodically
// resubmitted (mempools are volatile; a reboot forgets pooled requests, and dedup by tx id
// makes retransmission free). An operation completes when the client has applied the block
// containing it to its own mirror AND the block is confirmed by its proposer or by f+1
// distinct replicas — the lease-compatible completion rule: the proposer's own release is
// gated by the same withholding promises that protect a live lease.
#ifndef SRC_CLIENT_KV_CLIENT_H_
#define SRC_CLIENT_KV_CLIENT_H_

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/app/kv_service.h"
#include "src/common/rng.h"
#include "src/sim/host.h"
#include "src/sim/network.h"

namespace achilles {

struct KvClientConfig {
  uint32_t num_sessions = 4;  // Concurrent closed-loop sessions.
};

class KvClientProcess : public IProcess {
 public:
  // The replicas are hosts 0 .. num_replicas - 1; an operation completes once its block is
  // confirmed by the proposer or by f + 1 of them.
  KvClientProcess(Host* host, Network* net, uint32_t num_replicas, uint32_t f,
                  const KvClientConfig& config, obs::MetricsRegistry* metrics);

  void OnStart() override;
  void OnMessage(uint32_t from, const MessageRef& msg) override;

  // Every operation ever invoked, in invocation order; pending ops keep response == -1.
  const std::vector<app::KvOpRecord>& ops() const { return history_.ops; }
  app::KvHistory HistorySnapshot() const { return history_; }
  uint64_t completed_ops() const { return completed_ops_; }
  const app::KvState& mirror() const { return mirror_; }

 private:
  struct Session {
    size_t active_op = SIZE_MAX;  // Index into history_.ops; SIZE_MAX = thinking.
  };
  struct PendingLeaseRead {
    size_t op_idx = 0;  // Index into history_.ops.
    uint32_t attempt = 0;
  };
  // Applied-notification bookkeeping per block until it confirms.
  struct BlockProgress {
    BlockPtr block;
    NodeId proposer = kNoNode;
    std::set<NodeId> senders;
    bool proposer_seen = false;
  };

  void StartNextOp(uint32_t session);
  void SendLeaseRead(uint64_t op_id);
  void OnLeaseReadFailure(uint64_t op_id);
  void SubmitOrdered(size_t op_idx);
  void ResubmitOutstanding();
  void OnReadReply(const app::KvReadReplyMsg& reply);
  void OnApplied(const app::KvAppliedMsg& msg);
  void ApplyConfirmedBlocks();
  void CompleteOp(size_t op_idx, SimTime now);

  Host* host_;
  Network* net_;
  uint32_t num_replicas_;
  uint32_t f_;
  Rng rng_;

  app::KvHistory history_;
  std::vector<Session> sessions_;
  uint32_t next_seq_ = 0;
  uint32_t read_target_ = 0;  // Sticky lease-read target (replica index).
  uint64_t completed_ops_ = 0;

  std::unordered_map<uint64_t, PendingLeaseRead> pending_lease_;
  std::unordered_map<uint64_t, size_t> outstanding_txs_;  // tx id -> history index.
  std::unordered_map<Hash256, BlockProgress, Hash256Hasher> progress_;
  std::map<Height, BlockProgress> confirmed_;  // Confirmed, not yet applied to the mirror.
  app::KvState mirror_;

  obs::Histogram* read_latency_ = nullptr;
  obs::Histogram* write_latency_ = nullptr;
  obs::Histogram* lease_read_latency_ = nullptr;
  obs::Counter* ops_completed_ = nullptr;
  obs::Counter* lease_fallbacks_ = nullptr;
};

}  // namespace achilles

#endif  // SRC_CLIENT_KV_CLIENT_H_
