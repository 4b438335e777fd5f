#include "src/client/kv_client.h"

#include <algorithm>

namespace achilles {

using app::KvOpKind;
using app::KvOpRecord;

namespace {
constexpr uint32_t kKeySpace = 8;  // Keys drawn uniformly from [0, kKeySpace).
constexpr double kReadRatio = 0.7;
constexpr SimDuration kThink = Ms(2);  // Pause between an op's response and the next.
constexpr SimDuration kLeaseReadTimeout = Ms(30);
constexpr uint32_t kLeaseReadAttempts = 2;  // Fast-path tries before the ordered fallback.
constexpr SimDuration kResubmitInterval = Ms(500);  // Outstanding-tx retransmission period.
constexpr uint32_t kPayloadSize = 64;  // Bytes per KV transaction payload.
}  // namespace

KvClientProcess::KvClientProcess(Host* host, Network* net, uint32_t num_replicas, uint32_t f,
                                 const KvClientConfig& config, obs::MetricsRegistry* metrics)
    : host_(host),
      net_(net),
      num_replicas_(num_replicas),
      f_(f),
      rng_(host->sim().rng().Fork()),
      sessions_(config.num_sessions) {
  if (metrics != nullptr) {
    read_latency_ = metrics->GetHistogram("app.read_latency_ns");
    write_latency_ = metrics->GetHistogram("app.write_latency_ns");
    lease_read_latency_ = metrics->GetHistogram("app.lease_read_latency_ns");
    ops_completed_ = metrics->GetCounter("app.ops_completed");
    lease_fallbacks_ = metrics->GetCounter("app.lease_fallbacks");
  }
}

void KvClientProcess::OnStart() {
  for (uint32_t s = 0; s < sessions_.size(); ++s) {
    StartNextOp(s);
  }
  host_->SetTimer(kResubmitInterval, [this] { ResubmitOutstanding(); });
}

void KvClientProcess::StartNextOp(uint32_t session) {
  KvOpRecord op;
  op.op_id = Transaction::MakeId(host_->id(), next_seq_++);
  op.client = session;
  op.key = static_cast<uint32_t>(rng_.UniformU64(kKeySpace));
  op.kind = rng_.Chance(kReadRatio) ? KvOpKind::kGet : KvOpKind::kPut;
  op.invoke = host_->LocalNow();
  const size_t idx = history_.ops.size();
  history_.ops.push_back(op);
  sessions_[session].active_op = idx;
  if (op.kind == KvOpKind::kPut) {
    history_.ops[idx].value = op.op_id;  // PUT value is the tx id (globally unique).
    SubmitOrdered(idx);
  } else {
    pending_lease_[op.op_id] = PendingLeaseRead{idx, 0};
    SendLeaseRead(op.op_id);
  }
}

void KvClientProcess::SendLeaseRead(uint64_t op_id) {
  auto it = pending_lease_.find(op_id);
  if (it == pending_lease_.end()) {
    return;
  }
  const uint32_t attempt = it->second.attempt;
  auto req = std::make_shared<app::KvReadRequestMsg>();
  req->op_id = op_id;
  req->key = history_.ops[it->second.op_idx].key;
  net_->Send(host_->id(), read_target_, req);
  // Timeout guard: only fires if this exact attempt is still outstanding.
  host_->SetTimer(kLeaseReadTimeout, [this, op_id, attempt] {
    auto lit = pending_lease_.find(op_id);
    if (lit != pending_lease_.end() && lit->second.attempt == attempt) {
      OnLeaseReadFailure(op_id);
    }
  });
}

void KvClientProcess::OnLeaseReadFailure(uint64_t op_id) {
  auto it = pending_lease_.find(op_id);
  if (it == pending_lease_.end()) {
    return;
  }
  read_target_ = (read_target_ + 1) % num_replicas_;
  ++it->second.attempt;
  if (it->second.attempt < kLeaseReadAttempts) {
    SendLeaseRead(op_id);
    return;
  }
  // Fast path exhausted: read through the log instead. Same op id, same invoke time — the
  // invocation began when the client first asked.
  const size_t op_idx = it->second.op_idx;
  pending_lease_.erase(it);
  if (lease_fallbacks_ != nullptr) {
    lease_fallbacks_->Inc();
  }
  SubmitOrdered(op_idx);
}

void KvClientProcess::SubmitOrdered(size_t op_idx) {
  const KvOpRecord& op = history_.ops[op_idx];
  outstanding_txs_[op.op_id] = op_idx;
  auto msg = std::make_shared<ClientSubmitMsg>();
  msg->txs.push_back(Transaction{op.op_id, host_->LocalNow(), kPayloadSize,
                                 app::EncodeKvOp(op.kind, op.key)});
  msg->MemoizeWireSize();
  for (uint32_t r = 0; r < num_replicas_; ++r) {
    net_->Send(host_->id(), r, msg);
  }
}

void KvClientProcess::ResubmitOutstanding() {
  if (!outstanding_txs_.empty()) {
    auto msg = std::make_shared<ClientSubmitMsg>();
    const SimTime now = host_->LocalNow();
    // Deterministic order: collect and sort ids (unordered_map iteration is not stable).
    std::vector<uint64_t> ids;
    ids.reserve(outstanding_txs_.size());
    for (const auto& [id, idx] : outstanding_txs_) {
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    for (uint64_t id : ids) {
      const KvOpRecord& op = history_.ops[outstanding_txs_[id]];
      msg->txs.push_back(
          Transaction{id, now, kPayloadSize, app::EncodeKvOp(op.kind, op.key)});
    }
    msg->MemoizeWireSize();
    for (uint32_t r = 0; r < num_replicas_; ++r) {
      net_->Send(host_->id(), r, msg);
    }
  }
  host_->SetTimer(kResubmitInterval, [this] { ResubmitOutstanding(); });
}

void KvClientProcess::OnMessage(uint32_t /*from*/, const MessageRef& msg) {
  host_->ChargeCpu(Us(2));
  if (auto reply = std::dynamic_pointer_cast<const app::KvReadReplyMsg>(msg)) {
    OnReadReply(*reply);
    return;
  }
  if (auto applied = std::dynamic_pointer_cast<const app::KvAppliedMsg>(msg)) {
    OnApplied(*applied);
    return;
  }
}

void KvClientProcess::OnReadReply(const app::KvReadReplyMsg& reply) {
  auto it = pending_lease_.find(reply.op_id);
  if (it == pending_lease_.end()) {
    return;  // Late reply after fallback or completion.
  }
  if (!reply.served) {
    OnLeaseReadFailure(reply.op_id);
    return;
  }
  const size_t op_idx = it->second.op_idx;
  KvOpRecord& op = history_.ops[op_idx];
  op.value = reply.cell.value;
  op.version = reply.cell.version;
  op.lease_read = true;
  op.server = reply.server;
  pending_lease_.erase(it);
  // Success renews stickiness on the serving replica.
  read_target_ = reply.server;
  CompleteOp(op_idx, host_->LocalNow());
}

void KvClientProcess::OnApplied(const app::KvAppliedMsg& msg) {
  if (msg.block == nullptr || msg.block->height <= mirror_.height()) {
    return;
  }
  BlockProgress& bp = progress_[msg.block->hash];
  bp.block = msg.block;
  bp.proposer = msg.proposer;
  bp.senders.insert(msg.replica);
  bp.proposer_seen |= msg.replica == msg.proposer;
  if (bp.proposer_seen || bp.senders.size() >= static_cast<size_t>(f_) + 1) {
    confirmed_.emplace(msg.block->height, bp);
    progress_.erase(msg.block->hash);
    ApplyConfirmedBlocks();
  }
}

void KvClientProcess::ApplyConfirmedBlocks() {
  const SimTime now = host_->LocalNow();
  while (true) {
    auto it = confirmed_.find(mirror_.height() + 1);
    if (it == confirmed_.end() || !mirror_.CanApply(it->second.block)) {
      break;
    }
    const NodeId proposer = it->second.proposer;
    mirror_.ApplyBlock(it->second.block, [this, proposer, now](const Transaction& tx,
                                                               KvOpKind /*kind*/,
                                                               uint32_t /*key*/,
                                                               const app::KvCell& cell) {
      auto oit = outstanding_txs_.find(tx.id);
      if (oit == outstanding_txs_.end()) {
        return;  // Someone else's transaction (background load has no KV ops anyway).
      }
      KvOpRecord& op = history_.ops[oit->second];
      op.value = cell.value;
      op.version = cell.version;
      op.server = proposer;
      const size_t idx = oit->second;
      outstanding_txs_.erase(oit);
      CompleteOp(idx, now);
    });
    confirmed_.erase(it);
  }
}

void KvClientProcess::CompleteOp(size_t op_idx, SimTime now) {
  KvOpRecord& op = history_.ops[op_idx];
  if (op.complete()) {
    return;
  }
  op.response = now;
  ++completed_ops_;
  if (ops_completed_ != nullptr) {
    ops_completed_->Inc();
  }
  const int64_t latency = now - op.invoke;
  if (op.kind == KvOpKind::kPut) {
    if (write_latency_ != nullptr) {
      write_latency_->Record(latency);
    }
  } else {
    if (read_latency_ != nullptr) {
      read_latency_->Record(latency);
    }
    if (op.lease_read && lease_read_latency_ != nullptr) {
      lease_read_latency_->Record(latency);
    }
  }
  for (uint32_t s = 0; s < sessions_.size(); ++s) {
    if (sessions_[s].active_op == op_idx) {
      sessions_[s].active_op = SIZE_MAX;
      host_->SetTimer(kThink, [this, s] { StartNextOp(s); });
      return;
    }
  }
}

}  // namespace achilles
