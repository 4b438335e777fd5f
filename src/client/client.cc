#include "src/client/client.h"

namespace achilles {

namespace {
constexpr SimDuration kTick = Ms(1);  // Pacing granularity.
}  // namespace

ClientProcess::ClientProcess(Host* host, Network* net, CommitTracker* tracker,
                             const ClientConfig& config)
    : host_(host), net_(net), tracker_(tracker), config_(config) {}

void ClientProcess::OnStart() { Tick(); }

void ClientProcess::Tick() {
  if (config_.rate_tps > 0.0) {
    // Open loop: accumulate fractional transactions per tick.
    rate_carry_ += config_.rate_tps * (static_cast<double>(kTick) / kSecond);
    const size_t due = static_cast<size_t>(rate_carry_);
    rate_carry_ -= static_cast<double>(due);
    size_t remaining = due;
    while (remaining > 0) {
      const size_t take = std::min(remaining, config_.chunk);
      SubmitChunk(take);
      remaining -= take;
    }
  } else {
    // Saturating: top up to the outstanding cap.
    const uint64_t committed = tracker_->total_committed_txs();
    const uint64_t outstanding = next_seq_ - std::min<uint64_t>(committed, next_seq_);
    if (outstanding < config_.max_outstanding) {
      size_t budget = config_.max_outstanding - outstanding;
      while (budget > 0) {
        const size_t take = std::min(budget, config_.chunk);
        SubmitChunk(take);
        budget -= take;
      }
    }
  }
  host_->SetTimer(kTick, [this] { Tick(); });
}

void ClientProcess::SubmitChunk(size_t count) {
  auto msg = std::make_shared<ClientSubmitMsg>();
  msg->txs.reserve(count);
  const SimTime now = host_->LocalNow();
  for (size_t i = 0; i < count; ++i) {
    msg->txs.push_back(Transaction{Transaction::MakeId(host_->id(), next_seq_++), now,
                                   config_.payload_size});
  }
  msg->MemoizeWireSize();
  for (uint32_t r = 0; r < config_.num_replicas; ++r) {
    net_->Send(host_->id(), config_.first_replica_host + r, msg);
  }
}

void ClientProcess::OnMessage(uint32_t /*from*/, const MessageRef& msg) {
  auto reply = std::dynamic_pointer_cast<const ClientReplyMsg>(msg);
  if (reply == nullptr || reply->block == nullptr) {
    return;
  }
  // Reply validation is kept cheap: the paper spreads clients over many machines, so the
  // client must not become a simulated bottleneck.
  host_->ChargeCpu(Us(2));
  confirmed_txs_ += reply->block->txs.size();
  // The reply's causal chain attributes this block's confirmation latency.
  tracker_->OnClientConfirm(reply->block, host_->LocalNow(), &host_->current_path());
}

}  // namespace achilles
