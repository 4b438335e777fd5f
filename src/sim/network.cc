#include "src/sim/network.h"

#include <algorithm>

#include "src/common/check.h"

namespace achilles {

NetworkConfig NetworkConfig::Lan() {
  NetworkConfig c;
  c.one_way_base = Us(50);    // RTT 0.1 ms.
  c.one_way_jitter = Us(10);  // RTT jitter ±0.02 ms.
  c.bandwidth_bps = 5e9;  // Artifact appendix D.2.2: 5 Gbps private NICs.
  return c;
}

NetworkConfig NetworkConfig::Wan() {
  NetworkConfig c;
  c.one_way_base = Ms(20);     // RTT 40 ms.
  c.one_way_jitter = Us(100);  // RTT jitter ±0.2 ms.
  c.bandwidth_bps = 5e9;
  return c;
}

Network::Network(Simulation* sim, NetworkConfig config) : sim_(sim), config_(config) {}

void Network::AddHost(Host* host) {
  ACHILLES_CHECK(host->id() == hosts_.size());
  hosts_.push_back(host);
  nic_free_at_.push_back(0);
  machine_of_.push_back(host->id());
  group_of_.push_back(-1);
}

void Network::SetMachine(uint32_t host_id, uint32_t machine_id) {
  ACHILLES_CHECK(host_id < machine_of_.size() && machine_id < nic_free_at_.size());
  machine_of_[host_id] = machine_id;
}

SimTime Network::Send(uint32_t from, uint32_t to, MessageRef msg) {
  ACHILLES_CHECK(from < hosts_.size() && to < hosts_.size());
  ++messages_sent_;
  bytes_sent_ += msg->WireSize();
  if (messages_metric_ != nullptr) {
    messages_metric_->Inc();
    bytes_metric_->Inc(msg->WireSize());
  }
  const SimTime departure = hosts_[from]->LocalNow();
  // Attribution: the sender's causal chain rides along with the delivery, extended by the
  // wire-level components computed below.
  obs::Path path = hosts_[from]->SendPath();
  // Record stream: one send record under the sender's handler context (the path carries it
  // on, so the receiver's deliver record points back at it), then one transit (NIC
  // wait/serialization + propagation) per delivery.
  obs::Recorder* recorder = hosts_[from]->recorder();
  if (recorder != nullptr) {
    path.cause = recorder->Event(from, obs::JournalKind::kSend, departure, path.cause, to,
                                  msg->WireSize(), msg->TraceName());
  }
  if (from == to) {
    const SimTime arrival = departure + config_.loopback_delay;
    const SimTime dep = path.covered_until;  // Sender's causal frontier at Send.
    path.CoverUntil(obs::Component::kNetPropagation, arrival);
    if (recorder != nullptr) {
      recorder->Transit(from, to, msg->TraceName(), dep, dep, dep, arrival, /*nic=*/0,
                         /*holds_nic=*/false, &path.cause);
    }
    if (tap_) {
      tap_(from, to, msg, arrival);
    }
    hosts_[to]->DeliverAt(arrival, from, std::move(msg), &path);
    return arrival;
  }
  if (!CanReach(from, to)) {
    return -1;
  }
  if (config_.drop_rate > 0.0 && sim_->rng().Chance(config_.drop_rate)) {
    return -1;
  }
  const double bits = static_cast<double>(msg->WireSize()) * 8.0;
  const SimDuration serialize = static_cast<SimDuration>(bits / config_.bandwidth_bps * kSecond);
  // Egress NIC queueing: copies of a broadcast leave one after another, so fanning out a
  // large block to n peers costs n serializations on the sender's link.
  const uint32_t nic = machine_of_[from];
  const SimTime tx_start = std::max(departure, nic_free_at_[nic]);
  const SimTime tx_end = tx_start + serialize;
  nic_free_at_[nic] = tx_end;
  if (nic_wait_ns_ != nullptr) {
    nic_wait_ns_->Record(tx_start - departure);
  }
  const double jitter =
      sim_->rng().Gaussian(0.0, static_cast<double>(config_.one_way_jitter));
  const SimDuration propagation =
      std::max<SimDuration>(0, config_.one_way_base + static_cast<SimDuration>(jitter));
  SimTime arrival = tx_end + propagation;
  // Chaos perturbation (loopback is exempt: self-pipes are process-local). Extra delay and
  // reorder bumps stretch the propagation component; both draws come from the sim RNG so
  // the schedule stays seed-deterministic.
  if (chaos_.enabled()) {
    if (chaos_.extra_delay_max > 0) {
      arrival += static_cast<SimDuration>(
          sim_->rng().UniformU64(static_cast<uint64_t>(chaos_.extra_delay_max) + 1));
    }
    if (chaos_.reorder_prob > 0.0 && sim_->rng().Chance(chaos_.reorder_prob)) {
      arrival += static_cast<SimDuration>(
          sim_->rng().UniformU64(static_cast<uint64_t>(chaos_.reorder_delay_max) + 1));
    }
  }
  const SimTime dep = path.covered_until;  // Sender's causal frontier at Send.
  path.CoverUntil(obs::Component::kNicSerialization, tx_end);
  path.CoverUntil(obs::Component::kNetPropagation, arrival);
  if (recorder != nullptr) {
    recorder->Transit(from, to, msg->TraceName(), dep, tx_start, tx_end, arrival, nic,
                       /*holds_nic=*/true, &path.cause);
  }
  if (tap_) {
    tap_(from, to, msg, arrival);
  }
  hosts_[to]->DeliverAt(arrival, from, msg, &path);
  // Delayed duplicate: the network re-delivers the same packet later (stale replay).
  if (chaos_.dup_prob > 0.0 && sim_->rng().Chance(chaos_.dup_prob)) {
    const SimTime dup_arrival =
        arrival + 1 +
        static_cast<SimDuration>(
            sim_->rng().UniformU64(static_cast<uint64_t>(chaos_.dup_delay_max) + 1));
    obs::Path dup_path = path;
    dup_path.CoverUntil(obs::Component::kNetPropagation, dup_arrival);
    if (recorder != nullptr) {
      // The duplicate is triggered by the original transit; it holds no NIC (the bytes
      // already left the sender) and only adds propagation past the first arrival.
      recorder->Transit(from, to, msg->TraceName(), arrival, arrival, arrival, dup_arrival,
                         /*nic=*/0, /*holds_nic=*/false, &dup_path.cause);
    }
    if (tap_) {
      tap_(from, to, msg, dup_arrival);
    }
    hosts_[to]->DeliverAt(dup_arrival, from, std::move(msg), &dup_path);
  }
  return arrival;
}

void Network::Multicast(uint32_t from, const std::vector<uint32_t>& to, const MessageRef& msg) {
  for (uint32_t dst : to) {
    Send(from, dst, msg);
  }
}

void Network::Partition(const std::vector<std::vector<uint32_t>>& groups) {
  std::fill(group_of_.begin(), group_of_.end(), -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (uint32_t id : groups[g]) {
      ACHILLES_CHECK(id < group_of_.size());
      group_of_[id] = static_cast<int>(g);
    }
  }
}

void Network::ClearPartition() { std::fill(group_of_.begin(), group_of_.end(), -1); }

void Network::SetLinkBlocked(uint32_t from, uint32_t to, bool blocked) {
  if (blocked) {
    blocked_links_.insert({from, to});
  } else {
    blocked_links_.erase({from, to});
  }
}

bool Network::CanReach(uint32_t from, uint32_t to) const {
  if (blocked_links_.count({from, to}) > 0) {
    return false;
  }
  const int gf = group_of_[from];
  const int gt = group_of_[to];
  if (gf >= 0 && gt >= 0 && gf != gt) {
    return false;
  }
  // Unassigned hosts (e.g. clients) can talk to everyone.
  return true;
}

void Network::ResetStats() {
  messages_sent_ = 0;
  bytes_sent_ = 0;
}

void Network::AttachMetrics(obs::MetricsRegistry* registry) {
  messages_metric_ = registry->GetCounter("net.messages");
  bytes_metric_ = registry->GetCounter("net.bytes");
  nic_wait_ns_ = registry->GetHistogram("net.nic_wait_ns");
}

}  // namespace achilles
