// Point-to-point message fabric with per-link Gaussian latency, NIC bandwidth, loss and
// partitions. LAN/WAN presets mirror the paper's NetEm settings (RTT 0.1±0.02 ms and
// 40±0.2 ms respectively, 10 Gbps NICs).
#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "src/sim/host.h"

namespace achilles {

struct NetworkConfig {
  SimDuration one_way_base = Us(50);   // Mean one-way propagation delay.
  SimDuration one_way_jitter = Us(10); // Gaussian stddev of the one-way delay.
  double bandwidth_bps = 10e9;         // Per-message serialization delay = bits / bandwidth.
  SimDuration loopback_delay = Us(1);  // Self-sends (process-local pipes).
  double drop_rate = 0.0;              // Uniform loss; reliable channels use 0.

  static NetworkConfig Lan();
  static NetworkConfig Wan();
};

// Scripted schedule perturbation (the chaos harness's "jitter" fault). All randomness is
// drawn from the simulation RNG inside Send(), so a given seed still yields a bit-identical
// schedule. Delayed duplicates model the network replaying an old packet — the classic
// stale-message attack surface that rollback-resilient recovery must tolerate.
struct NetworkChaos {
  SimDuration extra_delay_max = 0;    // Uniform extra one-way delay in [0, max].
  double reorder_prob = 0.0;          // Chance of an additional bump (lets later msgs overtake).
  SimDuration reorder_delay_max = 0;  // Size of that bump, uniform in [0, max].
  double dup_prob = 0.0;              // Chance the message is delivered a second time...
  SimDuration dup_delay_max = 0;      // ...this much later (uniform), as a stale replay.

  bool enabled() const {
    return extra_delay_max > 0 || reorder_prob > 0.0 || dup_prob > 0.0;
  }
};

class Network {
 public:
  Network(Simulation* sim, NetworkConfig config);

  // Hosts register by id; ids must be dense from 0.
  void AddHost(Host* host);
  Host& host(uint32_t id) { return *hosts_[id]; }
  size_t num_hosts() const { return hosts_.size(); }

  // Maps a host onto a physical machine's NIC: hosts sharing a machine contend on one
  // egress queue (used by the concurrent-instances extension, where several consensus
  // instances run on the same box). Default: one machine per host.
  void SetMachine(uint32_t host_id, uint32_t machine_id);

  const NetworkConfig& config() const { return config_; }

  // Enables/disables scripted schedule perturbation ({} turns it off).
  void SetChaos(const NetworkChaos& chaos) { chaos_ = chaos; }

  // Observability tap: invoked once per scheduled delivery (including chaos duplicates)
  // with (from, to, msg, arrival). Never called for dropped/blocked messages. The tap runs
  // outside any host handler and must not mutate simulation state that affects timing —
  // the chaos runner uses it to audit recovery traffic and to record replayable messages.
  using DeliveryTap = std::function<void(uint32_t, uint32_t, const MessageRef&, SimTime)>;
  void SetDeliveryTap(DeliveryTap tap) { tap_ = std::move(tap); }

  // Sends msg from -> to. Departure time is the sender's LocalNow (so CPU charges delay
  // sends). Returns the computed arrival time (for tracing); dropped messages return -1.
  SimTime Send(uint32_t from, uint32_t to, MessageRef msg);

  // Broadcast helper to a set of destinations; sender excluded unless listed.
  void Multicast(uint32_t from, const std::vector<uint32_t>& to, const MessageRef& msg);

  // --- Fault injection ---
  // Splits hosts into isolation groups; traffic crosses groups only if neither endpoint is
  // assigned, and assigned endpoints talk only within their group.
  void Partition(const std::vector<std::vector<uint32_t>>& groups);
  void ClearPartition();
  // Blocks/unblocks a single directed link.
  void SetLinkBlocked(uint32_t from, uint32_t to, bool blocked);
  bool CanReach(uint32_t from, uint32_t to) const;

  // --- Stats ---
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  void ResetStats();

  // Registers wire-level instruments (message/byte counters, NIC-wait histogram) in
  // `registry`. Observability only — no effect on simulated timing.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  Simulation* sim_;
  NetworkConfig config_;
  NetworkChaos chaos_;
  DeliveryTap tap_;
  std::vector<Host*> hosts_;
  std::vector<SimTime> nic_free_at_;  // Per-machine egress NIC: broadcasts serialize here.
  std::vector<uint32_t> machine_of_;  // Host -> NIC (machine) index.
  std::vector<int> group_of_;         // -1 = unassigned.
  std::set<std::pair<uint32_t, uint32_t>> blocked_links_;
  uint64_t messages_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  obs::Counter* messages_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
  obs::Histogram* nic_wait_ns_ = nullptr;  // Departure -> wire (egress queueing) per message.
};

}  // namespace achilles

#endif  // SRC_SIM_NETWORK_H_
