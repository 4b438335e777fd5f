#include "src/harness/parallel.h"

#include "src/achilles/replica.h"
#include "src/common/check.h"

namespace achilles {

namespace {
// Each instance's deployment: the ClusterConfig defaults.
constexpr size_t kBatchSize = 400;
constexpr uint32_t kPayloadSize = 256;
}  // namespace

ParallelStats RunParallelAchilles(const ParallelConfig& config, SimDuration warmup,
                                  SimDuration measure) {
  const uint32_t n = ReplicasFor(Protocol::kAchilles, config.f);  // Machines.
  const uint32_t k = config.instances;
  ACHILLES_CHECK(k >= 1);

  Simulation sim(config.seed);
  Network net(&sim, NetworkConfig::Lan());
  // One signing identity per machine: every instance's replica on machine m signs as m.
  CryptoSuite suite(SignatureScheme::kFastHmac, n, config.seed ^ 0x9a7a11e1ULL);

  // Host layout: instance i's replica on machine m is host i*n + m; instance i's client is
  // host k*n + i. Replicas on the same machine share its NIC.
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<NodePlatform>> platforms;
  std::vector<std::unique_ptr<CommitTracker>> trackers;
  const TeeConfig tee;

  for (uint32_t i = 0; i < k; ++i) {
    trackers.push_back(std::make_unique<CommitTracker>(n));
    for (uint32_t m = 0; m < n; ++m) {
      hosts.push_back(std::make_unique<Host>(&sim, i * n + m));
      net.AddHost(hosts.back().get());
      platforms.push_back(std::make_unique<NodePlatform>(
          hosts.back().get(), &suite, CostModel::Default(), tee, config.seed, /*node_id=*/m));
    }
  }
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t m = 0; m < n; ++m) {
      net.SetMachine(i * n + m, m);
    }
  }
  for (uint32_t i = 0; i < k; ++i) {
    hosts.push_back(std::make_unique<Host>(&sim, k * n + i));
    net.AddHost(hosts.back().get());
  }

  for (uint32_t i = 0; i < k; ++i) {
    std::vector<uint32_t> replica_hosts(n);
    for (uint32_t m = 0; m < n; ++m) {
      replica_hosts[m] = i * n + m;
    }
    for (uint32_t m = 0; m < n; ++m) {
      ReplicaContext ctx;
      ctx.platform = platforms[i * n + m].get();
      ctx.net = &net;
      ctx.tracker = trackers[i].get();
      ctx.params.n = n;
      ctx.params.f = config.f;
      ctx.params.batch_size = kBatchSize;
      ctx.client_ids = {k * n + i};
      ctx.replica_hosts = replica_hosts;
      hosts[i * n + m]->BindProcess(
          std::make_unique<AchillesReplica>(ctx, /*initial_launch=*/true));
    }
    // One saturating client per instance (transactions striped by construction: each
    // client only feeds its own instance).
    ClientConfig cc;
    cc.payload_size = kPayloadSize;
    cc.rate_tps = 0.0;
    cc.chunk = kBatchSize / 2;
    cc.max_outstanding = 10 * kBatchSize;
    cc.num_replicas = n;
    cc.first_replica_host = i * n;  // This instance's contiguous host range.
    hosts[k * n + i]->BindProcess(std::make_unique<ClientProcess>(
        hosts[k * n + i].get(), &net, trackers[i].get(), cc));
  }

  sim.RunFor(warmup);
  for (auto& tracker : trackers) {
    tracker->StartMeasurement(sim.Now());
  }
  sim.RunFor(measure);
  ParallelStats stats;
  double latency_sum = 0.0;
  for (auto& tracker : trackers) {
    tracker->EndMeasurement(sim.Now());
    const double tps = tracker->ThroughputTps();
    stats.per_instance_tps.push_back(tps);
    stats.total_throughput_tps += tps;
    latency_sum += tracker->commit_latency().MeanMs();
    stats.safety_ok = stats.safety_ok && !tracker->safety_violated();
  }
  stats.commit_latency_ms = latency_sum / static_cast<double>(k);
  return stats;
}

}  // namespace achilles
