// Quickstart: spin up a 5-node Achilles cluster (f = 2) on a simulated LAN, feed it client
// transactions, and print what it committed.
//
//   $ ./build/examples/quickstart
//   $ ./build/examples/quickstart --trace-out=trace.json   # + span trace for Perfetto
#include <cstdio>
#include <cstring>

#include "src/harness/cluster.h"

int main(int argc, char** argv) {
  using namespace achilles;

  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_path = argv[i] + 12;
    }
  }

  // 1. Describe the deployment: protocol, fault threshold, workload, network.
  ClusterConfig config;
  config.protocol = Protocol::kAchilles;
  config.f = 2;                       // n = 2f+1 = 5 replicas.
  config.batch_size = 200;            // Transactions per block.
  config.payload_size = 256;          // Bytes per transaction.
  config.net = NetworkConfig::Lan();  // RTT 0.1 ms; try NetworkConfig::Wan() for 40 ms.
  config.seed = 2024;                 // Every run with this seed is bit-identical.
  if (!trace_path.empty()) {
    // Tracing is memory-only: the printed stats below are bit-identical with it on or off.
    config.tracing = true;
    config.trace_capacity = 4096;  // Keep the exported file small (last ~4k events).
  }

  // 2. Build and run. The saturating client keeps the mempool full.
  Cluster cluster(config);
  cluster.Start();
  cluster.tracker().StartMeasurement(0);
  cluster.sim().RunFor(Sec(2));
  cluster.tracker().EndMeasurement(cluster.sim().Now());

  // 3. Inspect the outcome.
  const CommitTracker& tracker = cluster.tracker();
  std::printf("Achilles quickstart (n=%u, f=%u, simulated LAN)\n", cluster.num_replicas(),
              config.f);
  std::printf("  committed blocks:        %llu\n",
              static_cast<unsigned long long>(tracker.total_committed_blocks()));
  std::printf("  committed transactions:  %llu\n",
              static_cast<unsigned long long>(tracker.total_committed_txs()));
  std::printf("  throughput:              %.1f K tx/s\n", tracker.ThroughputTps() / 1000.0);
  std::printf("  commit latency (mean):   %.2f ms\n", tracker.commit_latency().MeanMs());
  std::printf("  commit latency (p99):    %.2f ms\n",
              tracker.commit_latency().PercentileMs(99));
  std::printf("  end-to-end latency:      %.2f ms\n", tracker.e2e_latency().MeanMs());
  std::printf("  persistent counter writes: %llu (Achilles never uses one)\n",
              static_cast<unsigned long long>(cluster.TotalCounterWrites()));
  std::printf("  safety: %s\n", tracker.safety_violated() ? "VIOLATED" : "ok");

  // 4. Optionally export the span trace — open it in https://ui.perfetto.dev.
  if (!trace_path.empty()) {
    if (cluster.recorder().tracer()->WriteChromeTrace(trace_path)) {
      std::printf("  trace written to %s (load it in Perfetto)\n", trace_path.c_str());
    } else {
      std::printf("  FAILED to write trace to %s\n", trace_path.c_str());
      return 1;
    }
  }
  return tracker.safety_violated() ? 1 : 0;
}
