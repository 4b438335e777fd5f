// Concurrent consensus instances — the parallelization the paper leaves as future work
// (§6.1, citing RCC/Mir-BFT): k independent Achilles instances run on the same n machines
// (one replica of each instance per machine, sharing the machine's NIC), with client
// transactions striped across instances. Aggregate throughput approaches k× until the
// shared NIC saturates.
#ifndef SRC_HARNESS_PARALLEL_H_
#define SRC_HARNESS_PARALLEL_H_

#include <memory>
#include <vector>

#include "src/harness/cluster.h"

namespace achilles {

struct ParallelConfig {
  uint32_t f = 2;
  uint32_t instances = 2;  // k.
  uint64_t seed = 1;
};

struct ParallelStats {
  double total_throughput_tps = 0.0;
  double commit_latency_ms = 0.0;  // Mean over all instances.
  bool safety_ok = true;
  std::vector<double> per_instance_tps;
};

// Builds the striped deployment, runs warmup + measure, and aggregates.
ParallelStats RunParallelAchilles(const ParallelConfig& config, SimDuration warmup,
                                  SimDuration measure);

}  // namespace achilles

#endif  // SRC_HARNESS_PARALLEL_H_
