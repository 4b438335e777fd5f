// Latency statistics per run. LatencyRecorder keeps the raw samples (so percentiles keep
// the exact interpolated semantics the benches were calibrated against) plus a running sum
// and max, which count a negative sample as 0, as obs::Histogram::Record does.
#ifndef SRC_CONSENSUS_METRICS_H_
#define SRC_CONSENSUS_METRICS_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"

namespace achilles {

class LatencyRecorder {
 public:
  void Record(SimDuration latency);
  void Reset();

  uint64_t count() const { return samples_.size(); }
  double MeanMs() const;
  // p is clamped to [0, 100]; empty recorders report 0 for every statistic.
  double PercentileMs(double p) const;
  double MaxMs() const;

 private:
  mutable std::vector<SimDuration> samples_;
  mutable bool sorted_ = true;
  int64_t sum_ = 0;
  int64_t max_ = 0;
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_METRICS_H_
