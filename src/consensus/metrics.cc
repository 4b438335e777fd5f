#include "src/consensus/metrics.h"

#include <algorithm>

namespace achilles {

void LatencyRecorder::Record(SimDuration latency) {
  const int64_t clamped = std::max<int64_t>(latency, 0);
  sum_ += clamped;
  max_ = std::max(max_, clamped);
  samples_.push_back(latency);
  sorted_ = false;
}

void LatencyRecorder::Reset() {
  samples_.clear();
  sorted_ = true;
  sum_ = 0;
  max_ = 0;
}

double LatencyRecorder::MeanMs() const {
  const double mean = samples_.empty() ? 0.0 : static_cast<double>(sum_) / samples_.size();
  return mean / kMillisecond;
}

double LatencyRecorder::PercentileMs(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  const double v = static_cast<double>(samples_[lo]) * (1.0 - frac) +
                   static_cast<double>(samples_[hi]) * frac;
  return v / kMillisecond;
}

double LatencyRecorder::MaxMs() const {
  return static_cast<double>(max_) / kMillisecond;
}

}  // namespace achilles
