// Virtual-time span tracer: the span-trace sink of the obs::Recorder stream
// (src/obs/recorder.h). Records begin/end/instant events with parent links into a
// preallocated ring buffer (no allocation, no virtual-time cost on the hot path), and
// exports Chrome trace_event JSON that Perfetto / chrome://tracing open directly.
//
// Timestamps are *virtual* nanoseconds: because the simulator's clock is discrete, tracing
// cannot perturb what it measures — enabling or disabling the tracer changes no simulated
// outcome, only whether the events are remembered.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_time.h"

namespace achilles {
namespace obs {

// One ring-buffer slot. `name` must point at storage outliving the tracer (string
// literals in practice); this keeps recording allocation-free.
struct SpanEvent {
  enum class Kind : uint8_t { kBegin, kEnd, kInstant };

  Kind kind = Kind::kInstant;
  uint32_t tid = 0;       // Track id (host id in cluster runs).
  const char* name = "";  // Static string.
  uint64_t id = 0;        // Span id (Begin/End pairing).
  uint64_t parent = 0;    // Span id of the causal parent; 0 = none.
  uint64_t arg = 0;       // Free-form payload (block height, view, ...), exported as args.v.
  SimTime ts = 0;         // Virtual nanoseconds.
};

class SpanTracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit SpanTracer(size_t capacity = kDefaultCapacity);

  // Records a span opening at `now`; returns its id (always nonzero).
  uint64_t Begin(const char* name, uint32_t tid, SimTime now, uint64_t parent = 0,
                 uint64_t arg = 0);
  void End(uint64_t id, uint32_t tid, SimTime now);
  void Instant(const char* name, uint32_t tid, SimTime now, uint64_t parent = 0,
               uint64_t arg = 0);

  // Events in chronological (recording) order, oldest surviving first.
  std::vector<SpanEvent> Events() const;
  uint64_t dropped() const { return dropped_; }  // Events overwritten by ring wrap.

  // Chrome trace_event JSON (the {"traceEvents":[...]} envelope). Begin/End pairs that
  // both survive in the ring become complete ("X") events; unpaired ends are dropped,
  // unpaired begins are emitted with zero duration. Cross-track parent links additionally
  // emit flow ("s"/"f") arrows so Perfetto draws the causality.
  std::string ExportChromeTrace() const;
  // Writes ExportChromeTrace() to `path`; false on IO failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  void Push(const SpanEvent& e);

  std::vector<SpanEvent> ring_;
  size_t head_ = 0;      // Next write position.
  size_t size_ = 0;      // Occupied slots.
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
};

}  // namespace obs
}  // namespace achilles

#endif  // SRC_OBS_TRACE_H_
