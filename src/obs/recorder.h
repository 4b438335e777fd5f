// One causal record stream. Host, Network and CommitTracker emit each observation once into
// a Recorder, which feeds up to three concrete sinks directly: the flight-recorder journal
// (every JournalKind), the span-trace ring (one span per handler; journal control kinds as
// instants) and the critical-path DAG (origins, handlers, transits, charges, quorum
// notes/joins, confirmations). A sink that is off is never built, and a Recorder with every
// sink off is never handed to the hooks. Each sink keeps its own numbering; obs::Cause
// carries a chain's parent id in each. Recording is memory-only and never touches virtual
// time or the simulation RNG, so every digest is bit-identical with any sink on or off.
#ifndef SRC_OBS_RECORDER_H_
#define SRC_OBS_RECORDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/obs/breakdown.h"
#include "src/obs/critpath.h"
#include "src/obs/journal.h"
#include "src/obs/trace.h"

namespace achilles {
namespace obs {

class Recorder {
 public:
  // Builds the sinks that are on; `trace_capacity` sizes the span ring.
  Recorder(bool tracing, size_t trace_capacity, bool journaling, bool critpath);

  // Whether any sink is on, and the sinks (null when off).
  bool active() const { return tracer_ || journal_ || critpath_; }
  SpanTracer* tracer() const { return tracer_.get(); }
  Journal* journal() const { return journal_.get(); }
  CritPathCollector* critpath() const { return critpath_.get(); }

  // --- Records (times are virtual; critpath.h documents the DAG semantics) -------------

  // A JournalKind record on `node` under `parent`. Returns the cause of a record chained
  // after it (a send's deliver, a deliver's handler). A crash also severs the node's CPU
  // chain in the critical-path DAG (the reboot resets the CPU horizon).
  Cause Event(uint32_t node, JournalKind kind, SimTime ts, const Cause& parent,
              uint64_t a = 0, uint64_t b = 0, std::string_view detail = {});

  // Handler dispatch: the chain became ready at `ready`, got the CPU at `start`. `*cause`
  // becomes the handler's own (its span and critical-path activity).
  void Dispatch(uint32_t node, const char* name, SimTime ready, SimTime start,
                Cause* cause) {
    if (critpath_) {
      cause->activity_ = critpath_->BeginHandler(node, name, cause->activity_, ready, start);
    }
    if (tracer_) {
      cause->span_ = tracer_->Begin(name, node, start, cause->span_);
    }
  }
  void HandlerEnd(uint32_t node, const Cause& cause, SimTime end) {
    if (tracer_) {
      tracer_->End(cause.span_, node, end);
    }
  }
  // A CPU charge of `d` as `c` inside the handler running under `cause`.
  void Charge(const Cause& cause, Component c, SimDuration d) {
    if (critpath_ && cause.activity_ != 0) {
      critpath_->AddService(cause.activity_, c, d);
    }
  }
  // The running handler re-anchored its chain at proposal point `origin`.
  void Origin(uint32_t node, SimTime origin, SimTime now, Cause* cause) {
    if (critpath_) {
      cause->activity_ = critpath_->BeginOrigin(node, origin, now);
    }
  }
  void Transit(uint32_t from, uint32_t to, const char* name, SimTime dep, SimTime tx_start,
               SimTime tx_end, SimTime arrival, uint32_t nic, bool holds_nic, Cause* cause) {
    if (critpath_) {
      cause->activity_ = critpath_->BeginTransit(from, to, name, cause->activity_, dep,
                                                 tx_start, tx_end, arrival, nic, holds_nic);
    }
  }
  void QuorumNote(uint64_t key, const Cause& cause, SimTime at) {
    if (critpath_) {
      critpath_->NoteInput(key, cause.activity_, at);
    }
  }
  void QuorumJoin(uint64_t key, const Cause& cause, SimTime at) {
    if (critpath_) {
      critpath_->JoinInputs(key, cause.activity_, at);
    }
  }
  // The chain `path` reached client confirmation of block `height`.
  void Confirm(const Path& path, uint64_t height, SimTime confirm, int64_t submit_sum_ns,
               uint64_t tx_count) {
    if (critpath_) {
      critpath_->OnConfirm(path.cause.activity_, path.origin, height, confirm,
                           submit_sum_ns, tx_count);
    }
  }
  // Start of a measurement window.
  void ResetWindow() {
    if (critpath_) {
      critpath_->ResetWindow();
    }
  }

  // Chrome trace JSON of the journal's surviving records, rendered exactly as the live
  // trace sink renders them (the chaos runner's incident view); empty without a journal.
  std::string JournalTraceJson() const;

 private:
  std::unique_ptr<SpanTracer> tracer_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<CritPathCollector> critpath_;
};

}  // namespace obs
}  // namespace achilles

#endif  // SRC_OBS_RECORDER_H_
