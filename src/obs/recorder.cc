#include "src/obs/recorder.h"

#include <vector>

namespace achilles {
namespace obs {

namespace {

// The trace sink's rendering of a journal record: control kinds become instants on the
// node's track; flow kinds are skipped (they would drown the per-handler spans).
void RenderInstant(SpanTracer* tracer, uint32_t node, JournalKind kind, SimTime ts,
                   uint64_t span, uint64_t a) {
  if (!JournalKindIsFlow(kind)) {
    tracer->Instant(JournalKindName(kind), node, ts, span, a);
  }
}

}  // namespace

Recorder::Recorder(bool tracing, size_t trace_capacity, bool journaling, bool critpath)
    : tracer_(tracing ? std::make_unique<SpanTracer>(trace_capacity) : nullptr),
      journal_(journaling ? std::make_unique<Journal>() : nullptr),
      critpath_(critpath ? std::make_unique<CritPathCollector>() : nullptr) {}

Cause Recorder::Event(uint32_t node, JournalKind kind, SimTime ts, const Cause& parent,
                      uint64_t a, uint64_t b, std::string_view detail) {
  Cause out = parent;
  if (journal_) {
    out.seq_ = journal_->Record(node, kind, ts, parent.seq_, a, b, std::string(detail));
  }
  if (tracer_) {
    RenderInstant(tracer_.get(), node, kind, ts, parent.span_, a);
  }
  if (critpath_ && kind == JournalKind::kCrash) {
    critpath_->OnHostCrash(node);
  }
  return out;
}

std::string Recorder::JournalTraceJson() const {
  if (!journal_) {
    return {};
  }
  const std::vector<JournalRecord> records = journal_->Events();
  SpanTracer trace(records.size());
  for (const JournalRecord& r : records) {
    RenderInstant(&trace, r.node, r.kind, r.ts, /*span=*/0, r.a);
  }
  return trace.ExportChromeTrace();
}

}  // namespace obs
}  // namespace achilles
