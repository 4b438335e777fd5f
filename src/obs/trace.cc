#include "src/obs/trace.h"

#include <cstdio>
#include <unordered_map>

#include "src/obs/json.h"

namespace achilles {
namespace obs {

SpanTracer::SpanTracer(size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

void SpanTracer::Push(const SpanEvent& e) {
  if (size_ == ring_.size()) {
    ++dropped_;  // Overwriting the oldest slot.
  } else {
    ++size_;
  }
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_.size();
}

uint64_t SpanTracer::Begin(const char* name, uint32_t tid, SimTime now, uint64_t parent,
                           uint64_t arg) {
  const uint64_t id = next_id_++;
  Push(SpanEvent{SpanEvent::Kind::kBegin, tid, name, id, parent, arg, now});
  return id;
}

void SpanTracer::End(uint64_t id, uint32_t tid, SimTime now) {
  if (id == 0) {
    return;
  }
  Push(SpanEvent{SpanEvent::Kind::kEnd, tid, "", id, 0, 0, now});
}

void SpanTracer::Instant(const char* name, uint32_t tid, SimTime now, uint64_t parent,
                         uint64_t arg) {
  Push(SpanEvent{SpanEvent::Kind::kInstant, tid, name, 0, parent, arg, now});
}

std::vector<SpanEvent> SpanTracer::Events() const {
  std::vector<SpanEvent> out;
  out.reserve(size_);
  const size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

namespace {

double ToTraceUs(SimTime ns) { return static_cast<double>(ns) / 1000.0; }

struct SpanRecord {
  SpanEvent begin;
  SimTime end_ts = -1;  // -1 = no matching end survived.
};

}  // namespace

std::string SpanTracer::ExportChromeTrace() const {
  const std::vector<SpanEvent> events = Events();

  // Pair Begin/End by span id; remember each span's begin for flow arrows.
  std::vector<SpanRecord> spans;
  std::unordered_map<uint64_t, size_t> open;  // span id -> index in `spans`.
  std::vector<SpanEvent> instants;
  for (const SpanEvent& e : events) {
    switch (e.kind) {
      case SpanEvent::Kind::kBegin:
        open[e.id] = spans.size();
        spans.push_back(SpanRecord{e, -1});
        break;
      case SpanEvent::Kind::kEnd: {
        auto it = open.find(e.id);
        if (it != open.end()) {
          spans[it->second].end_ts = e.ts;
        }
        break;  // Ends whose begin was overwritten are dropped.
      }
      case SpanEvent::Kind::kInstant:
        instants.push_back(e);
        break;
    }
  }

  JsonWriter w;
  w.BeginObject().KeyBeginArray("traceEvents");
  auto common = [&w](const char* name, uint32_t tid, SimTime ts) {
    w.BeginObject()
        .Field("name", name)
        .Field("pid", static_cast<uint64_t>(0))
        .Field("tid", static_cast<uint64_t>(tid))
        .Field("ts", ToTraceUs(ts));
  };
  for (const SpanRecord& s : spans) {
    const SimTime end = s.end_ts >= s.begin.ts ? s.end_ts : s.begin.ts;
    common(s.begin.name, s.begin.tid, s.begin.ts);
    w.Field("ph", "X")
        .Field("dur", ToTraceUs(end - s.begin.ts))
        .KeyBeginObject("args")
        .Field("span", s.begin.id)
        .Field("parent", s.begin.parent)
        .Field("v", s.begin.arg)
        .EndObject()
        .EndObject();
    // Flow arrow from the parent span's track when the parent lives elsewhere.
    if (s.begin.parent != 0) {
      auto pit = open.find(s.begin.parent);
      if (pit != open.end() && spans[pit->second].begin.tid != s.begin.tid) {
        const SpanRecord& p = spans[pit->second];
        common("flow", p.begin.tid, s.begin.ts >= p.begin.ts ? p.begin.ts : s.begin.ts);
        w.Field("ph", "s").Field("id", s.begin.id).EndObject();
        common("flow", s.begin.tid, s.begin.ts);
        w.Field("ph", "f").Field("bp", "e").Field("id", s.begin.id).EndObject();
      }
    }
  }
  for (const SpanEvent& e : instants) {
    common(e.name, e.tid, e.ts);
    w.Field("ph", "i")
        .Field("s", "t")
        .KeyBeginObject("args")
        .Field("parent", e.parent)
        .Field("v", e.arg)
        .EndObject()
        .EndObject();
  }
  w.EndArray().Field("displayTimeUnit", "ms").EndObject();
  return w.Take();
}

bool SpanTracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ExportChromeTrace();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace obs
}  // namespace achilles
