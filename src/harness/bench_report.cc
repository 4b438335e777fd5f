#include "src/harness/bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/harness/flags.h"
#include "src/obs/json.h"

namespace achilles {
namespace {

const char* CounterKindName(CounterKind kind) {
  switch (kind) {
    case CounterKind::kNone:
      return "none";
    case CounterKind::kCustom:
      return "custom";
    default:
      return "builtin";
  }
}

void WriteConfig(obs::JsonWriter* w, const ClusterConfig& config) {
  w->BeginObject()
      .Field("protocol", ProtocolName(config.protocol))
      .Field("f", config.f)
      .Field("n", ReplicasFor(config.protocol, config.f))
      .Field("batch_size", static_cast<uint64_t>(config.batch_size))
      .Field("payload_size", config.payload_size)
      .Field("seed", config.seed)
      .Field("client_rate_tps", config.client_rate_tps)
      .Field("commit_fast_path", config.commit_fast_path)
      .Field("base_timeout_ns", config.base_timeout)
      .Field("defense", persist::DefenseKindName(config.defense));
  w->KeyBeginObject("net")
      .Field("one_way_base_ns", config.net.one_way_base)
      .Field("one_way_jitter_ns", config.net.one_way_jitter)
      .Field("bandwidth_bps", config.net.bandwidth_bps)
      .Field("drop_rate", config.net.drop_rate)
      .EndObject();
  w->KeyBeginObject("counter")
      .Field("kind", CounterKindName(config.counter.kind))
      .Field("write_latency_ns", config.counter.write_latency)
      .Field("read_latency_ns", config.counter.read_latency)
      .EndObject();
  w->EndObject();
}

void WriteStats(obs::JsonWriter* w, const RunStats& stats) {
  w->BeginObject()
      .Field("throughput_tps", stats.throughput_tps)
      .Field("commit_latency_ms", stats.commit_latency_ms)
      .Field("commit_p50_ms", stats.commit_p50_ms)
      .Field("commit_p99_ms", stats.commit_p99_ms)
      .Field("e2e_latency_ms", stats.e2e_latency_ms)
      .Field("e2e_p99_ms", stats.e2e_p99_ms)
      .Field("committed_blocks", stats.committed_blocks)
      .Field("committed_txs", stats.committed_txs)
      .Field("messages", stats.messages)
      .Field("bytes", stats.bytes)
      .Field("counter_writes", stats.counter_writes)
      .Field("safety_ok", stats.safety_ok);
  w->Key("breakdown_ms");
  stats.breakdown.ToJson(w);
  w->Key("critpath");
  stats.critpath.ToJson(*w);
  w->EndObject();
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

BenchReport& BenchReport::Instance() {
  static BenchReport instance;
  return instance;
}

void BenchReport::Configure(std::string bench_name, std::string json_path,
                            std::string trace_path, std::string critpath_path) {
  name_ = std::move(bench_name);
  json_path_ = std::move(json_path);
  trace_path_ = std::move(trace_path);
  critpath_path_ = std::move(critpath_path);
  trace_written_ = false;
  critpath_written_ = false;
  runs_.clear();
  tables_.clear();
}

void BenchReport::RecordTable(const std::vector<std::string>& headers,
                              const std::vector<std::vector<std::string>>& rows) {
  if (!json_enabled()) {
    return;
  }
  obs::JsonWriter w;
  w.BeginObject().KeyBeginArray("headers");
  for (const std::string& h : headers) {
    w.String(h);
  }
  w.EndArray().KeyBeginArray("rows");
  for (const auto& row : rows) {
    w.BeginArray();
    for (const std::string& cell : row) {
      w.String(cell);
    }
    w.EndArray();
  }
  w.EndArray().EndObject();
  tables_.push_back(w.Take());
}

void BenchReport::RecordRun(const ClusterConfig& config, const RunStats& stats,
                            Cluster& cluster) {
  const obs::SpanTracer* tracer = cluster.recorder().tracer();
  if (trace_wanted() && tracer != nullptr) {
    if (tracer->WriteChromeTrace(trace_path_)) {
      std::fprintf(stderr, "trace written to %s\n", trace_path_.c_str());
    } else {
      std::fprintf(stderr, "WARNING: failed to write trace to %s\n", trace_path_.c_str());
    }
    trace_written_ = true;  // One trace per process either way; don't retrace every run.
  }
  const obs::CritPathCollector* cp = cluster.recorder().critpath();
  if (critpath_wanted() && !critpath_written_ && cp != nullptr) {
    bool ok = WriteFile(critpath_path_, cp->ProfileJson());
    ok = WriteFile(critpath_path_ + ".folded", cp->FoldedStacks()) && ok;
    ok = WriteFile(critpath_path_ + ".perfetto.json", cp->PerfettoJson(16)) && ok;
    if (ok) {
      std::fprintf(stderr, "critpath profile written to %s (+.folded, +.perfetto.json)\n",
                   critpath_path_.c_str());
    } else {
      std::fprintf(stderr, "WARNING: failed to write critpath profile to %s\n",
                   critpath_path_.c_str());
    }
    critpath_written_ = true;
  }
  if (!json_enabled()) {
    return;
  }
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("config");
  WriteConfig(&w, config);
  w.Key("stats");
  WriteStats(&w, stats);
  w.Key("metrics");
  cluster.metrics().ToJson(&w);
  w.EndObject();
  runs_.push_back(w.Take());
}

int BenchReport::Finish(int rc) {
  if (!json_enabled() || rc != 0) {
    return rc;
  }
  obs::JsonWriter w;
  w.BeginObject().Field("bench", name_).KeyBeginArray("runs");
  std::string out = w.Take();
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += runs_[i];
  }
  out += "],\"tables\":[";
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += tables_[i];
  }
  out += "]}\n";
  if (!WriteFile(json_path_, out)) {
    std::fprintf(stderr, "ERROR: failed to write %s\n", json_path_.c_str());
    return 1;
  }
  std::fprintf(stderr, "json report written to %s (%zu runs)\n", json_path_.c_str(),
               runs_.size());
  return rc;
}

BenchIo::BenchIo(const char* bench_name, int* argc, char** argv) {
  // The shared family (--defense/--json-out/--trace-out/--critpath-out) is consumed here;
  // whatever survives in argv belongs to the bench itself (e.g. fig3's --net/--sweep).
  harness::FlagSet flags(bench_name);
  if (!flags.Parse(argc, argv)) {
    std::exit(2);
  }
  BenchReport::Instance().Configure(bench_name, flags.json_out(), flags.trace_out(),
                                    flags.critpath_out());
}

}  // namespace achilles
