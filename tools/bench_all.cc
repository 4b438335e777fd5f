// bench_all: runs every bench binary with --json-out and merges the per-bench headlines
// into one BENCH_summary.json for CI artifacts and cross-commit comparison.
//
// Usage: bench_all [--smoke] [--jobs=N] [--bin-dir=DIR] [--out=PATH] [--defense=NAME]
//
//   --smoke        CI plumbing mode: exports ACHILLES_BENCH_SCALE=0.05 to the child
//                  benches, which shrinks every measured window (src/harness/experiment.cc
//                  applies the factor with floors). Numbers at smoke scale are for
//                  checking that the pipeline works, not for quoting.
//   --jobs=N       Run up to N bench binaries concurrently. Each child's stdout/stderr is
//                  buffered to BENCH_<name>.log and replayed in the fixed kBenches order
//                  once everything finishes, and reports merge in that same order — the
//                  summary is byte-identical to a --jobs=1 run apart from its "jobs" field.
//   --bin-dir=DIR  Directory holding the bench_* binaries (default: auto-detected from
//                  argv[0], assuming the CMake layout build/tools + build/bench).
//   --out=PATH     Summary path (default BENCH_summary.json in the working directory).
//   --defense=NAME Forward --defense=NAME (local|rollbaccine|healer) to every child bench
//                  except bench_defense (which sweeps all backends itself), so a whole
//                  summary can be generated under one rollback-defense backend.
//
// The summary embeds, per bench: exit code and headline stats of the best-throughput run
// (TPS, commit p50/p99, e2e p99, latency breakdown, critical path, simulator event counts,
// retention footprint). Across benches: the profiled run with the most commits
// ("critpath") and the gauges tools/bench_trend tracks ("gauges"). Plus
// run metadata: git commit/branch/dirty and the default CostModel the benches simulate.
// Every field is virtual-time or config data, so two runs with the same flags on the same
// tree write the same bytes; wall-clock speed is the repository benchmark's job
// (perfbench/, gated by tools/perf_gate.py). Full per-bench reports stay in the
// BENCH_<name>.json files next to the summary.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/flags.h"
#include "src/obs/json.h"
#include "src/tee/cost_model.h"
#include "tools/json_reader.h"

namespace achilles {
namespace {

const char* const kBenches[] = {
    "bench_fig3_main",        "bench_fig4_saturation",  "bench_fig5_counter_sweep",
    "bench_table1_comparison", "bench_table2_recovery", "bench_table3_profiling",
    "bench_table4_counters",  "bench_ablation_achilles", "bench_context_protocols",
    "bench_parallel_instances", "bench_app_kv",  "bench_checkpoint",
    "bench_sim_core",         "bench_defense",
};

std::string Dirname(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

// Locates the bench binary: explicit --bin-dir wins, otherwise the sibling bench/
// directory of this binary's location (CMake layout), then the working directory.
std::string FindBinary(const std::string& bin_dir, const std::string& argv0_dir,
                       const char* name) {
  std::vector<std::string> candidates;
  if (!bin_dir.empty()) {
    candidates.push_back(bin_dir + "/" + name);
  } else {
    candidates.push_back(argv0_dir + "/../bench/" + name);
    candidates.push_back(argv0_dir + "/" + name);
    candidates.push_back(std::string("bench/") + name);
    candidates.push_back(std::string("./") + name);
  }
  for (const std::string& candidate : candidates) {
    if (access(candidate.c_str(), X_OK) == 0) {
      return candidate;
    }
  }
  return "";
}

std::string RunCommandLine(const std::string& cmd) {
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return out;
  }
  char buf[256];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) {
    out += buf;
  }
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::string out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return out;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

// Re-serializes a parsed value through the writer (numbers round-trip as doubles, which
// is how the bench reports emit them in the first place).
void WriteValue(obs::JsonWriter& w, const obs::JsonValue& v) {
  using Kind = obs::JsonValue::Kind;
  switch (v.kind) {
    case Kind::kNull:
      w.Null();
      break;
    case Kind::kBool:
      w.Bool(v.boolean);
      break;
    case Kind::kNumber:
      w.Double(v.number);
      break;
    case Kind::kString:
      w.String(v.string);
      break;
    case Kind::kArray:
      w.BeginArray();
      for (const obs::JsonValue& elem : v.array) {
        WriteValue(w, elem);
      }
      w.EndArray();
      break;
    case Kind::kObject:
      w.BeginObject();
      for (const auto& [key, value] : v.object) {
        w.Key(key);
        WriteValue(w, value);
      }
      w.EndObject();
      break;
  }
}

double NumberOr(const obs::JsonValue* v, double fallback) {
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

void WriteCostModel(obs::JsonWriter& w) {
  const CostModel m = CostModel::Default();
  w.KeyBeginObject("cost_model_default")
      .Field("sign_ns", static_cast<int64_t>(m.sign))
      .Field("verify_ns", static_cast<int64_t>(m.verify))
      .Field("verify_batch_fixed_ns", static_cast<int64_t>(m.verify_batch_fixed))
      .Field("verify_batch_per_sig_ns", static_cast<int64_t>(m.verify_batch_per_sig))
      .Field("hash_ns_per_byte", m.hash_ns_per_byte)
      .Field("hash_fixed_ns", static_cast<int64_t>(m.hash_fixed))
      .Field("ecall_round_trip_ns", static_cast<int64_t>(m.ecall_round_trip))
      .Field("enclave_crypto_factor", m.enclave_crypto_factor)
      .Field("per_tx_execute_ns", static_cast<int64_t>(m.per_tx_execute))
      .Field("per_tx_client_ns", static_cast<int64_t>(m.per_tx_client))
      .Field("per_msg_handling_ns", static_cast<int64_t>(m.per_msg_handling))
      .Field("seal_op_ns", static_cast<int64_t>(m.seal_op))
      .Field("log_fsync_ns", static_cast<int64_t>(m.log_fsync))
      .EndObject();
}

void WriteGitMetadata(obs::JsonWriter& w) {
  const std::string commit = RunCommandLine("git rev-parse HEAD 2>/dev/null");
  const std::string branch = RunCommandLine("git rev-parse --abbrev-ref HEAD 2>/dev/null");
  const std::string dirty = RunCommandLine("git status --porcelain 2>/dev/null");
  w.KeyBeginObject("git")
      .Field("commit", commit.empty() ? "unknown" : commit)
      .Field("branch", branch.empty() ? "unknown" : branch)
      .Field("dirty", !dirty.empty())
      .EndObject();
}

// Picks the run with the highest throughput and emits its headline stats, latency
// breakdown, and the simulator self-profiling gauges recorded alongside it. Returns that
// run, or nullptr for a table-only bench.
const obs::JsonValue* WriteHeadline(obs::JsonWriter& w, const obs::JsonValue& report) {
  const obs::JsonValue* runs = report.Get("runs");
  const size_t num_runs = (runs != nullptr && runs->is_array()) ? runs->array.size() : 0;
  w.Field("runs", static_cast<uint64_t>(num_runs));
  const obs::JsonValue* best = nullptr;
  double best_tps = -1.0;
  for (size_t i = 0; i < num_runs; ++i) {
    const obs::JsonValue* stats = runs->array[i].Get("stats");
    if (stats == nullptr) {
      continue;
    }
    const double tps = NumberOr(stats->Get("throughput_tps"), -1.0);
    if (tps > best_tps) {
      best_tps = tps;
      best = &runs->array[i];
    }
  }
  if (best == nullptr) {
    // Table-only bench (drives clusters manually); its results live in its own report.
    w.Key("peak").Null();
    return nullptr;
  }
  const obs::JsonValue* stats = best->Get("stats");
  w.KeyBeginObject("peak")
      .Field("throughput_tps", NumberOr(stats->Get("throughput_tps"), 0.0))
      .Field("commit_p50_ms", NumberOr(stats->Get("commit_p50_ms"), 0.0))
      .Field("commit_p99_ms", NumberOr(stats->Get("commit_p99_ms"), 0.0))
      .Field("e2e_latency_ms", NumberOr(stats->Get("e2e_latency_ms"), 0.0))
      .Field("e2e_p99_ms", NumberOr(stats->Get("e2e_p99_ms"), 0.0));
  if (const obs::JsonValue* breakdown = stats->Get("breakdown_ms")) {
    w.Key("breakdown_ms");
    WriteValue(w, *breakdown);
  }
  // Causal critical-path summary of the peak run, when the bench profiled one.
  if (const obs::JsonValue* critpath = stats->Get("critpath")) {
    const obs::JsonValue* enabled = critpath->Get("enabled");
    if (enabled != nullptr && enabled->boolean) {
      w.Key("critpath");
      WriteValue(w, *critpath);
    }
  }
  const obs::JsonValue* metrics = best->Get("metrics");
  if (metrics != nullptr && metrics->is_object()) {
    // Simulator event counts; the wall-clock sim.* gauges would make the summary differ
    // between identical runs, so they stay in the per-bench report.
    w.KeyBeginObject("sim");
    for (const auto& [key, value] : metrics->object) {
      if (key.rfind("sim.", 0) == 0 && key.find("wall") == std::string::npos) {
        w.Key(key);
        WriteValue(w, value);
      }
    }
    w.EndObject();
    // Retention footprint of the peak run (per-node labeled gauges); present in every
    // export — smoke included — since RunMeasured refreshes them unconditionally.
    w.KeyBeginObject("footprint");
    for (const auto& [key, value] : metrics->object) {
      if (key.rfind("log.", 0) == 0 || key.rfind("ckpt.", 0) == 0) {
        w.Key(key);
        WriteValue(w, value);
      }
    }
    w.EndObject();
  }
  w.EndObject();
  return best;
}

// One bench child scheduled by the --jobs pool.
struct BenchTask {
  const char* name = nullptr;
  std::string binary;         // Empty when the binary was not found.
  std::string json_path;      // Per-bench report the child writes.
  std::string log_path;       // Child stdout+stderr when running concurrently.
  std::string critpath_path;  // Non-empty: pass --critpath-out=<path> to the child.
  std::string defense;        // Non-empty: pass --defense=<name> to the child.
  int exit_code = 0;
};

std::string TaskCommand(const BenchTask& task) {
  std::string cmd = task.binary + " --json-out=" + task.json_path;
  if (!task.critpath_path.empty()) {
    cmd += " --critpath-out=" + task.critpath_path;
  }
  if (!task.defense.empty()) {
    cmd += " --defense=" + task.defense;
  }
  return cmd;
}

// Runs `tasks` with up to `jobs` concurrent children. Sequential runs stream child output
// directly; concurrent runs buffer it per-child (the shell redirect) and replay the logs
// in task order afterwards, so interleaving never scrambles the tables a human reads.
void RunTasks(std::vector<BenchTask>& tasks, int jobs) {
  if (jobs <= 1) {
    for (BenchTask& task : tasks) {
      if (task.binary.empty()) {
        continue;
      }
      std::printf("=== bench_all: running %s ===\n", task.binary.c_str());
      std::fflush(stdout);
      const std::string cmd = TaskCommand(task);
      task.exit_code = std::system(cmd.c_str());
    }
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&tasks, &next] {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= tasks.size()) {
        return;
      }
      BenchTask& task = tasks[i];
      if (task.binary.empty()) {
        continue;
      }
      const std::string cmd = TaskCommand(task) + " > " + task.log_path + " 2>&1";
      task.exit_code = std::system(cmd.c_str());
    }
  };
  std::vector<std::thread> pool;
  const size_t width = std::min<size_t>(static_cast<size_t>(jobs), tasks.size());
  pool.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  for (const BenchTask& task : tasks) {
    if (task.binary.empty()) {
      continue;
    }
    std::printf("=== bench_all: %s (exit %d) ===\n", task.binary.c_str(), task.exit_code);
    const std::string log = ReadFile(task.log_path);
    std::fwrite(log.data(), 1, log.size(), stdout);
    std::fflush(stdout);
  }
}

int Main(int argc, char** argv) {
  // Shared flag family: --defense=NAME here is forwarded verbatim to every child bench
  // (bench_defense ignores it — it sweeps all backends by design). The out-path flags are
  // consumed but unused; bench_all's own --out= controls the summary path.
  harness::FlagSet shared("bench_all");
  if (!shared.Parse(&argc, argv)) {
    return 2;
  }
  bool smoke = false;
  const double scale = 0.05;
  int jobs = 1;
  std::string bin_dir;
  std::string out_path = "BENCH_summary.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::atoi(arg.c_str() + 7);
      if (jobs < 1) {
        std::fprintf(stderr, "bench_all: --jobs wants a positive integer\n");
        return 2;
      }
    } else if (arg.rfind("--bin-dir=", 0) == 0) {
      bin_dir = arg.substr(10);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::fprintf(stderr,
                   "usage: bench_all [--smoke] [--jobs=N] [--bin-dir=DIR] [--out=PATH] "
                   "[--defense=NAME]\n");
      return 2;
    }
  }
  if (smoke) {
    char scale_buf[32];
    std::snprintf(scale_buf, sizeof(scale_buf), "%g", scale);
    setenv("ACHILLES_BENCH_SCALE", scale_buf, /*overwrite=*/1);
    std::printf("bench_all: smoke mode, ACHILLES_BENCH_SCALE=%s\n", scale_buf);
  }
  const std::string argv0_dir = Dirname(argv[0]);

  // Build the task list up front: execution (possibly out of order across a
  // thread pool) is separated from merging, which always walks tasks in kBenches order.
  std::vector<BenchTask> tasks;
  for (const char* name : kBenches) {
    BenchTask task;
    task.name = name;
    // BenchIo would default to BENCH_<name-without-prefix>.json; pass the path explicitly
    // so the merge step does not depend on that convention.
    task.json_path = std::string("BENCH_") + (name + std::strlen("bench_")) + ".json";
    task.log_path = std::string("BENCH_") + (name + std::strlen("bench_")) + ".log";
    // Table 3 carries the causal profiler always-on; export its profile + flamegraph
    // artifacts alongside the summary (CI uploads BENCH_*.json and *.folded).
    if (std::strcmp(name, "bench_table3_profiling") == 0) {
      task.critpath_path =
          std::string("BENCH_") + (name + std::strlen("bench_")) + ".critpath.json";
    }
    // --defense fans out to every child except bench_defense, whose whole point is the
    // cross-backend sweep (it would reject a pin as a silently-narrowed comparison).
    if (shared.defense_set() && std::strcmp(name, "bench_defense") != 0) {
      task.defense = persist::DefenseKindName(shared.defense());
    }
    task.binary = FindBinary(bin_dir, argv0_dir, name);
    if (task.binary.empty()) {
      std::fprintf(stderr, "bench_all: %s not found (use --bin-dir)\n", name);
    }
    tasks.push_back(std::move(task));
  }
  if (jobs > 1) {
    std::printf("bench_all: running %zu bench(es) with %d concurrent job(s)\n",
                tasks.size(), jobs);
  }
  RunTasks(tasks, jobs);

  obs::JsonWriter w;
  w.BeginObject().Field("generated_by", "bench_all").Field("smoke", smoke);
  if (smoke) {
    w.Field("scale", scale);
  }
  if (shared.defense_set()) {
    w.Field("defense", persist::DefenseKindName(shared.defense()));
  }
  w.Field("jobs", static_cast<int64_t>(jobs));
  WriteGitMetadata(w);
  WriteCostModel(w);
  w.KeyBeginArray("benches");

  int failures = 0;
  int ran = 0;
  // Summary-level causal headline: the profiled run (across all benches) with the most
  // commits — i.e. the statistically strongest critical-path sample of the whole sweep.
  std::optional<obs::JsonValue> critpath_headline;
  std::string critpath_headline_bench;
  double critpath_headline_commits = -1.0;
  // Cross-bench gauges bench_trend tracks, all virtual-time deterministic and lower-is-
  // better: fig4's peak-run commit p50, the worst per-node retained log bytes of any
  // bench's peak run, and the worst steady-state throughput tax a quorum rollback-defense
  // backend charged over the same-protocol local baseline (bench_defense's per-run
  // defense.tax_pct; a defended run can beat its baseline, as the quorum wait replaces the
  // counter device, so the gauge clamps at 0).
  std::map<std::string, double> gauges;
  auto raise = [&gauges](const char* name, double value) {
    double& slot = gauges.emplace(name, value).first->second;
    slot = std::max(slot, value);
  };
  for (const BenchTask& task : tasks) {
    w.BeginObject().Field("binary", task.name).Field("json_path", task.json_path);
    if (task.binary.empty()) {
      w.Field("exit_code", static_cast<int64_t>(-1)).Field("error", "binary not found");
      w.EndObject();
      ++failures;
      continue;
    }
    w.Field("exit_code", static_cast<int64_t>(task.exit_code));
    ++ran;
    if (task.exit_code != 0) {
      std::fprintf(stderr, "bench_all: %s exited with %d\n", task.name, task.exit_code);
      w.EndObject();
      ++failures;
      continue;
    }
    const std::string text = ReadFile(task.json_path);
    const std::optional<obs::JsonValue> report = obs::ParseJson(text);
    if (!report.has_value() || !report->is_object()) {
      std::fprintf(stderr, "bench_all: %s produced unparseable JSON at %s\n", task.name,
                   task.json_path.c_str());
      w.Field("error", "unparseable json").EndObject();
      ++failures;
      continue;
    }
    if (const obs::JsonValue* bench_name = report->Get("bench")) {
      if (bench_name->is_string()) {
        w.Field("bench", bench_name->string);
      }
    }
    if (const obs::JsonValue* peak = WriteHeadline(w, *report)) {
      if (std::strcmp(task.name, "bench_fig4_saturation") == 0) {
        raise("fig4.commit_p50_ms", NumberOr(peak->Get("stats")->Get("commit_p50_ms"), 0.0));
      }
      if (const obs::JsonValue* metrics = peak->Get("metrics")) {
        for (const auto& [key, value] : metrics->object) {
          if (key.rfind("log.bytes_retained", 0) == 0 && value.is_number()) {
            raise("log.bytes_retained_max", value.number);
          }
        }
      }
    }
    const obs::JsonValue* runs = report->Get("runs");
    if (runs != nullptr && runs->is_array()) {
      for (const obs::JsonValue& run : runs->array) {
        if (const obs::JsonValue* metrics = run.Get("metrics")) {
          const obs::JsonValue* tax = metrics->Get("defense.tax_pct");
          if (tax != nullptr && tax->is_number()) {
            raise("defense.tax_pct_max", std::max(0.0, tax->number));
          }
        }
        const obs::JsonValue* stats = run.Get("stats");
        const obs::JsonValue* critpath = stats != nullptr ? stats->Get("critpath") : nullptr;
        if (critpath == nullptr) {
          continue;
        }
        const obs::JsonValue* enabled = critpath->Get("enabled");
        const double commits = NumberOr(critpath->Get("commits"), 0.0);
        if (enabled != nullptr && enabled->boolean && commits > critpath_headline_commits) {
          critpath_headline_commits = commits;
          critpath_headline = *critpath;
          critpath_headline_bench = task.name;
        }
      }
    }
    w.EndObject();
  }
  w.EndArray();
  if (critpath_headline.has_value()) {
    w.KeyBeginObject("critpath").Field("bench", critpath_headline_bench);
    w.Key("summary");
    WriteValue(w, *critpath_headline);
    w.EndObject();
  }
  w.KeyBeginObject("gauges");
  for (const auto& [name, value] : gauges) {
    w.Field(name, value);
  }
  w.EndObject();
  w.Field("benches_run", static_cast<int64_t>(ran))
      .Field("benches_failed", static_cast<int64_t>(failures))
      .EndObject();

  FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_all: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(w.str().data(), 1, w.str().size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("bench_all: wrote %s (%d bench(es), %d failure(s))\n", out_path.c_str(), ran,
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace achilles

int main(int argc, char** argv) { return achilles::Main(argc, argv); }
