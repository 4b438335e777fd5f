// bench_trend: merges historical BENCH_summary.json files (tools/bench_all output) into a
// trend report, and guards a fresh summary's deterministic gauges against the committed one.
//
// Usage:
//   bench_trend FILE...                       chronological trend table, one row per
//                                             summary, one column per tracked gauge,
//                                             with deltas against the first file
//   bench_trend --guard --baseline=PATH --current=PATH
//                                             tripwire: fails (exit 1) when any gauge is
//                                             more than 2x worse than the baseline (lower
//                                             is better for every gauge) or is missing
//                                             from either summary.
//
// Tracked gauges, read from the summary's "gauges" object (bench_all derives them; see
// there). All are virtual-time deterministic, so a smoke-scale summary reproduces the
// committed one exactly. Lower is better for each:
//   fig4.commit_p50_ms         protocol-level commit latency at fig4's peak-TPS run.
//   log.bytes_retained_max     worst per-node retention footprint across every bench's
//                              peak run (WAL + block store; PR 7's bounded-retention claim).
//   defense.tax_pct_max        worst steady-state throughput tax any quorum rollback-defense
//                              backend charged vs the same-protocol local baseline.
// Wall-clock speed is not tracked here: tools/perf_gate.py gates the repository
// benchmark's medians.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/harness/flags.h"
#include "tools/json_reader.h"

namespace achilles {
namespace {

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

// One of the summary's gauges, or -1 when it lacks it.
double GaugeOf(const obs::JsonValue& summary, const char* name) {
  const obs::JsonValue* gauges = summary.Get("gauges");
  const obs::JsonValue* v = gauges != nullptr ? gauges->Get(name) : nullptr;
  return (v != nullptr && v->is_number()) ? v->number : -1.0;
}

constexpr const char* kGauges[] = {
    "fig4.commit_p50_ms",
    "log.bytes_retained_max",
    "defense.tax_pct_max",
};
constexpr size_t kNumGauges = sizeof(kGauges) / sizeof(kGauges[0]);

std::string ShortCommit(const obs::JsonValue& summary) {
  const obs::JsonValue* git = summary.Get("git");
  const obs::JsonValue* commit = git != nullptr ? git->Get("commit") : nullptr;
  if (commit == nullptr || !commit->is_string()) {
    return "unknown";
  }
  std::string out = commit->string.substr(0, 9);
  const obs::JsonValue* dirty = git != nullptr ? git->Get("dirty") : nullptr;
  if (dirty != nullptr && dirty->boolean) {
    out += '*';
  }
  return out;
}

std::string FmtValue(double v) {
  if (v < 0.0) {
    return "-";
  }
  char buf[32];
  if (v >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

int Trend(const std::vector<std::string>& paths) {
  struct Row {
    std::string file;
    std::string commit;
    double values[kNumGauges];
  };
  std::vector<Row> rows;
  for (const std::string& path : paths) {
    const std::optional<obs::JsonValue> summary = obs::ParseJson(ReadFile(path));
    if (!summary.has_value() || !summary->is_object()) {
      std::fprintf(stderr, "bench_trend: %s missing or unparseable\n", path.c_str());
      return 1;
    }
    Row row;
    const size_t slash = path.find_last_of('/');
    row.file = slash == std::string::npos ? path : path.substr(slash + 1);
    row.commit = ShortCommit(*summary);
    for (size_t g = 0; g < kNumGauges; ++g) {
      row.values[g] = GaugeOf(*summary, kGauges[g]);
    }
    rows.push_back(std::move(row));
  }
  std::printf("%-28s %-10s", "summary", "commit");
  for (const char* gauge : kGauges) {
    std::printf(" %24s", gauge);
  }
  std::printf("\n");
  for (const Row& row : rows) {
    std::printf("%-28s %-10s", row.file.c_str(), row.commit.c_str());
    for (size_t g = 0; g < kNumGauges; ++g) {
      std::string cell = FmtValue(row.values[g]);
      // Delta vs the first (oldest) summary, signed so regressions read directly.
      if (&row != &rows.front() && row.values[g] >= 0.0 && rows.front().values[g] > 0.0) {
        char delta[32];
        std::snprintf(delta, sizeof(delta), " (%+.1f%%)",
                      100.0 * (row.values[g] / rows.front().values[g] - 1.0));
        cell += delta;
      }
      std::printf(" %24s", cell.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

// The guard's tolerance: a gauge fails past kSlack x its baseline. Summaries at other
// scales read differently, so the bound is wide; it is a tripwire for a structural change
// (a gauge doubling or vanishing), not a fine-grained perf gate.
constexpr double kSlack = 2.0;

int Guard(const std::string& baseline_path, const std::string& current_path) {
  const std::optional<obs::JsonValue> baseline = obs::ParseJson(ReadFile(baseline_path));
  const std::optional<obs::JsonValue> current = obs::ParseJson(ReadFile(current_path));
  if (!baseline.has_value() || !baseline->is_object()) {
    std::fprintf(stderr, "bench_trend: baseline %s missing or unparseable\n",
                 baseline_path.c_str());
    return 1;
  }
  if (!current.has_value() || !current->is_object()) {
    std::fprintf(stderr, "bench_trend: current %s missing or unparseable\n",
                 current_path.c_str());
    return 1;
  }
  int failures = 0;
  for (const char* gauge : kGauges) {
    const double base = GaugeOf(*baseline, gauge);
    const double now = GaugeOf(*current, gauge);
    if (base < 0.0 || now < 0.0) {
      // A gauge gone from either summary is a coverage regression; silently skipping it
      // would defeat the guard.
      std::fprintf(stderr, "bench_trend: guard %-26s FAIL (gauge missing from %s)\n",
                   gauge, base < 0.0 ? baseline_path.c_str() : current_path.c_str());
      ++failures;
      continue;
    }
    const bool ok = now <= kSlack * base;
    std::printf("bench_trend: guard %-26s %s vs %s (%.2fx, %s)\n", gauge,
                FmtValue(now).c_str(), FmtValue(base).c_str(), now / base,
                ok ? "ok" : "FAIL");
    if (!ok) {
      std::fprintf(stderr,
                   "bench_trend: REGRESSION: %s is %.2fx the committed baseline "
                   "(allowed: <= %.2fx).\n"
                   "If intentional, regenerate the baseline summary (see EXPERIMENTS.md).\n",
                   gauge, now / base, kSlack);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  // Accept the shared flag family silently (CI invokes every tool with a uniform tail);
  // bench_trend reads summaries, so the values are unused.
  harness::FlagSet shared("bench_trend");
  if (!shared.Parse(&argc, argv)) {
    return 2;
  }
  bool guard = false;
  std::string baseline;
  std::string current;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--guard") {
      guard = true;
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline = arg.substr(11);
    } else if (arg.rfind("--current=", 0) == 0) {
      current = arg.substr(10);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: bench_trend FILE... | bench_trend --guard --baseline=PATH "
                   "--current=PATH\n");
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (guard) {
    if (baseline.empty() || current.empty()) {
      std::fprintf(stderr, "bench_trend: --guard needs --baseline= and --current=\n");
      return 2;
    }
    return Guard(baseline, current);
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: bench_trend FILE... | bench_trend --guard --baseline=PATH "
                 "--current=PATH\n");
    return 2;
  }
  return Trend(files);
}

}  // namespace
}  // namespace achilles

int main(int argc, char** argv) { return achilles::Main(argc, argv); }
