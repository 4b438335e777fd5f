// Chaos swarm CLI (ISSUE 3): drives thousands of short seeded adversarial runs against a
// protocol (or all of them), checks the global oracles, and on failure writes a replayable
// script artifact plus the run's event log, then delta-minimizes the script.
//
//   chaos_main --protocol all --seeds 1000            # the standard swarm sweep
//   chaos_main --protocol Achilles --seeds 250 --shard 2/4
//   chaos_main --app kv --seeds 200                   # + replicated KV app and the
//                                                     # client-observed linearizability
//                                                     # oracle on every seed
//   chaos_main --broken recovery-nonce --seeds 200    # oracle self-test: MUST flag
//   chaos_main --broken stale-read-lease --seeds 1 --explain
//                                                     # plant the lease bug; the
//                                                     # linearizability oracle must name
//                                                     # the stale read
//   chaos_main --replay 1234                          # re-run one seed, print the log,
//                                                     # verify bit-identical re-execution
//   chaos_main --replay-file chaos_seed_1234.script.txt
//   chaos_main --minimize 1234
//   chaos_main --broken recovery-nonce --seeds 1 --explain
//                                                     # flight recorder + forensics: print
//                                                     # the incident report for the caught
//                                                     # violation
//
// --defense NAME runs every seed under a rollback-defense backend (local|rollbaccine|
// healer; src/storage/defense.h). Quorum defenses swap the -R counters for peer-quorum
// freshness, add peer-rollback reboot fates to the sampler, and arm the defense
// version-monotonic oracle. Script artifacts pin the defense they ran under, and replay
// honors the artifact over the command line.
//
// --reboot-weight P sets the sampler's probability that a script carries crash+reboot
// cycles (default 0.65); CI shards raise it to weight schedules toward reboot coverage.
// --ckpt-weight P weights schedules toward checkpoint coverage: snapshot-surface attacks
// at reboot and long-lag rejoins that exercise snapshot state transfer (default 0.35).
//
// --journal enables the deterministic flight recorder (journal dumped next to the other
// failure artifacts; its digest is an independent replay fingerprint). --explain implies
// --journal and additionally runs the forensics analyzer, printing a causal incident
// report and exporting the journal as Perfetto instants.
//
// Every sweep ends with a fault-space coverage report: how many sampled schedules hit
// each fault kind, each reboot storage-fate surface (WAL x sealed x snapshot), and each
// Byzantine mode — the evidence that the sampler actually explored the space the oracles
// are supposed to police. --coverage-out PATH additionally writes it as JSON (CI uploads
// one per chaos shard).
//
// Exit status: honest sweeps fail (1) on any oracle violation; --broken sweeps invert —
// they fail unless a violation IS found (the planted bug must be caught). --out-dir is
// created up front; exit 2 means a usage error, an --out-dir that cannot be created, or an
// artifact or --coverage-out file that could not be written.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/minimize.h"
#include "src/chaos/runner.h"
#include "src/checkpoint/manager.h"
#include "src/harness/byzantine.h"
#include "src/harness/fault_script.h"
#include "src/harness/flags.h"
#include "src/obs/json.h"
#include "src/storage/defense.h"
#include "src/storage/host_storage.h"

namespace achilles::chaos {
namespace {

struct CliArgs {
  ChaosOptions options;
  uint64_t seeds = 1000;
  uint64_t seed_base = 1;
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  long long replay_seed = -1;
  long long minimize_seed = -1;
  std::string replay_file;
  std::string out_dir = ".";
  std::string coverage_out;  // Sweep coverage report JSON (empty = print only).
  bool verbose = false;
  bool explain = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: chaos_main [--protocol NAME|all] [--seeds N] [--seed-base N]\n"
               "                  [--shard I/K] [--app kv] [--defense "
               "local|rollbaccine|healer]\n"
               "                  [--broken none|recovery-nonce|counter-compare|"
               "stale-read-lease|stale-snapshot-accept|quorum-restore-skip|"
               "cert-floor-skip]\n"
               "                  [--replay SEED] [--replay-file PATH] [--minimize SEED]\n"
               "                  [--reboot-weight P] [--ckpt-weight P] [--out-dir DIR]\n"
               "                  [--journal] [--explain] [--coverage-out PATH] [--verbose]\n");
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "chaos_main: %s needs a value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--protocol") {
      const char* value = next();
      if (value == nullptr) return false;
      if (std::string(value) == "all") {
        args->options.protocol_all = true;
      } else if (ProtocolFromName(value, &args->options.protocol)) {
        args->options.protocol_all = false;
      } else {
        std::fprintf(stderr, "chaos_main: unknown protocol '%s'\n", value);
        return false;
      }
    } else if (flag == "--seeds") {
      const char* value = next();
      if (value == nullptr) return false;
      args->seeds = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seed-base") {
      const char* value = next();
      if (value == nullptr) return false;
      args->seed_base = std::strtoull(value, nullptr, 10);
    } else if (flag == "--shard") {
      const char* value = next();
      if (value == nullptr) return false;
      unsigned index = 0, count = 0;
      if (std::sscanf(value, "%u/%u", &index, &count) != 2 || count == 0 ||
          index >= count) {
        std::fprintf(stderr, "chaos_main: --shard wants I/K with I<K, got '%s'\n", value);
        return false;
      }
      args->shard_index = index;
      args->shard_count = count;
    } else if (flag == "--app") {
      const char* value = next();
      if (value == nullptr) return false;
      if (std::string(value) != "kv") {
        std::fprintf(stderr, "chaos_main: unknown app '%s' (only 'kv')\n", value);
        return false;
      }
      args->options.app_kv = true;
    } else if (flag == "--broken") {
      const char* value = next();
      if (value == nullptr) return false;
      if (!BrokenVariantFromName(value, &args->options.broken)) {
        std::fprintf(stderr, "chaos_main: unknown broken variant '%s'\n", value);
        return false;
      }
    } else if (flag == "--replay") {
      const char* value = next();
      if (value == nullptr) return false;
      args->replay_seed = std::strtoll(value, nullptr, 10);
    } else if (flag == "--replay-file") {
      const char* value = next();
      if (value == nullptr) return false;
      args->replay_file = value;
    } else if (flag == "--minimize") {
      const char* value = next();
      if (value == nullptr) return false;
      args->minimize_seed = std::strtoll(value, nullptr, 10);
    } else if (flag == "--reboot-weight") {
      const char* value = next();
      if (value == nullptr) return false;
      const double weight = std::strtod(value, nullptr);
      if (weight < 0.0 || weight > 1.0) {
        std::fprintf(stderr, "chaos_main: --reboot-weight wants [0,1], got '%s'\n", value);
        return false;
      }
      args->options.reboot_prob = weight;
    } else if (flag == "--ckpt-weight") {
      const char* value = next();
      if (value == nullptr) return false;
      const double weight = std::strtod(value, nullptr);
      if (weight < 0.0 || weight > 1.0) {
        std::fprintf(stderr, "chaos_main: --ckpt-weight wants [0,1], got '%s'\n", value);
        return false;
      }
      args->options.ckpt_prob = weight;
    } else if (flag == "--out-dir") {
      const char* value = next();
      if (value == nullptr) return false;
      args->out_dir = value;
    } else if (flag == "--coverage-out") {
      const char* value = next();
      if (value == nullptr) return false;
      args->coverage_out = value;
    } else if (flag == "--journal") {
      args->options.journal = true;
    } else if (flag == "--explain") {
      args->options.journal = true;
      args->explain = true;
    } else if (flag == "--verbose") {
      args->verbose = true;
    } else {
      std::fprintf(stderr, "chaos_main: unknown flag '%s'\n", flag.c_str());
      Usage();
      return false;
    }
  }
  return true;
}

// Set by any failed artifact write; Main turns an otherwise clean exit into status 2.
bool write_failed = false;

// Writes one artifact and names it on stdout as `label` only once it is on disk.
void WriteFile(const char* label, const std::string& path, const std::string& content,
               const std::string& note = "") {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.close();
  if (!out) {
    std::fprintf(stderr, "chaos_main: cannot write %s\n", path.c_str());
    write_failed = true;
    return;
  }
  std::printf("%s: %s%s\n", label, path.c_str(), note.c_str());
}

void DumpFailure(const CliArgs& args, const ChaosResult& result) {
  const std::string stem =
      args.out_dir + "/chaos_seed_" + std::to_string(result.seed);
  WriteFile("  script", stem + ".script.txt", result.Artifact().ToText());
  WriteFile("  log", stem + ".log.txt", result.LogText());
  if (!result.journal_text.empty()) {
    WriteFile("  journal", stem + ".journal.txt", result.journal_text,
              " (digest " + result.journal_digest_hex + ")");
  }
  if (!result.incident_report.empty()) {
    WriteFile("  incident report", stem + ".incident.txt", result.incident_report);
  }
  if (!result.history_text.empty()) {
    WriteFile("  kv history", stem + ".history.txt", result.history_text,
              " (digest " + result.history_digest_hex + ")");
  }
  if (!result.journal_trace_json.empty()) {
    WriteFile("  journal trace", stem + ".journal.trace.json", result.journal_trace_json,
              " (open in Perfetto)");
  }
}

void MinimizeAndDump(const CliArgs& args, const ChaosResult& failure) {
  std::printf("minimizing seed %llu (%zu events)...\n",
              static_cast<unsigned long long>(failure.seed),
              failure.script.events.size());
  const MinimizeResult minimized = MinimizeScript(args.options, failure.seed,
                                                  failure.protocol, failure.f,
                                                  failure.script);
  std::printf("  %zu -> %zu events, %u -> %u byzantine (%d reruns)\n",
              minimized.original_events, minimized.minimized_events,
              minimized.original_byzantine, minimized.minimized_byzantine,
              minimized.runs);
  if (!minimized.reproduced) {
    std::printf("  (original failure did not reproduce; keeping full script)\n");
    return;
  }
  ScriptArtifact artifact;
  artifact.protocol = ProtocolName(failure.protocol);
  artifact.f = failure.f;
  artifact.seed = failure.seed;
  artifact.defense = persist::DefenseKindName(failure.defense);
  artifact.script = minimized.script;
  const std::string path = args.out_dir + "/chaos_seed_" +
                           std::to_string(failure.seed) + ".min.script.txt";
  std::printf("  minimized violation: %s\n", minimized.violation.c_str());
  WriteFile("  minimized artifact", path, artifact.ToText());
}

void PrintResult(const ChaosResult& result, bool with_log) {
  // The defense tag only appears on defended runs, so local sweeps print byte-identically
  // to the pre-backend harness.
  std::string defense_tag;
  if (result.defense != persist::DefenseKind::kLocal) {
    defense_tag = std::string(" defense=") + persist::DefenseKindName(result.defense);
  }
  std::printf("seed %llu protocol=%s%s f=%u events=%zu byz=%u -> %s\n",
              static_cast<unsigned long long>(result.seed),
              ProtocolName(result.protocol), defense_tag.c_str(), result.f,
              result.script.events.size(), result.script.ByzantineCount(),
              result.ok ? "ok" : result.violation.c_str());
  std::printf("  final height %llu, log digest %s\n",
              static_cast<unsigned long long>(result.final_height),
              result.log_digest_hex.c_str());
  if (!result.journal_digest_hex.empty()) {
    std::printf("  journal digest %s\n", result.journal_digest_hex.c_str());
  }
  if (with_log) {
    std::fputs(result.LogText().c_str(), stdout);
  }
}

void MaybeExplain(const CliArgs& args, const ChaosResult& result) {
  if (args.explain && !result.incident_report.empty()) {
    std::fputs(result.incident_report.c_str(), stdout);
  }
}

int ReplaySeed(const CliArgs& args, uint64_t seed) {
  ChaosResult first = RunChaosSeed(args.options, seed);
  PrintResult(first, args.verbose);
  // Replay determinism check: a second execution must produce a bit-identical event log.
  ChaosResult second = RunChaosSeed(args.options, seed);
  if (first.log_digest_hex != second.log_digest_hex) {
    std::printf("REPLAY MISMATCH: %s vs %s — the harness is nondeterministic\n",
                first.log_digest_hex.c_str(), second.log_digest_hex.c_str());
    return 1;
  }
  std::printf("replay digest matches (%s)\n", first.log_digest_hex.c_str());
  if (args.options.journal) {
    if (first.journal_digest_hex != second.journal_digest_hex) {
      std::printf("JOURNAL MISMATCH: %s vs %s — the flight recorder is nondeterministic\n",
                  first.journal_digest_hex.c_str(), second.journal_digest_hex.c_str());
      return 1;
    }
    std::printf("journal digest matches (%s)\n", first.journal_digest_hex.c_str());
  }
  if (args.options.app_kv || args.options.broken == BrokenVariant::kStaleReadLease) {
    if (first.history_digest_hex != second.history_digest_hex) {
      std::printf("HISTORY MISMATCH: %s vs %s — the KV app is nondeterministic\n",
                  first.history_digest_hex.c_str(), second.history_digest_hex.c_str());
      return 1;
    }
    std::printf("kv history digest matches (%s)\n", first.history_digest_hex.c_str());
  }
  if (!first.ok) {
    DumpFailure(args, first);
    MaybeExplain(args, first);
    return 1;
  }
  return 0;
}

int ReplayFile(const CliArgs& args) {
  std::ifstream in(args.replay_file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "chaos_main: cannot read %s\n", args.replay_file.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ScriptArtifact artifact;
  if (!ScriptArtifact::FromText(buffer.str(), &artifact)) {
    std::fprintf(stderr, "chaos_main: %s is not a valid chaos script\n",
                 args.replay_file.c_str());
    return 2;
  }
  Protocol protocol;
  if (!ProtocolFromName(artifact.protocol, &protocol)) {
    return 2;
  }
  // The artifact pins the defense backend the failing run used (chaos-script v4 header);
  // replaying under a different one would change RNG draws and charge profiles, so the
  // artifact wins over any --defense on the replay command line.
  ChaosOptions options = args.options;
  if (!persist::DefenseKindFromName(artifact.defense, &options.defense)) {
    std::fprintf(stderr, "chaos_main: %s names unknown defense '%s'\n",
                 args.replay_file.c_str(), artifact.defense.c_str());
    return 2;
  }
  ChaosResult result = RunChaosScript(options, artifact.seed, protocol, artifact.f,
                                      artifact.script);
  PrintResult(result, args.verbose);
  if (!result.ok) {
    DumpFailure(args, result);
  }
  MaybeExplain(args, result);
  return result.ok ? 0 : 1;
}

int MinimizeSeed(const CliArgs& args, uint64_t seed) {
  ChaosResult result = RunChaosSeed(args.options, seed);
  PrintResult(result, false);
  if (result.ok) {
    std::printf("seed %llu passes; nothing to minimize\n",
                static_cast<unsigned long long>(seed));
    return 0;
  }
  DumpFailure(args, result);
  MaybeExplain(args, result);
  MinimizeAndDump(args, result);
  return 1;
}

// Fault-space coverage accumulated over one sweep: how many sampled schedules exercised
// each fault kind, each reboot storage-fate surface, and each Byzantine mode. Ordered maps
// so the report (and its JSON artifact) is deterministic across runs.
struct CoverageReport {
  uint64_t runs = 0;
  uint64_t runs_with_reboot = 0;
  uint64_t runs_with_byzantine = 0;
  std::map<std::string, uint64_t> protocols;
  std::map<std::string, uint64_t> fault_kinds;
  // "wal=<fate> sealed=<fate> snapshot=<fate>" -> reboots carrying that surface combo.
  std::map<std::string, uint64_t> reboot_surfaces;
  std::map<std::string, uint64_t> byzantine_modes;
};

void AccumulateCoverage(CoverageReport* cov, const ChaosResult& result) {
  ++cov->runs;
  ++cov->protocols[ProtocolName(result.protocol)];
  bool rebooted = false;
  for (const FaultEvent& event : result.script.events) {
    ++cov->fault_kinds[FaultKindName(event.kind)];
    if (event.kind == FaultKind::kReboot) {
      rebooted = true;
      const StorageFate fate = DecodeStorageFate(event.arg);
      std::string key = std::string("wal=") + storage::WalFateName(fate.wal) +
                        " sealed=" + SealedFateName(fate.sealed) +
                        " snapshot=" + checkpoint::SnapshotFateName(fate.snapshot) +
                        " defense=" + persist::DefenseFateName(fate.defense);
      ++cov->reboot_surfaces[key];
    }
  }
  bool byzantine = false;
  for (ByzantineMode mode : result.script.byzantine) {
    if (mode != ByzantineMode::kNone) {
      byzantine = true;
      ++cov->byzantine_modes[ByzantineModeName(mode)];
    }
  }
  cov->runs_with_reboot += rebooted ? 1 : 0;
  cov->runs_with_byzantine += byzantine ? 1 : 0;
}

void PrintCoverageSection(const char* title, const std::map<std::string, uint64_t>& cells) {
  std::printf("  %s:\n", title);
  if (cells.empty()) {
    std::printf("    (none)\n");
    return;
  }
  for (const auto& [key, count] : cells) {
    std::printf("    %-52s %llu\n", key.c_str(), static_cast<unsigned long long>(count));
  }
}

void PrintCoverage(const CoverageReport& cov) {
  std::printf("\nfault-space coverage: %llu run(s), %llu with reboots, %llu with "
              "byzantine replicas\n",
              static_cast<unsigned long long>(cov.runs),
              static_cast<unsigned long long>(cov.runs_with_reboot),
              static_cast<unsigned long long>(cov.runs_with_byzantine));
  PrintCoverageSection("protocols", cov.protocols);
  PrintCoverageSection("fault kinds (events)", cov.fault_kinds);
  PrintCoverageSection("reboot storage-fate surfaces", cov.reboot_surfaces);
  PrintCoverageSection("byzantine modes (replicas)", cov.byzantine_modes);
}

void CoverageSectionJson(obs::JsonWriter& w, const char* key,
                         const std::map<std::string, uint64_t>& cells) {
  w.KeyBeginObject(key);
  for (const auto& [cell, count] : cells) {
    w.Field(cell, count);
  }
  w.EndObject();
}

std::string CoverageJson(const CliArgs& args, const CoverageReport& cov) {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("runs", cov.runs)
      .Field("runs_with_reboot", cov.runs_with_reboot)
      .Field("runs_with_byzantine", cov.runs_with_byzantine)
      .Field("shard_index", args.shard_index)
      .Field("shard_count", args.shard_count)
      .Field("seed_base", args.seed_base);
  CoverageSectionJson(w, "protocols", cov.protocols);
  CoverageSectionJson(w, "fault_kinds", cov.fault_kinds);
  CoverageSectionJson(w, "reboot_surfaces", cov.reboot_surfaces);
  CoverageSectionJson(w, "byzantine_modes", cov.byzantine_modes);
  w.EndObject();
  std::string out = w.Take();
  out += '\n';
  return out;
}

int FinishSweep(const CliArgs& args, const CoverageReport& cov, int code) {
  PrintCoverage(cov);
  if (!args.coverage_out.empty()) {
    WriteFile("coverage artifact", args.coverage_out, CoverageJson(args, cov));
  }
  return code;
}

int Sweep(const CliArgs& args) {
  const bool expect_violation = args.options.broken != BrokenVariant::kNone;
  uint64_t ran = 0;
  CoverageReport cov;
  std::vector<ChaosResult> failures;
  for (uint64_t i = 0; i < args.seeds; ++i) {
    if (i % args.shard_count != args.shard_index) {
      continue;
    }
    const uint64_t seed = args.seed_base + i;
    ChaosResult result = RunChaosSeed(args.options, seed);
    ++ran;
    AccumulateCoverage(&cov, result);
    if (args.verbose || !result.ok) {
      PrintResult(result, false);
    }
    if (!result.ok) {
      if (expect_violation) {
        std::printf("broken variant '%s' flagged after %llu run(s) (seed %llu)\n",
                    BrokenVariantName(args.options.broken),
                    static_cast<unsigned long long>(ran),
                    static_cast<unsigned long long>(seed));
        MaybeExplain(args, result);
        return FinishSweep(args, cov, 0);
      }
      DumpFailure(args, result);
      MaybeExplain(args, result);
      failures.push_back(std::move(result));
      if (failures.size() >= 3) {
        std::printf("stopping after %zu failures\n", failures.size());
        break;
      }
    } else if (ran % 100 == 0) {
      std::printf("...%llu runs, 0 violations\n", static_cast<unsigned long long>(ran));
      std::fflush(stdout);
    }
  }
  if (expect_violation) {
    std::printf("broken variant '%s' was NOT flagged in %llu run(s) — oracle gap!\n",
                BrokenVariantName(args.options.broken),
                static_cast<unsigned long long>(ran));
    return FinishSweep(args, cov, 1);
  }
  if (failures.empty()) {
    std::printf("swarm clean: %llu run(s), 0 violations\n",
                static_cast<unsigned long long>(ran));
    return FinishSweep(args, cov, 0);
  }
  MinimizeAndDump(args, failures.front());
  std::printf("swarm FAILED: %zu violation(s) in %llu run(s)\n", failures.size(),
              static_cast<unsigned long long>(ran));
  return FinishSweep(args, cov, 1);
}

int Main(int argc, char** argv) {
  // The shared flag family first (src/harness/flags.h): --defense is spelled exactly as on
  // the bench binaries; the out-path flags are accepted for uniformity and unused here.
  harness::FlagSet shared("chaos_main");
  if (!shared.Parse(&argc, argv)) {
    return 2;
  }
  CliArgs args;
  args.options.defense = shared.defense();
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "chaos_main: cannot create --out-dir %s: %s\n",
                 args.out_dir.c_str(), ec.message().c_str());
    return 2;
  }
  int code;
  if (!args.replay_file.empty()) {
    code = ReplayFile(args);
  } else if (args.replay_seed >= 0) {
    code = ReplaySeed(args, static_cast<uint64_t>(args.replay_seed));
  } else if (args.minimize_seed >= 0) {
    code = MinimizeSeed(args, static_cast<uint64_t>(args.minimize_seed));
  } else {
    code = Sweep(args);
  }
  return code == 0 && write_failed ? 2 : code;
}

}  // namespace
}  // namespace achilles::chaos

int main(int argc, char** argv) {
  return achilles::chaos::Main(argc, argv);
}
