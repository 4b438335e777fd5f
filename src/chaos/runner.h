// Chaos runner: executes one seeded adversarial run end to end. A seed deterministically
// selects a protocol (or uses a fixed one), an f, and a sampled FaultScript; the runner
// builds a Cluster, installs the script, wires the OracleSuite to commit/lifecycle/network
// taps, implements the targeted stale-recovery-replay attack, and produces a deterministic
// per-run event log whose SHA-256 digest makes bit-identical replay checkable.
//
// Everything here is driven only by virtual time and the per-run PRNG, so
// RunChaosSeed(options, seed) is a pure function of its arguments: same seed, same log,
// same digest — the property the CI artifacts and the minimizer rely on.
#ifndef SRC_CHAOS_RUNNER_H_
#define SRC_CHAOS_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/cluster.h"
#include "src/harness/fault_script.h"

namespace achilles::chaos {

// --broken names of the deliberately-broken variants (BrokenVariant is declared in
// src/consensus/replica_base.h, beside the ProtocolParams that carry it).
const char* BrokenVariantName(BrokenVariant variant);
bool BrokenVariantFromName(std::string_view name, BrokenVariant* out);

struct ChaosOptions {
  // When true (default) the seed also picks the protocol (round-robin over all ten);
  // otherwise `protocol` is used for every seed.
  bool protocol_all = true;
  Protocol protocol = Protocol::kAchilles;
  BrokenVariant broken = BrokenVariant::kNone;
  // Rollback-defense backend (--defense). Quorum backends disable the -R counters, add
  // peer-quorum reboot fates to the sampler, and arm the defense version-monotonic
  // oracle. Overridden by the kQuorumRestoreSkip / kCertFloorSkip broken variants.
  persist::DefenseKind defense = persist::DefenseKind::kLocal;
  // Cluster load (small batches commit fast, which sharpens the liveness oracle).
  static constexpr size_t batch_size = 20;
  static constexpr double client_rate_tps = 500.0;
  // Probability a sampled script carries crash+reboot cycles (--reboot-weight). CI shards
  // raise it to weight schedules toward reboot-and-restore coverage.
  double reboot_prob = 0.65;
  // Weight for checkpoint-aware fates (--ckpt-weight): snapshot-surface attacks at reboot
  // and long-lag rejoins that exercise snapshot state transfer. CI's checkpoint shard
  // raises it together with reboot_prob.
  double ckpt_prob = 0.35;
  // Flight recorder + forensics. Journaling never perturbs virtual time, so the event-log
  // digest is bit-identical with it on or off; the journal digest is its own replay check.
  bool journal = false;
  // Run the replicated KV app (src/app) behind the protocol and judge the client-observed
  // history with the linearizability checker at the horizon. Implied by kStaleReadLease.
  bool app_kv = false;
};

struct ChaosResult {
  uint64_t seed = 0;
  Protocol protocol = Protocol::kAchilles;
  uint32_t f = 1;
  persist::DefenseKind defense = persist::DefenseKind::kLocal;  // Backend the run used.
  bool ok = true;
  std::string violation;            // First oracle violation (empty when ok).
  FaultScript script;               // The script that was executed.
  std::vector<std::string> event_log;
  std::string log_digest_hex;       // SHA-256 over the joined event log.
  Height final_height = 0;          // Max honest committed height at run end.
  // Filled when options.journal is set.
  std::string journal_text;         // Full flight-recorder dump (obs::Journal::ToText).
  std::string journal_digest_hex;   // SHA-256 over journal_text (replay fingerprint).
  std::string incident_report;      // Forensics report (only on violation).
  // Chrome trace_event JSON of the journal's control events as Perfetto instants (only on
  // violation; opens in Perfetto / chrome://tracing).
  std::string journal_trace_json;
  // Filled when the KV app ran (options.app_kv or kStaleReadLease).
  std::string history_text;         // Client-observed op history (app::KvHistory::ToText).
  std::string history_digest_hex;   // SHA-256 over history_text (replay fingerprint).

  std::string LogText() const;      // event_log joined with newlines.
  ScriptArtifact Artifact() const;  // Self-contained reproducer for this run.
};

// Derives (protocol, f, script) from `seed` and runs it. Under a broken variant the
// protocol is forced to the variant's target and the script is guaranteed to contain the
// triggering fault pattern, so every seed exercises the planted bug.
ChaosResult RunChaosSeed(const ChaosOptions& options, uint64_t seed);

// Runs an explicit script (replay of an artifact, minimization probes). `seed` feeds the
// cluster PRNG exactly as in RunChaosSeed.
ChaosResult RunChaosScript(const ChaosOptions& options, uint64_t seed, Protocol protocol,
                           uint32_t f, const FaultScript& script);

}  // namespace achilles::chaos

#endif  // SRC_CHAOS_RUNNER_H_
