// Experiment cluster: wires a simulation, network, platforms, replicas of a chosen
// protocol, and a client population; provides crash/reboot fault injection and measured-run
// statistics. Every bench and integration test builds on this.
#ifndef SRC_HARNESS_CLUSTER_H_
#define SRC_HARNESS_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/app/kv_service.h"
#include "src/checkpoint/manager.h"
#include "src/client/client.h"
#include "src/client/kv_client.h"
#include "src/consensus/replica_base.h"
#include "src/harness/byzantine.h"
#include "src/obs/breakdown.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"
#include "src/storage/defense.h"

namespace achilles {

enum class Protocol {
  kAchilles,   // The paper's contribution (trusted components in TEE, no counter).
  kAchillesC,  // Achilles with components outside the TEE (Table 3).
  kDamysus,    // Chained Damysus, no rollback prevention.
  kDamysusR,   // Damysus + persistent counter on every checker update.
  kOneShot,    // OneShot, no rollback prevention.
  kOneShotR,   // OneShot + persistent counter.
  kFlexiBft,   // 3f+1, leader-only counter, O(n^2) votes.
  kRaft,       // CFT baseline (Table 3).
  kMinBft,     // Classic USIG-based TEE-BFT (context; §2.2 of the paper).
  kHotStuff,   // Non-TEE 3f+1 ancestor, 8 steps (context).
};

// Number of Protocol enum values (for sweeps).
inline constexpr int kNumProtocols = 10;

// Builds one incarnation of a protocol's replica (`initial_launch` = genesis, not reboot).
using ReplicaFactory = std::unique_ptr<ReplicaBase> (*)(const ReplicaContext& ctx,
                                                         bool initial_launch);

// Every per-protocol fact the harness, the fault sampler and the chaos runner consult; one
// row per protocol in kProtocolTraits. The quorum is n - f for all (ProtocolParams).
struct ProtocolTraits {
  const char* name;
  bool three_f;  // 3f+1 replicas, else 2f+1.
  ReplicaFactory make;
  // Trusted components (and the checkpoint certificate) live in the TEE.
  bool components_in_tee;
  bool counter;  // Persistent counter by default.
  // Trusted state persists through the rollback-defense seam (src/storage/defense.h), so
  // a quorum --defense replaces its counter. A counter off the seam (MinBFT's USIG,
  // FlexiBFT's leader) is protocol-intrinsic and stays.
  bool defense_seam;
  // Replica state on the host disk (WAL + record store): a target for torn-tail and
  // lost-unsynced crash faults at reboot.
  bool host_storage;
  // Safe when the rebooted enclave is served stale sealed state (recovered over the
  // network, or detected with a halt): a target for sealed rollback at reboot.
  bool rollback_protected;
  // Reboot runs Achilles' networked recovery (Algorithm 3): a target for the stale-reply
  // replay attack.
  bool recovery;
  // Crash fault model: only omission and timing faults are Byzantine-legal.
  bool crash_only;
};

// Indexed by Protocol.
extern const ProtocolTraits kProtocolTraits[kNumProtocols];

inline const ProtocolTraits& Traits(Protocol protocol) {
  return kProtocolTraits[static_cast<int>(protocol)];
}

inline const char* ProtocolName(Protocol protocol) { return Traits(protocol).name; }
// Inverse of ProtocolName; returns false on unknown names.
bool ProtocolFromName(std::string_view name, Protocol* out);

// Replica count: 3f+1 or 2f+1.
uint32_t ReplicasFor(Protocol protocol, uint32_t f);

struct ClusterConfig {
  Protocol protocol = Protocol::kAchilles;
  uint32_t f = 1;
  size_t batch_size = 400;
  uint32_t payload_size = 256;
  NetworkConfig net = NetworkConfig::Lan();
  CostModel costs = CostModel::Default();
  // Counter used by counter-dependent protocols. Defaults to the paper's 20 ms write.
  CounterSpec counter = CounterSpec::PaperDefault();
  // Rollback-defense backend for the protocols on the defense seam (--defense on every
  // bench/chaos tool; src/storage/defense.h). Under a quorum defense the -R counters are
  // disabled — the backend replaces the counter's anti-rollback role — and the Cluster
  // owns a DefenseService modeling the peer disk/certificate quorum.
  persist::DefenseKind defense = persist::DefaultDefense();
  SimDuration base_timeout = Ms(500);
  bool commit_fast_path = true;  // Achilles NEW-VIEW optimization (ablation knob).
  uint64_t seed = 1;
  SignatureScheme scheme = SignatureScheme::kFastHmac;
  bool with_client = true;
  double client_rate_tps = 0.0;  // 0 = saturating client (10 * batch_size outstanding).
  // The obs::Recorder's sinks (src/obs/recorder.h), all off by default; a sink that is
  // off is never built. Recording is memory-only and never perturbs virtual time, so
  // RunStats and the event-log, journal and replay digests are bit-identical with any
  // combination on.
  // Span tracing (src/obs/trace.h). The ring keeps the last `trace_capacity` events
  // (smaller rings keep exported traces small).
  bool tracing = false;
  size_t trace_capacity = obs::SpanTracer::kDefaultCapacity;
  // Critical-path profiling (src/obs/critpath.h).
  bool critpath = false;
  // Flight recorder (src/obs/journal.h).
  bool journaling = false;
  // Deliberately-broken variant (src/consensus/replica_base.h); chaos self-tests only.
  BrokenVariant broken = BrokenVariant::kNone;
  // Replicated KV application (src/app). When on, a KvService executes the agreed log
  // behind every replica (with leader read-leases) and a closed-loop KV client population
  // on host n+1 records the client-observed history for the linearizability oracle. The
  // background ClientProcess keeps running: its op=0 transactions are pure load, which
  // keeps blocks flowing even while every KV session waits on a response.
  bool app_kv = false;
  KvClientConfig kv_client;
  // Protocol-aware checkpointing (src/checkpoint). When ckpt.enabled, a CheckpointManager
  // certifies boundary commits, truncates WALs and block stores behind stable checkpoints,
  // and serves snapshot state transfer to lagging replicas.
  checkpoint::CheckpointOptions ckpt;
};

struct FaultScript;
struct FaultEvent;

struct RunStats {
  double throughput_tps = 0.0;
  double commit_latency_ms = 0.0;
  double commit_p50_ms = 0.0;
  double commit_p99_ms = 0.0;
  double e2e_latency_ms = 0.0;
  double e2e_p99_ms = 0.0;
  uint64_t committed_blocks = 0;
  uint64_t committed_txs = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t counter_writes = 0;
  bool safety_ok = true;
  // Mean per-tx decomposition of e2e latency; breakdown.TotalMs() == e2e_latency_ms up to
  // floating-point rounding (see src/obs/breakdown.h).
  obs::BreakdownMs breakdown;
  // Causal critical-path summary (enabled=false unless config.critpath). The on-path
  // component means reconcile with `breakdown` by construction.
  obs::CritSummary critpath;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Binds all replica processes (genesis launch) and the client.
  void Start();

  Simulation& sim() { return sim_; }
  Network& net() { return net_; }
  CommitTracker& tracker() { return tracker_; }
  const ClusterConfig& config() const { return config_; }
  uint32_t num_replicas() const { return n_; }
  // KV app accessors (null / invalid unless config.app_kv).
  uint32_t kv_client_host_id() const { return n_ + (config_.with_client ? 1 : 0); }
  app::KvService* kv_service() { return kv_service_.get(); }
  KvClientProcess* kv_client() { return kv_client_; }
  // Checkpoint coordinator (null unless config.ckpt.enabled).
  checkpoint::CheckpointManager* checkpoint_manager() { return ckpt_manager_.get(); }
  // Peer quorum behind the rollback-defense backends (null when config.defense == kLocal).
  persist::DefenseService* defense_service() { return defense_service_.get(); }
  // Checkpoint quorum: the commit-certificate quorum, n - f.
  size_t CheckpointQuorum() const { return n_ - config_.f; }

  // Current incarnation of replica `id` (nullptr while crashed).
  ReplicaBase* replica(uint32_t id) { return replica_ptrs_[id]; }
  NodePlatform& platform(uint32_t id) { return *platforms_[id]; }

  // --- Fault injection ---
  // Marks replica `id` Byzantine with the given behaviour (must be called before Start).
  // Its commits are excluded from the safety audit.
  void SetByzantine(uint32_t id, ByzantineMode mode);
  void CrashReplica(uint32_t id);
  // Reboots with a fresh (recovering) incarnation after the modeled init delay.
  void RebootReplica(uint32_t id);
  // Enclave relaunch + per-peer reconnection (Table 2 "Initialization").
  SimDuration ReplicaInitDelay() const;

  // --- Scripted fault injection (src/harness/fault_script.h) ---
  // Applies the script's Byzantine assignments (must precede Start) and schedules every
  // timed fault event on the simulation. `on_event` (optional) observes each event at its
  // scheduled time, before it is applied — the chaos runner logs there and implements the
  // events (like kStaleRecoveryReplay) that need runner-held state.
  void InstallFaultScript(const FaultScript& script,
                          std::function<void(const FaultEvent&)> on_event = {});
  // Applies a single fault event now (exposed for tests; InstallFaultScript schedules it).
  void ApplyFaultEvent(const FaultEvent& event);

  // --- Measurement ---
  // Runs `warmup`, then measures for `measure` and returns aggregated statistics.
  RunStats RunMeasured(SimDuration warmup, SimDuration measure);

  // Refreshes the per-replica retention gauges (log.entries_retained, log.bytes_retained,
  // ckpt.last_stable_seq): WAL records/bytes on disk plus the in-memory block store; and
  // mempool.pending / mempool.ids_tracked (queued txs, id-set words; see Mempool).
  // Called at the end of RunMeasured; callable any time for finer-grained sampling.
  void RefreshFootprintGauges();

  uint64_t TotalCounterWrites() const;

  // --- Observability (src/obs) ---
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::Recorder& recorder() { return recorder_; }

 private:
  std::unique_ptr<ReplicaBase> MakeReplica(uint32_t id, bool initial_launch);
  ReplicaContext ContextFor(uint32_t id);

  ClusterConfig config_;
  uint32_t n_;
  obs::MetricsRegistry metrics_;
  obs::Recorder recorder_;
  obs::BreakdownAttributor breakdown_;
  Simulation sim_;
  Network net_;
  CryptoSuite suite_;
  CommitTracker tracker_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<NodePlatform>> platforms_;
  std::unique_ptr<persist::DefenseService> defense_service_;
  std::vector<ReplicaBase*> replica_ptrs_;
  std::vector<ByzantineMode> byzantine_;
  std::unique_ptr<app::KvService> kv_service_;
  std::unique_ptr<checkpoint::CheckpointManager> ckpt_manager_;
  KvClientProcess* kv_client_ = nullptr;
  bool started_ = false;
};

}  // namespace achilles

#endif  // SRC_HARNESS_CLUSTER_H_
