// Causal commit critical-path profiler (ISSUE 9). Records, for every causal chain the
// simulator executes, a compact activity DAG: handlers (CPU service on a host), transits
// (NIC serialization + propagation on a link) and proposal origins, connected by trigger
// edges (the chain a Path rides along), quorum-join edges (protocols note each vote and
// join them where the quorum completes) and resource edges (the previous holder of the
// same CPU / egress NIC). When a chain reaches client confirmation the recorded trigger
// chain IS the commit's critical path, and each activity's segments reproduce the Path's
// per-component parts exactly — so critical-path blame reconciles with the PR 1 breakdown
// identity by construction.
//
// On top of the recorded DAG sits a COZ-style what-if engine: re-evaluate every activity's
// start/release under scaled per-component costs (zero fsync, 2x crypto, ...) respecting
// trigger, join and resource dependencies, without re-running the simulation. At scale 1.0
// the evaluation reproduces recorded confirmation times exactly (self-check carried in
// every summary as `baseline_ms`).
//
// Like the journal, collection is zero-virtual-cost: hooks only append to memory pools,
// never touch virtual time or the RNG, so event-log / journal / replay digests are
// bit-identical with the profiler on or off.
#ifndef SRC_OBS_CRITPATH_H_
#define SRC_OBS_CRITPATH_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/obs/breakdown.h"

namespace achilles {
namespace obs {

class JsonWriter;

// Per-component what-if scale factors (1.0 = as recorded, 0.0 = free).
using CritScales = std::array<double, kNumComponents>;
CritScales CritScalesOnes();

// One aggregated blame cell: component x phase x replica/link, summed over the on-path
// segments of every complete commit in the window.
struct CritBlameEntry {
  std::string where;   // "n3" (host) or "n0->n2" (link).
  std::string phase;   // Handler/message trace name ("vote", "prepare", "timer", ...).
  Component component = Component::kCpu;
  bool wait = false;   // Queueing (run-queue / NIC backlog) rather than service.
  int64_t ns = 0;      // Total on-path nanoseconds, weighted once per commit.
  uint64_t hits = 0;   // Number of on-path segments aggregated.
};

// Off-critical-path slack: how much earlier than needed a quorum input arrived. One entry
// per (input replica, input phase), aggregated over every join in the window.
struct CritSlackEntry {
  std::string where;   // "n3": the replica whose input carried the slack.
  std::string phase;
  int64_t total_ns = 0;
  int64_t max_ns = 0;
  uint64_t joins = 0;
};

// Windowed summary carried in RunStats and every bench JSON.
struct CritSummary {
  bool enabled = false;
  uint64_t commits = 0;             // Commits with a complete recorded critical path.
  uint64_t truncated = 0;           // Commit chains that hit a dropped activity.
  uint64_t unanchored = 0;          // Complete chains whose root is not a proposal origin.
  uint64_t activities = 0;          // Pool usage (whole run, not just the window).
  uint64_t segments = 0;
  uint64_t dropped_activities = 0;  // Pool-cap overflow counters.
  uint64_t dropped_segments = 0;
  double mean_ms = 0;               // Mean per-tx origin->confirm latency over commits.
  // On-path per-component means (ms per tx, breakdown-identical weighting). Sums to
  // mean_ms exactly for complete chains.
  std::array<double, kNumComponents> crit_ms{};
  double wait_ms = 0;               // Portion of mean_ms spent queueing rather than in service.
  // What-if predictions: mean per-tx commit latency under canned cost scenarios.
  double baseline_ms = 0;           // All scales 1.0 — must equal mean_ms (self-check).
  double zero_fsync_ms = 0;
  double zero_ecall_ms = 0;
  double zero_crypto_ms = 0;
  double double_crypto_ms = 0;
  double zero_net_ms = 0;           // Propagation and NIC serialization both free.
  std::string digest_hex;           // SHA-256 over the canonical per-commit chain dump.

  void ToJson(JsonWriter& w) const;
};

// The collector. One instance per profiled cluster (fed by obs::Recorder); hooks are
// cheap appends.
class CritPathCollector {
 public:
  enum class Kind : uint8_t { kOrigin = 0, kHandler = 1, kTransit = 2 };

  struct Options {
    // Caps, not reservations: pools grow on demand. Overflow returns activity id 0 (a
    // recognized null) and bumps the dropped counters; affected commits count as
    // truncated instead of corrupting the profile.
    uint32_t max_activities = 2u << 20;
    uint32_t max_segments = 8u << 20;
    // Pending quorum-join keys that were noted but never joined (stale views, late votes)
    // are discarded wholesale past this bound, keeping memory deterministic.
    size_t max_pending_joins = 1u << 16;
  };

  CritPathCollector() = default;
  explicit CritPathCollector(const Options& options) : options_(options) {}

  // --- Recording hooks (called by obs::Recorder) ---------------------------------------

  // A proposal origin: the handler re-anchored its path at `origin` (RestartPathAt).
  // Books the already-spent handler time [origin, local_now) as a kCpu service segment
  // and takes over the host's CPU-resource chain. Returns the new activity id.
  uint32_t BeginOrigin(uint32_t node, SimTime origin, SimTime local_now);

  // A handler dispatch: `ready` is the path frontier at dequeue (message arrival, or the
  // dispatch time for timer/start work), `start` the CPU grab. Records the run-queue wait
  // [ready, start) as a kCpu wait segment, links `trigger` (the delivering transit, 0 for
  // fresh chains) and the previous CPU holder on `node`.
  uint32_t BeginHandler(uint32_t node, const char* name, uint32_t trigger, SimTime ready,
                        SimTime start);

  // A network transit from->to. `dep` is the sender path frontier at Send (causal
  // departure), [tx_start, tx_end) the NIC serialization window, `arrival` the delivery
  // time. Segments mirror the Path's CoverUntil clamping exactly: NIC wait
  // [dep, tx_start), NIC service until tx_end, propagation until arrival — each clamped
  // to start no earlier than `dep`. `holds_nic` links the egress-NIC resource chain on
  // machine `nic` (false for loopback and chaos duplicates).
  uint32_t BeginTransit(uint32_t from, uint32_t to, const char* name, uint32_t trigger,
                        SimTime dep, SimTime tx_start, SimTime tx_end, SimTime arrival,
                        uint32_t nic, bool holds_nic);

  // A charge inside the running handler (mirrors Path::Extend): merges into the open
  // service segment when the component matches.
  void AddService(uint32_t activity, Component c, SimDuration d);

  // Quorum bookkeeping, recorded via ReplicaBase::CritNote / CritJoin. `key` identifies the
  // quorum instance (replica x phase x height/hash); NoteInput marks the running handler
  // as carrying one input (sealing its frontier), JoinInputs attaches every noted input
  // to the handler that completed the quorum and records their slack.
  void NoteInput(uint64_t key, uint32_t activity, SimTime at);
  void JoinInputs(uint64_t key, uint32_t joiner, SimTime at);

  // The chain reached client confirmation: freeze its frontier as a commit record.
  void OnConfirm(uint32_t activity, SimTime origin, uint64_t height, SimTime confirm,
                 int64_t submit_sum_ns, uint64_t tx_count);

  // A host crashed: sever its CPU-resource chain (the reboot resets cpu_free_at).
  void OnHostCrash(uint32_t node);

  // Start of a measurement window: drop previously recorded commits and aggregates.
  // Activity pools persist (in-flight chains keep their ids valid).
  void ResetWindow();

  // --- Analysis ----------------------------------------------------------------------

  CritSummary Summarize() const;

  // Mean per-tx origin->confirm latency (ms) re-evaluated over the recorded DAG under
  // per-component scale factors. Scale 1.0 everywhere reproduces recorded times exactly.
  double WhatIfMeanMs(const CritScales& scales) const;

  // Blame profile / slack for the current window (complete commits only), sorted by
  // descending nanoseconds.
  std::vector<CritBlameEntry> BlameProfile() const;
  std::vector<CritSlackEntry> SlackProfile() const;

  // SHA-256 over the canonical dump of every commit's critical path (times, components,
  // durations — no pool indexes), the replay/engine-equivalence fingerprint.
  std::string DigestHex() const;

  // Full profile artifact: summary + blame + slack + per-scenario predictions.
  std::string ProfileJson() const;
  // Folded stacks ("<where>;<phase>;<component>[;wait] <ns>") for flamegraph tooling.
  std::string FoldedStacks() const;
  // Chrome trace_event JSON annotating the `max_commits` slowest commits' critical
  // paths: one process per commit, one thread lane per host/link, every on-path activity
  // a duration slice carrying its per-component costs as args. Opens in Perfetto
  // alongside the span trace (--trace-out) for side-by-side causal reading.
  std::string PerfettoJson(size_t max_commits) const;

  uint64_t activities() const { return used_activities_; }
  uint64_t dropped_activities() const { return dropped_activities_; }
  uint64_t dropped_segments() const { return dropped_segments_; }
  uint64_t commits() const { return commits_.size(); }

 private:
  struct Segment {
    int64_t dur = 0;
    uint32_t next = 0;      // Next segment of the same activity (0 = end).
    Component comp = Component::kCpu;
    bool wait = false;      // Queueing: excluded from service frontiers, never scaled.
  };

  struct Activity {
    SimTime start = 0;       // Recorded service start (post-wait).
    SimTime ready = 0;       // Recorded readiness (arrival / causal departure frontier).
    uint32_t trigger = 0;    // Causal trigger activity (0 = chain root).
    uint32_t branch_seg = 0; // Trigger's last segment causally before this activity.
    uint32_t res_pred = 0;   // Previous holder of the same CPU (handlers) / NIC (transits).
    uint32_t seg_head = 0;
    uint32_t seg_tail = 0;
    uint32_t open_seg = 0;   // Mergeable tail service segment (0 = sealed).
    uint32_t join_head = 0;  // Quorum inputs joined at this handler (JoinRecord list).
    const char* name = "";   // Static trace/phase name.
    uint32_t node = 0;       // Host (handlers/origins) or sender (transits).
    uint32_t peer = 0;       // Receiver (transits only).
    Kind kind = Kind::kHandler;
    bool holds_nic = false;
  };

  struct JoinRecord {
    uint32_t activity = 0;   // The input's handler.
    uint32_t branch_seg = 0; // Its frontier when noted.
    SimTime at = 0;          // Note time (for slack).
    uint32_t next = 0;
  };

  struct Commit {
    uint32_t activity = 0;   // Confirming handler.
    uint32_t tail_seg = 0;   // Its frontier at confirmation.
    SimTime origin = 0;
    SimTime confirm = 0;
    uint64_t height = 0;
    int64_t submit_sum_ns = 0;
    uint64_t tx_count = 0;
  };

  uint32_t NewActivity(Kind kind, uint32_t node, const char* name);
  // Appends a segment to `activity`; `open` marks it mergeable by later AddService calls.
  void PushSegment(uint32_t activity, Component c, int64_t dur, bool wait, bool open);
  void Seal(uint32_t activity);
  const Activity* Get(uint32_t id) const;

  // Walks a commit's trigger chain root-ward, confirm-first: `fn(activity_id, seg_bound)`.
  // A chain is complete iff commit.activity != 0; a chain broken mid-way by a dropped
  // activity surfaces as a non-origin root (counted unanchored).
  template <typename Fn>
  void WalkChain(const Commit& commit, Fn&& fn) const;

  // What-if engine internals: start-of-service and resource-release per activity.
  void Evaluate(const CritScales& scales, std::vector<SimTime>* start_s,
                std::vector<SimTime>* release) const;
  SimTime Frontier(const std::vector<SimTime>& start_s, uint32_t activity,
                   uint32_t bound, const CritScales& scales) const;

  Options options_;

  std::vector<Activity> activities_{Activity{}};  // 1-based; slot 0 = null.
  std::vector<Segment> segments_{Segment{}};
  std::vector<JoinRecord> joins_{JoinRecord{}};
  uint64_t used_activities_ = 0;
  uint64_t used_segments_ = 0;
  uint64_t dropped_activities_ = 0;
  uint64_t dropped_segments_ = 0;

  std::unordered_map<uint32_t, uint32_t> last_cpu_;  // node -> last CPU-holding activity.
  std::unordered_map<uint32_t, uint32_t> last_nic_;  // machine -> last NIC transit.
  // Quorum instance key -> head of the pending JoinRecord list.
  std::unordered_map<uint64_t, uint32_t> pending_joins_;

  std::vector<Commit> commits_;
  // Slack aggregation (join-time, windowed): key = (node << 1 | wait-ish) folded with the
  // phase pointer; values accumulate into CritSlackEntry.
  struct SlackCell {
    int64_t total_ns = 0;
    int64_t max_ns = 0;
    uint64_t joins = 0;
  };
  std::unordered_map<std::string, SlackCell> slack_;
};

}  // namespace obs
}  // namespace achilles

#endif  // SRC_OBS_CRITPATH_H_
