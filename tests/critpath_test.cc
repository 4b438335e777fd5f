// Causal critical-path profiler tests (ISSUE 9): hand-built-DAG extraction and what-if
// frontier math, slack accounting, truncation bookkeeping, cluster-level reconciliation
// with the PR 1 breakdown identity, zero-perturbation and digest determinism across
// engines, and the what-if engine validated against actual re-runs with modified costs.
#include <gtest/gtest.h>

#include <string>

#include "src/harness/cluster.h"
#include "src/harness/fault_script.h"
#include "src/obs/breakdown.h"
#include "src/obs/critpath.h"
#include "src/obs/json.h"
#include "tools/json_reader.h"

namespace achilles {
namespace {

using obs::Component;
using obs::CritPathCollector;
using obs::CritScales;
using obs::CritScalesOnes;
using obs::CritSummary;

size_t Idx(Component c) { return static_cast<size_t>(c); }

double SumCritMs(const CritSummary& s) {
  double total = 0;
  for (size_t i = 0; i < obs::kNumComponents; ++i) {
    total += s.crit_ms[i];
  }
  return total;
}

// --- Hand-built DAG: extraction ---------------------------------------------------------

// origin(n0) --trigger--> transit(n0->n1) --trigger--> handler(n1) --confirm.
// Every segment is hand-placed, so the per-component sums are checked exactly.
TEST(CritPathTest, HandBuiltChainExtraction) {
  CritPathCollector cp;
  // Proposal at t=1000; 2000 ns of block building booked at the origin.
  const uint32_t o = cp.BeginOrigin(0, 1000, 3000);
  ASSERT_NE(o, 0u);
  cp.AddService(o, Component::kCrypto, 500);  // Frontier 3500.
  // Wire: departs at the frontier, serializes 1000 ns, propagates 2000 ns.
  const uint32_t t = cp.BeginTransit(0, 1, "vote", o, 3500, 3500, 4500, 6500,
                                     /*nic=*/0, /*holds_nic=*/true);
  ASSERT_NE(t, 0u);
  // Receiver dequeues immediately at arrival: 300 ns CPU + 700 ns crypto, confirm 7500.
  const uint32_t h = cp.BeginHandler(1, "vote", t, 6500, 6500);
  ASSERT_NE(h, 0u);
  cp.AddService(h, Component::kCpu, 300);
  cp.AddService(h, Component::kCrypto, 700);
  cp.OnConfirm(h, 1000, 1, 7500, 0, 10);

  const CritSummary s = cp.Summarize();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.truncated, 0u);
  EXPECT_EQ(s.unanchored, 0u);
  const double ns = 1e-6;  // ns -> ms.
  EXPECT_DOUBLE_EQ(s.mean_ms, 6500 * ns);
  EXPECT_DOUBLE_EQ(s.crit_ms[Idx(Component::kCpu)], 2300 * ns);  // 2000 origin + 300.
  EXPECT_DOUBLE_EQ(s.crit_ms[Idx(Component::kCrypto)], 1200 * ns);
  EXPECT_DOUBLE_EQ(s.crit_ms[Idx(Component::kNicSerialization)], 1000 * ns);
  EXPECT_DOUBLE_EQ(s.crit_ms[Idx(Component::kNetPropagation)], 2000 * ns);
  EXPECT_DOUBLE_EQ(SumCritMs(s), s.mean_ms);  // Reconciliation identity, exactly.
  EXPECT_DOUBLE_EQ(s.wait_ms, 0.0);
  // Scale-1 evaluation reproduces the recorded confirm exactly.
  EXPECT_DOUBLE_EQ(s.baseline_ms, s.mean_ms);
  // Zero net: the transit vanishes, leaving 2000 + 500 + 300 + 700 = 3500 ns.
  EXPECT_DOUBLE_EQ(s.zero_net_ms, 3500 * ns);
  // Zero crypto: 2000 (origin) + 3000 (wire) + 300 (cpu) = 5300 ns.
  EXPECT_DOUBLE_EQ(s.zero_crypto_ms, 5300 * ns);
  // Doubling crypto stretches both crypto segments: 6500 + 1200.
  CritScales scales = CritScalesOnes();
  scales[Idx(Component::kCrypto)] = 2.0;
  EXPECT_DOUBLE_EQ(cp.WhatIfMeanMs(scales), 7700 * ns);

  // Blame profile covers every on-path segment, hottest first.
  const auto blame = cp.BlameProfile();
  ASSERT_FALSE(blame.empty());
  int64_t blame_ns = 0;
  for (const auto& cell : blame) {
    blame_ns += cell.ns;
  }
  EXPECT_EQ(blame_ns, 6500);
  EXPECT_GE(blame.front().ns, blame.back().ns);
  // The folded flamegraph carries the same totals in "where;phase;component value" lines.
  const std::string folded = cp.FoldedStacks();
  EXPECT_NE(folded.find("n0->n1;vote;net_propagation 2000"), std::string::npos);
}

// Run-queue wait is only honoured by the what-if engine when a recorded CPU predecessor
// explains it; the busy core then hides wins that only shorten the waiting chain.
TEST(CritPathTest, WaitAttributedToCpuPredecessor) {
  CritPathCollector cp;
  // An unrelated 2000 ns task occupies n1's core from t=5000 to t=7000.
  const uint32_t prior = cp.BeginHandler(1, "prior", 0, 5000, 5000);
  cp.AddService(prior, Component::kCpu, 2000);
  // Same chain as above, but the handler must queue behind `prior` until t=7000.
  const uint32_t o = cp.BeginOrigin(0, 1000, 3000);
  cp.AddService(o, Component::kCrypto, 500);
  const uint32_t t = cp.BeginTransit(0, 1, "vote", o, 3500, 3500, 4500, 6500,
                                     /*nic=*/0, /*holds_nic=*/true);
  const uint32_t h = cp.BeginHandler(1, "vote", t, 6500, 7000);
  cp.AddService(h, Component::kCpu, 300);
  cp.AddService(h, Component::kCrypto, 700);
  cp.OnConfirm(h, 1000, 1, 8000, 0, 10);

  const CritSummary s = cp.Summarize();
  const double ns = 1e-6;
  EXPECT_DOUBLE_EQ(s.mean_ms, 7000 * ns);
  EXPECT_DOUBLE_EQ(s.wait_ms, 500 * ns);
  EXPECT_DOUBLE_EQ(SumCritMs(s), s.mean_ms);
  // Scale-1: the resource edge to `prior` reproduces the 500 ns wait exactly.
  EXPECT_DOUBLE_EQ(s.baseline_ms, s.mean_ms);
  // Zero net: arrival jumps to 3500, but the core is busy until 7000 — no win at all.
  EXPECT_DOUBLE_EQ(s.zero_net_ms, 7000 * ns);
  // Zero CPU: `prior` releases at 5000, the chain arrives at 4500, crypto still costs
  // 500 + 700: start 5000 + 700 = 5700, latency 4700 ns.
  CritScales scales = CritScalesOnes();
  scales[Idx(Component::kCpu)] = 0.0;
  EXPECT_DOUBLE_EQ(cp.WhatIfMeanMs(scales), 4700 * ns);
  // The wait shows up in the flamegraph as its own ";wait" frame.
  EXPECT_NE(cp.FoldedStacks().find(";wait 500"), std::string::npos);
}

// --- Hand-built DAG: quorum joins and slack ---------------------------------------------

// Two vote inputs noted off-path; the joiner is triggered by the later vote's transit.
// Checks slack accounting and that the what-if engine respects join dependencies.
TEST(CritPathTest, JoinSlackAndWhatIfDependencies) {
  CritPathCollector cp;
  const uint64_t key = 77;
  const uint32_t o = cp.BeginOrigin(2, 0, 100);
  // Input A (node 0): 400 ns of crypto, noted at its frontier.
  const uint32_t a = cp.BeginHandler(0, "voteA", 0, 0, 0);
  cp.AddService(a, Component::kCrypto, 400);
  cp.NoteInput(key, a, 400);
  // Input B (node 1): 800 ns of crypto, noted, then its vote rides to node 2.
  const uint32_t b = cp.BeginHandler(1, "voteB", 0, 0, 0);
  cp.AddService(b, Component::kCrypto, 800);
  cp.NoteInput(key, b, 800);
  const uint32_t tb = cp.BeginTransit(1, 2, "voteB", b, 800, 800, 850, 900,
                                      /*nic=*/0, /*holds_nic=*/false);
  // The joiner completes the quorum when B's vote arrives.
  const uint32_t j = cp.BeginHandler(2, "decide", tb, 900, 900);
  cp.JoinInputs(key, j, 900);
  cp.AddService(j, Component::kCpu, 100);
  cp.OnConfirm(j, 0, 1, 1000, 0, 1);

  const CritSummary s = cp.Summarize();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_DOUBLE_EQ(s.mean_ms, 1000 * 1e-6);
  EXPECT_DOUBLE_EQ(s.baseline_ms, s.mean_ms);  // Join inputs never push past the trigger.
  // Slack: how much earlier than the join each input landed.
  const auto slack = cp.SlackProfile();
  ASSERT_EQ(slack.size(), 2u);
  EXPECT_EQ(slack[0].where, "n0");
  EXPECT_EQ(slack[0].phase, "voteA");
  EXPECT_EQ(slack[0].total_ns, 500);
  EXPECT_EQ(slack[1].where, "n1");
  EXPECT_EQ(slack[1].total_ns, 100);
  // Zero crypto: both inputs and the trigger chain collapse; the joiner still waits for
  // the origin's CPU release (frontier 100) before its own 100 ns of work.
  CritScales scales = CritScalesOnes();
  scales[Idx(Component::kCrypto)] = 0.0;
  EXPECT_DOUBLE_EQ(cp.WhatIfMeanMs(scales), 200 * 1e-6);
  (void)o;
}

// --- Hand-built DAG: pool caps and truncation -------------------------------------------

TEST(CritPathTest, PoolOverflowCountsTruncatedCommits) {
  CritPathCollector::Options options;
  options.max_activities = 2;
  CritPathCollector cp(options);
  const uint32_t o = cp.BeginOrigin(0, 0, 10);
  const uint32_t t = cp.BeginTransit(0, 1, "m", o, 10, 10, 20, 30, 0, true);
  EXPECT_NE(t, 0u);
  // Pool cap reached: the handler is dropped, not corrupted.
  const uint32_t h = cp.BeginHandler(1, "m", t, 30, 30);
  EXPECT_EQ(h, 0u);
  EXPECT_EQ(cp.dropped_activities(), 1u);
  cp.AddService(h, Component::kCpu, 100);  // No-op on the null activity.
  cp.OnConfirm(h, 0, 1, 130, 0, 1);
  const CritSummary s = cp.Summarize();
  EXPECT_EQ(s.commits, 0u);
  EXPECT_EQ(s.truncated, 1u);
  // The window can be reset without touching the pools.
  cp.ResetWindow();
  EXPECT_EQ(cp.commits(), 0u);
  EXPECT_EQ(cp.activities(), 2u);
}

// --- Cluster-level -----------------------------------------------------------------------

ClusterConfig CritConfig(Protocol protocol, uint64_t seed) {
  ClusterConfig config;
  config.protocol = protocol;
  config.f = 1;
  config.batch_size = 50;
  config.payload_size = 64;
  config.net = NetworkConfig::Lan();
  config.seed = seed;
  config.critpath = true;
  return config;
}

TEST(CritPathClusterTest, ReconcilesWithBreakdownIdentity) {
  Cluster cluster(CritConfig(Protocol::kAchilles, 42));
  const RunStats stats = cluster.RunMeasured(Ms(200), Sec(1));
  ASSERT_TRUE(stats.safety_ok);
  const CritSummary& s = stats.critpath;
  ASSERT_TRUE(s.enabled);
  ASSERT_GT(s.commits, 10u);
  EXPECT_EQ(s.truncated, 0u);
  EXPECT_EQ(s.unanchored, 0u);
  EXPECT_EQ(s.dropped_activities, 0u);
  EXPECT_EQ(s.dropped_segments, 0u);
  // The on-path component sums tile origin->confirm exactly (PR 1 identity, applied to
  // the extracted path instead of the whole e2e window).
  EXPECT_GT(s.mean_ms, 0.0);
  EXPECT_NEAR(SumCritMs(s), s.mean_ms, s.mean_ms * 1e-6);
  // Scale-1 what-if reproduces the recorded schedule exactly (frontier self-check).
  EXPECT_NEAR(s.baseline_ms, s.mean_ms, s.mean_ms * 1e-6);
  // The commit path can't be longer than the client-observed e2e mean.
  EXPECT_LE(s.mean_ms, stats.e2e_latency_ms * 1.001);
  EXPECT_LE(s.wait_ms, s.mean_ms);
  // Achilles commits ride crypto + network; both must show up on-path.
  EXPECT_GT(s.crit_ms[Idx(Component::kCrypto)], 0.0);
  EXPECT_GT(s.crit_ms[Idx(Component::kNetPropagation)], 0.0);
  // Removing costs can only shorten the predicted path; adding can only stretch it.
  EXPECT_LE(s.zero_crypto_ms, s.baseline_ms);
  EXPECT_LE(s.zero_net_ms, s.baseline_ms);
  EXPECT_LE(s.zero_ecall_ms, s.baseline_ms);
  EXPECT_LE(s.zero_fsync_ms, s.baseline_ms);
  EXPECT_GE(s.double_crypto_ms, s.baseline_ms);
}

TEST(CritPathClusterTest, ProfilerIsZeroPerturbation) {
  RunStats off, on;
  std::string journal_off, journal_on;
  {
    ClusterConfig config = CritConfig(Protocol::kAchilles, 7);
    config.critpath = false;
    config.journaling = true;
    Cluster cluster(config);
    off = cluster.RunMeasured(Ms(200), Sec(1));
    journal_off = cluster.recorder().journal()->DigestHex();
  }
  {
    ClusterConfig config = CritConfig(Protocol::kAchilles, 7);
    config.journaling = true;
    Cluster cluster(config);
    on = cluster.RunMeasured(Ms(200), Sec(1));
    journal_on = cluster.recorder().journal()->DigestHex();
    EXPECT_GT(cluster.recorder().critpath()->activities(), 0u);
  }
  // Bit-identical virtual-time outcomes: the profiler must never perturb the schedule.
  EXPECT_EQ(off.throughput_tps, on.throughput_tps);
  EXPECT_EQ(off.commit_latency_ms, on.commit_latency_ms);
  EXPECT_EQ(off.commit_p50_ms, on.commit_p50_ms);
  EXPECT_EQ(off.commit_p99_ms, on.commit_p99_ms);
  EXPECT_EQ(off.e2e_latency_ms, on.e2e_latency_ms);
  EXPECT_EQ(off.committed_blocks, on.committed_blocks);
  EXPECT_EQ(off.messages, on.messages);
  EXPECT_EQ(off.bytes, on.bytes);
  EXPECT_EQ(off.counter_writes, on.counter_writes);
  for (size_t i = 0; i < obs::kNumComponents; ++i) {
    EXPECT_EQ(off.breakdown.parts[i], on.breakdown.parts[i]);
  }
  // The flight recorder sees the same event stream bit for bit.
  EXPECT_EQ(journal_off, journal_on);
}

TEST(CritPathClusterTest, DigestStableAcrossReplay) {
  std::string digests[2];
  for (int i = 0; i < 2; ++i) {
    Cluster cluster(CritConfig(Protocol::kAchilles, 1234));
    const RunStats stats = cluster.RunMeasured(Ms(200), Ms(800));
    ASSERT_TRUE(stats.safety_ok);
    ASSERT_GT(stats.critpath.commits, 0u);
    digests[i] = stats.critpath.digest_hex;
    EXPECT_EQ(digests[i].size(), 64u);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// --- Golden critical-path digests ---------------------------------------------------------

// Fixed runs whose critical-path digests are pinned, so a change to the recording hooks
// cannot move the recorded chains unnoticed (replay stability alone would not catch it).
// A deliberate change replaces the digest and says why in CHANGES.md.
struct CritGoldenRow {
  const char* name;
  const char* digest;
};

std::string GoldenCritDigest(const std::string& name) {
  ClusterConfig config = CritConfig(Protocol::kAchilles, 17);
  FaultScript script;
  if (name == "saturation") {
    // Fig. 4 shape in miniature: saturating client, full batches.
    config.f = 2;
    config.batch_size = 400;
    config.payload_size = 256;
  } else if (name == "kv-ckpt") {
    config.f = 2;
    config.batch_size = 100;
    config.base_timeout = Ms(100);
    config.client_rate_tps = 1000.0;
    config.app_kv = true;
    config.kv_client.num_sessions = 4;
    config.ckpt.enabled = true;
    config.ckpt.interval = 8;
  } else if (name == "crash-reboot") {
    // A backup crashes mid-window and reboots (honest storage): exercises OnHostCrash.
    config.base_timeout = Ms(100);
    script.events.push_back(FaultEvent{Ms(400), FaultKind::kCrash, 1, 0, 0});
    script.events.push_back(FaultEvent{Ms(500), FaultKind::kReboot, 1, 0, 0});
  }
  Cluster cluster(config);
  cluster.InstallFaultScript(script);
  const RunStats stats = cluster.RunMeasured(Ms(200), Ms(800));
  EXPECT_TRUE(stats.safety_ok) << name;
  EXPECT_GT(stats.critpath.commits, 0u) << name;
  return stats.critpath.digest_hex;
}

TEST(CritPathClusterTest, GoldenDigestsMatchTheCommittedRows) {
  const CritGoldenRow rows[] = {
      {"saturation", "943553bac52cf3aec5c166dcfed1f12d12cc9800a375a24228574b882d850b6a"},
      {"kv-ckpt", "823b8c1b99a0c719d0731ccb6e5c03e56568c9b426e78701ff4fa020b82dd532"},
      {"crash-reboot", "d3979a9726ec9f3f23133bdd0c33b8ebfc1666a4f87b32bfebf3bcf1c459981d"},
  };
  for (const CritGoldenRow& row : rows) {
    const std::string digest = GoldenCritDigest(row.name);
    EXPECT_EQ(digest, row.digest) << "row {\"" << row.name << "\", \"" << digest << "\"}";
  }
}

TEST(CritPathClusterTest, TruncationGaugesAlwaysExported) {
  Cluster cluster(CritConfig(Protocol::kAchilles, 5));
  cluster.RunMeasured(Ms(100), Ms(400));
  obs::JsonWriter w;
  cluster.metrics().ToJson(&w);
  const std::string json = w.Take();
  EXPECT_NE(json.find("trace.dropped_spans"), std::string::npos);
  EXPECT_NE(json.find("journal.events_recorded"), std::string::npos);
  EXPECT_NE(json.find("journal.events_evicted"), std::string::npos);
  EXPECT_NE(json.find("critpath.activities"), std::string::npos);
}

TEST(CritPathClusterTest, ExportsParseAndCarryTheProfile) {
  Cluster cluster(CritConfig(Protocol::kAchilles, 9));
  const RunStats stats = cluster.RunMeasured(Ms(200), Ms(600));
  ASSERT_GT(stats.critpath.commits, 0u);
  const obs::CritPathCollector& cp = *cluster.recorder().critpath();
  const auto profile = obs::ParseJson(cp.ProfileJson());
  ASSERT_TRUE(profile.has_value());
  ASSERT_TRUE(profile->is_object());
  const obs::JsonValue* summary = profile->Get("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_NE(summary->Get("what_if_ms"), nullptr);
  const obs::JsonValue* blame = profile->Get("blame");
  ASSERT_NE(blame, nullptr);
  EXPECT_TRUE(blame->is_array());
  EXPECT_FALSE(blame->array.empty());
  ASSERT_NE(profile->Get("slack"), nullptr);
  // The folded flamegraph has one "stack count" pair per line.
  const std::string folded = cp.FoldedStacks();
  ASSERT_FALSE(folded.empty());
  const size_t eol = folded.find('\n');
  const std::string first = folded.substr(0, eol);
  EXPECT_NE(first.find(';'), std::string::npos);
  EXPECT_NE(first.rfind(' '), std::string::npos);
  // Perfetto annotation export is valid trace JSON with critpath slices.
  const auto perfetto = obs::ParseJson(cp.PerfettoJson(4));
  ASSERT_TRUE(perfetto.has_value());
  const obs::JsonValue* events = perfetto->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_FALSE(events->array.empty());
}

// --- What-if validation against actual re-runs ------------------------------------------

// Runs `base` (profiled), takes the engine's prediction for a scenario, then actually
// re-runs with the CostModel modified to match and compares measured commit latency.
// A fixed-rate client keeps the DAG shape comparable across the two runs.
double MeasuredMeanMs(const ClusterConfig& config) {
  Cluster cluster(config);
  const RunStats stats = cluster.RunMeasured(Ms(300), Sec(2));
  EXPECT_TRUE(stats.safety_ok);
  EXPECT_GT(stats.critpath.commits, 0u);
  return stats.critpath.mean_ms;
}

ClusterConfig PacedConfig(Protocol protocol, uint64_t seed) {
  ClusterConfig config = CritConfig(protocol, seed);
  config.client_rate_tps = 2000.0;
  return config;
}

TEST(CritPathWhatIfValidation, ZeroFsyncMatchesRerun) {
  // Raft acks ride an fsynced WAL append; zeroing log_fsync is the scenario's ground
  // truth re-run. Raft's fsync-bound latency (~2 ms) forces a slower client than the
  // other scenarios: what-if pins proposal times, which is only sound open-loop (the
  // inter-proposal gap must dominate the commit latency — see DESIGN.md §2.22).
  ClusterConfig base = PacedConfig(Protocol::kRaft, 21);
  base.batch_size = 1;
  base.client_rate_tps = 200.0;
  Cluster cluster(base);
  const RunStats stats = cluster.RunMeasured(Ms(300), Sec(2));
  ASSERT_TRUE(stats.safety_ok);
  ASSERT_GT(stats.critpath.commits, 0u);
  const double predicted = stats.critpath.zero_fsync_ms;
  // Fsync must actually sit on Raft's critical path for this scenario to mean anything.
  ASSERT_GT(stats.critpath.crit_ms[Idx(Component::kFsync)], 0.0);
  EXPECT_LT(predicted, stats.critpath.baseline_ms);
  ClusterConfig modified = base;
  modified.costs.log_fsync = 0;
  const double actual = MeasuredMeanMs(modified);
  EXPECT_NEAR(predicted, actual, actual * 0.10);
}

TEST(CritPathWhatIfValidation, ZeroEcallMatchesRerun) {
  // MinBFT crosses the enclave boundary for every USIG sign/verify.
  const ClusterConfig base = PacedConfig(Protocol::kMinBft, 22);
  Cluster cluster(base);
  const RunStats stats = cluster.RunMeasured(Ms(300), Sec(2));
  ASSERT_TRUE(stats.safety_ok);
  ASSERT_GT(stats.critpath.commits, 0u);
  const double predicted = stats.critpath.zero_ecall_ms;
  ASSERT_GT(stats.critpath.crit_ms[Idx(Component::kEcall)], 0.0);
  ClusterConfig modified = base;
  modified.costs.ecall_round_trip = 0;
  const double actual = MeasuredMeanMs(modified);
  EXPECT_NEAR(predicted, actual, actual * 0.10);
}

TEST(CritPathWhatIfValidation, DoubleCryptoMatchesRerun) {
  const ClusterConfig base = PacedConfig(Protocol::kMinBft, 23);
  Cluster cluster(base);
  const RunStats stats = cluster.RunMeasured(Ms(300), Sec(2));
  ASSERT_TRUE(stats.safety_ok);
  ASSERT_GT(stats.critpath.commits, 0u);
  const double predicted = stats.critpath.double_crypto_ms;
  EXPECT_GT(predicted, stats.critpath.baseline_ms);
  // Ground truth: double every member of the crypto cost family.
  ClusterConfig modified = base;
  modified.costs.sign *= 2;
  modified.costs.verify *= 2;
  modified.costs.verify_batch_fixed *= 2;
  modified.costs.verify_batch_per_sig *= 2;
  modified.costs.hash_ns_per_byte *= 2;
  modified.costs.hash_fixed *= 2;
  modified.costs.seal_op *= 2;
  const double actual = MeasuredMeanMs(modified);
  EXPECT_NEAR(predicted, actual, actual * 0.10);
}

}  // namespace
}  // namespace achilles
