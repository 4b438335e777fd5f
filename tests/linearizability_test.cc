// Tests for the Wing–Gong linearizability checker (src/chaos/linearizability.h) and the
// replicated KV app behind the chaos harness (ISSUE 6).
//
// Part 1 exercises the checker on hand-built histories: valid concurrent interleavings
// must be accepted, and each planted anomaly class (stale read, lost update,
// non-monotonic session reads, wrong value) must be rejected with its crisp diagnosis.
// Part 2 runs the real pipeline: a reboot-weighted 200-seed honest chaos sweep with the
// KV app enabled must come back clean, and replays must be digest-stable down to the
// client-observed history. Part 3 checks the planted stale-read-lease bug is flagged.
#include "src/chaos/linearizability.h"

#include <gtest/gtest.h>

#include "src/chaos/runner.h"

namespace achilles {
namespace {

using app::KvOpKind;
using app::KvOpRecord;
using chaos::ChaosOptions;
using chaos::ChaosResult;
using chaos::CheckKvHistory;
using chaos::LinearizabilityVerdict;

// Hand-built-history helper. For a PUT, `value` is what the op wrote (the tx id in the
// real app); for a GET, what the read returned. `response` = -1 marks a pending op.
KvOpRecord Op(uint64_t id, uint32_t session, KvOpKind kind, uint32_t key, uint64_t value,
              uint64_t version, SimTime invoke, SimTime response) {
  KvOpRecord op;
  op.op_id = id;
  op.client = session;
  op.kind = kind;
  op.key = key;
  op.value = value;
  op.version = version;
  op.invoke = invoke;
  op.response = response;
  return op;
}

// --- Part 1: hand-built histories ---

TEST(LinearizabilityTest, EmptyHistoryLinearizes) {
  const LinearizabilityVerdict v = CheckKvHistory({});
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.checked_keys, 0u);
}

TEST(LinearizabilityTest, SequentialHistoryAccepted) {
  std::vector<KvOpRecord> h;
  h.push_back(Op(0xa1, 0, KvOpKind::kPut, 7, 0xa1, 1, Ms(0), Ms(10)));
  h.push_back(Op(0xa2, 0, KvOpKind::kGet, 7, 0xa1, 1, Ms(20), Ms(30)));
  h.push_back(Op(0xa3, 1, KvOpKind::kPut, 7, 0xa3, 2, Ms(40), Ms(50)));
  h.push_back(Op(0xa4, 1, KvOpKind::kGet, 7, 0xa3, 2, Ms(60), Ms(70)));
  const LinearizabilityVerdict v = CheckKvHistory(h);
  EXPECT_TRUE(v.ok) << v.violation;
  EXPECT_EQ(v.checked_keys, 1u);
  EXPECT_EQ(v.checked_ops, 4u);
}

TEST(LinearizabilityTest, ConcurrentReadMayObserveEitherSideOfAWrite) {
  // PUT v2 overlaps both reads; one read sees the old version, the other the new one.
  // Both observations have a witness order: r_old < PUT < r_new.
  std::vector<KvOpRecord> h;
  h.push_back(Op(0xb1, 0, KvOpKind::kPut, 3, 0xb1, 1, Ms(0), Ms(5)));
  h.push_back(Op(0xb2, 0, KvOpKind::kPut, 3, 0xb2, 2, Ms(10), Ms(30)));
  h.push_back(Op(0xb3, 1, KvOpKind::kGet, 3, 0xb1, 1, Ms(15), Ms(25)));
  h.push_back(Op(0xb4, 2, KvOpKind::kGet, 3, 0xb2, 2, Ms(15), Ms(25)));
  const LinearizabilityVerdict v = CheckKvHistory(h);
  EXPECT_TRUE(v.ok) << v.violation;
}

TEST(LinearizabilityTest, OverlappingWritesAndReadsAcrossSessionsAccepted) {
  // Two overlapping completed writes (versions pin their order) with reads scattered
  // across the overlap window observing 1 then 2 — a valid witness interleaving.
  std::vector<KvOpRecord> h;
  h.push_back(Op(0xc1, 0, KvOpKind::kPut, 4, 0xc1, 1, Ms(0), Ms(20)));
  h.push_back(Op(0xc2, 1, KvOpKind::kPut, 4, 0xc2, 2, Ms(10), Ms(30)));
  h.push_back(Op(0xc3, 2, KvOpKind::kGet, 4, 0xc1, 1, Ms(5), Ms(35)));
  h.push_back(Op(0xc4, 3, KvOpKind::kGet, 4, 0xc2, 2, Ms(5), Ms(35)));
  h.push_back(Op(0xc5, 2, KvOpKind::kGet, 4, 0xc2, 2, Ms(40), Ms(45)));
  const LinearizabilityVerdict v = CheckKvHistory(h);
  EXPECT_TRUE(v.ok) << v.violation;
}

TEST(LinearizabilityTest, PendingWriteMayApplyOrNot) {
  // A pending write (no response by the horizon) MAY have taken effect: a read observing
  // it is fine, and so is a history where it never ran.
  std::vector<KvOpRecord> with_effect;
  with_effect.push_back(Op(0xd1, 0, KvOpKind::kPut, 9, 0xd1, 0, Ms(0), -1));
  with_effect.push_back(Op(0xd2, 1, KvOpKind::kGet, 9, 0xd1, 1, Ms(10), Ms(20)));
  EXPECT_TRUE(CheckKvHistory(with_effect).ok);

  std::vector<KvOpRecord> without_effect;
  without_effect.push_back(Op(0xd1, 0, KvOpKind::kPut, 9, 0xd1, 0, Ms(0), -1));
  without_effect.push_back(Op(0xd2, 1, KvOpKind::kGet, 9, 0, 0, Ms(10), Ms(20)));
  EXPECT_TRUE(CheckKvHistory(without_effect).ok);
}

TEST(LinearizabilityTest, PendingReadsConstrainNothing) {
  std::vector<KvOpRecord> h;
  h.push_back(Op(0xe1, 0, KvOpKind::kPut, 2, 0xe1, 1, Ms(0), Ms(10)));
  h.push_back(Op(0xe2, 1, KvOpKind::kGet, 2, 12345, 99, Ms(20), -1));  // Garbage, pending.
  const LinearizabilityVerdict v = CheckKvHistory(h);
  EXPECT_TRUE(v.ok) << v.violation;
  EXPECT_EQ(v.checked_ops, 1u);  // The pending read was dropped before the search.
}

TEST(LinearizabilityTest, StaleReadRejected) {
  // Version 2 was committed (acknowledged) before the read began, yet the read returned
  // version 1 — the signature anomaly of a broken read lease.
  std::vector<KvOpRecord> h;
  h.push_back(Op(0xf1, 0, KvOpKind::kPut, 5, 0xf1, 1, Ms(0), Ms(10)));
  h.push_back(Op(0xf2, 1, KvOpKind::kPut, 5, 0xf2, 2, Ms(20), Ms(30)));
  KvOpRecord stale = Op(0xf3, 2, KvOpKind::kGet, 5, 0xf1, 1, Ms(40), Ms(50));
  stale.lease_read = true;
  stale.server = 0;
  h.push_back(stale);
  const LinearizabilityVerdict v = CheckKvHistory(h);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.violation.find("stale read on key 5"), std::string::npos) << v.violation;
  EXPECT_NE(v.violation.find("returned version 1"), std::string::npos) << v.violation;
  EXPECT_NE(v.violation.find("version 2 was already committed"), std::string::npos)
      << v.violation;
  EXPECT_NE(v.violation.find("lease read"), std::string::npos) << v.violation;
  EXPECT_EQ(v.key, 5u);
  EXPECT_EQ(v.server, 0u);
}

TEST(LinearizabilityTest, LostUpdateRejected) {
  // Two acknowledged writes claiming the same version slot: one update was lost.
  std::vector<KvOpRecord> h;
  h.push_back(Op(0x11, 0, KvOpKind::kPut, 6, 0x11, 1, Ms(0), Ms(10)));
  h.push_back(Op(0x12, 1, KvOpKind::kPut, 6, 0x12, 1, Ms(0), Ms(10)));
  const LinearizabilityVerdict v = CheckKvHistory(h);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.violation.find("lost update on key 6"), std::string::npos) << v.violation;
  EXPECT_NE(v.violation.find("both created version 1"), std::string::npos) << v.violation;
}

TEST(LinearizabilityTest, NonMonotonicSessionReadsRejected) {
  // The writer of version 2 is still pending (so the stale-read scan cannot fire), but a
  // single session observing version 2 then version 1 is a definite violation: sessions
  // are sequential, so their program order is real-time order.
  std::vector<KvOpRecord> h;
  h.push_back(Op(0x21, 0, KvOpKind::kPut, 8, 0x21, 1, Ms(0), Ms(10)));
  h.push_back(Op(0x22, 1, KvOpKind::kPut, 8, 0x22, 0, Ms(20), -1));  // Pending.
  h.push_back(Op(0x23, 2, KvOpKind::kGet, 8, 0x22, 2, Ms(30), Ms(40)));
  h.push_back(Op(0x24, 2, KvOpKind::kGet, 8, 0x21, 1, Ms(50), Ms(60)));
  const LinearizabilityVerdict v = CheckKvHistory(h);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.violation.find("non-monotonic reads on key 8"), std::string::npos)
      << v.violation;
  EXPECT_NE(v.violation.find("session 2"), std::string::npos) << v.violation;
}

TEST(LinearizabilityTest, WrongValueCaughtByFullSearch) {
  // Version numbers are consistent, so no fast scan fires; the Wing–Gong search itself
  // must notice the read returned a value nobody wrote at that version.
  std::vector<KvOpRecord> h;
  h.push_back(Op(0x31, 0, KvOpKind::kPut, 1, 0x31, 1, Ms(0), Ms(10)));
  h.push_back(Op(0x32, 1, KvOpKind::kGet, 1, 0xdead, 1, Ms(20), Ms(30)));
  const LinearizabilityVerdict v = CheckKvHistory(h);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.violation.find("no witness linearization exists for key 1"),
            std::string::npos)
      << v.violation;
}

TEST(LinearizabilityTest, RealTimePrecedenceEnforcedAcrossSessions) {
  // Read of version 0 invoked strictly after the version-1 write completed: even though
  // version 0 existed once, real-time order forbids linearizing the read before the write.
  std::vector<KvOpRecord> h;
  h.push_back(Op(0x41, 0, KvOpKind::kPut, 2, 0x41, 1, Ms(0), Ms(10)));
  h.push_back(Op(0x42, 1, KvOpKind::kGet, 2, 0, 0, Ms(20), Ms(30)));
  const LinearizabilityVerdict v = CheckKvHistory(h);
  ASSERT_FALSE(v.ok);  // Flagged by the stale-read scan (version 1 predates the read).
  EXPECT_NE(v.violation.find("stale read"), std::string::npos) << v.violation;
}

TEST(LinearizabilityTest, KeysArePartitionedIndependently) {
  // A violation on key 9 must not be masked by clean traffic on other keys, and the
  // verdict must name the offending key.
  std::vector<KvOpRecord> h;
  h.push_back(Op(0x51, 0, KvOpKind::kPut, 1, 0x51, 1, Ms(0), Ms(10)));
  h.push_back(Op(0x52, 0, KvOpKind::kGet, 1, 0x51, 1, Ms(20), Ms(30)));
  h.push_back(Op(0x53, 1, KvOpKind::kPut, 9, 0x53, 1, Ms(0), Ms(10)));
  h.push_back(Op(0x54, 2, KvOpKind::kPut, 9, 0x54, 1, Ms(0), Ms(10)));
  const LinearizabilityVerdict v = CheckKvHistory(h);
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.key, 9u);
  EXPECT_NE(v.violation.find("lost update on key 9"), std::string::npos) << v.violation;
}

// --- Part 2: the real pipeline, honest runs ---

// Acceptance criterion (ISSUE 6): a reboot-weighted 200-seed honest sweep with the KV app
// enabled passes every oracle — including the linearizability oracle, which runs on every
// seed — across all ten protocols (the seed round-robins the protocol). Seeds 1-200 run
// in ten shards (`Shards/…/N`), each its own ctest entry, so `ctest -j` spreads them.
constexpr uint64_t kKvSweepSeeds = 200;
constexpr int kKvSweepShards = 10;

class KvChaosSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(KvChaosSweepTest, HonestRebootWeightedSweepIsClean) {
  ChaosOptions options;
  options.app_kv = true;
  options.reboot_prob = 0.85;
  const uint64_t per_shard = kKvSweepSeeds / kKvSweepShards;
  const uint64_t first = 1 + static_cast<uint64_t>(GetParam()) * per_shard;
  for (uint64_t seed = first; seed < first + per_shard; ++seed) {
    const ChaosResult result = chaos::RunChaosSeed(options, seed);
    ASSERT_TRUE(result.ok) << "seed " << seed << " (" << ProtocolName(result.protocol)
                           << "): " << result.violation;
    EXPECT_FALSE(result.history_digest_hex.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, KvChaosSweepTest, ::testing::Range(0, kKvSweepShards));

TEST(KvChaosReplayTest, ReplayIsDigestStableDownToTheHistory) {
  ChaosOptions options;
  options.app_kv = true;
  options.reboot_prob = 0.85;
  for (uint64_t seed : {3u, 57u, 142u}) {
    const ChaosResult a = chaos::RunChaosSeed(options, seed);
    const ChaosResult b = chaos::RunChaosSeed(options, seed);
    ASSERT_TRUE(a.ok) << a.violation;
    EXPECT_EQ(a.log_digest_hex, b.log_digest_hex) << "seed " << seed;
    EXPECT_EQ(a.history_digest_hex, b.history_digest_hex) << "seed " << seed;
    EXPECT_EQ(a.history_text, b.history_text) << "seed " << seed;
  }
}

// --- Part 3: the planted lease bug must be caught ---

TEST(KvBrokenVariantTest, StaleReadLeaseIsFlaggedDeterministically) {
  ChaosOptions options;
  options.broken = BrokenVariant::kStaleReadLease;
  const ChaosResult result = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(result.ok) << "broken stale-read-lease variant passed the oracles";
  EXPECT_NE(result.violation.find("linearizability"), std::string::npos)
      << result.violation;
  EXPECT_NE(result.violation.find("stale read"), std::string::npos) << result.violation;
  EXPECT_NE(result.violation.find("lease read"), std::string::npos) << result.violation;
  // Deterministic: the same seed reproduces the identical violation text and history.
  const ChaosResult again = chaos::RunChaosSeed(options, 1);
  EXPECT_EQ(again.violation, result.violation);
  EXPECT_EQ(again.history_digest_hex, result.history_digest_hex);
}

// Regression (found by a checkpoint-weighted swarm run): a leaseholder proposes a PUT and
// is partitioned away before committing it; the survivors elect a new leader, commit the
// old proposal, and their applied-notifications complete the write at the client (the
// grantor-side withholding exempts holder-proposed blocks). The holder's lease is still
// live, so without the pending-put bar it would serve the pre-write version of that key —
// a client-provable stale read. The fix declines the lease fast path for keys with a
// self-proposed write in flight.
TEST(KvLeaseEdgeTest, PartitionedHolderWithAnInFlightPutMustNotServeThatKey) {
  ScriptArtifact artifact;
  ASSERT_TRUE(ScriptArtifact::FromText(
      "chaos-script v4\n"
      "protocol BRaft\n"
      "f 1\n"
      "seed 67\n"
      "defense local\n"
      "event 346591047 partition 1 2 0\n"
      "heal 1400000000\n"
      "horizon 2000000000\n",
      &artifact));
  ChaosOptions options;
  options.app_kv = true;
  const ChaosResult result = chaos::RunChaosScript(options, artifact.seed, Protocol::kRaft,
                                                   artifact.f, artifact.script);
  EXPECT_TRUE(result.ok) << result.violation;
}

// The honest lease protocol must NOT trip the oracle under the exact same isolation
// choreography the broken variant uses — response withholding is what saves it.
TEST(KvBrokenVariantTest, HonestLeaseSurvivesTheSameChoreography) {
  ChaosOptions broken;
  broken.broken = BrokenVariant::kStaleReadLease;
  const ChaosResult failing = chaos::RunChaosSeed(broken, 1);
  ASSERT_FALSE(failing.ok);
  ChaosOptions honest;
  honest.app_kv = true;
  const ChaosResult passing = chaos::RunChaosScript(honest, failing.seed, failing.protocol,
                                                    failing.f, failing.script);
  EXPECT_TRUE(passing.ok) << passing.violation;
}

}  // namespace
}  // namespace achilles
