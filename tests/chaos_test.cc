// Tests for the chaos harness itself (ISSUE 3): oracle units, seed determinism /
// bit-identical replay, broken-variant self-tests, delta-minimization, and artifact
// round-trips. The oracles are the product here, so they get direct unit coverage — a
// chaos harness whose checkers are wrong is worse than none.
#include <gtest/gtest.h>

#include "src/chaos/minimize.h"
#include "src/chaos/oracles.h"
#include "src/chaos/runner.h"

namespace achilles {
namespace {

using chaos::ChaosOptions;
using chaos::ChaosResult;
using chaos::MinimizeResult;
using chaos::OracleConfig;
using chaos::OracleSuite;

Hash256 TestHash(uint8_t tag) {
  Hash256 h{};
  h.fill(tag);
  return h;
}

// --- Oracle units ---

TEST(OracleTest, AgreementViolationDetected) {
  OracleSuite oracles(OracleConfig{});
  oracles.OnCommit(0, 7, TestHash(0xaa), Ms(1));
  oracles.OnCommit(1, 7, TestHash(0xaa), Ms(2));  // Same block: fine.
  EXPECT_TRUE(oracles.ok());
  oracles.OnCommit(2, 7, TestHash(0xbb), Ms(3));  // Conflicting block at height 7.
  EXPECT_FALSE(oracles.ok());
  EXPECT_NE(oracles.violation().find("agreement"), std::string::npos)
      << oracles.violation();
}

TEST(OracleTest, ByzantineReplicasAreNotAudited) {
  OracleSuite oracles(OracleConfig{});
  oracles.MarkByzantine(2);
  oracles.OnCommit(0, 7, TestHash(0xaa), Ms(1));
  oracles.OnCommit(2, 7, TestHash(0xbb), Ms(2));  // Adversary-controlled: ignored.
  EXPECT_TRUE(oracles.ok());
}

TEST(OracleTest, CounterRegressionDetected) {
  OracleSuite oracles(OracleConfig{});
  InvariantSnapshot snap;
  snap.counter_value = 5;
  oracles.OnSnapshot(1, snap, Ms(1));
  EXPECT_TRUE(oracles.ok());
  snap.counter_value = 3;  // The persistent device never goes backwards.
  oracles.OnSnapshot(1, snap, Ms(2));
  EXPECT_FALSE(oracles.ok());
  EXPECT_NE(oracles.violation().find("counter"), std::string::npos);
}

TEST(OracleTest, CounterLockstepViolationDetected) {
  OracleConfig config;
  config.counter_lockstep = true;
  OracleSuite oracles(config);
  InvariantSnapshot snap;
  snap.counter_value = 9;
  snap.trusted_version = 9;
  oracles.OnSnapshot(0, snap, Ms(1));
  EXPECT_TRUE(oracles.ok());
  snap.halted = true;  // A halted -R replica legitimately lags its counter.
  snap.trusted_version = 4;
  oracles.OnSnapshot(0, snap, Ms(2));
  EXPECT_TRUE(oracles.ok());
  snap.halted = false;  // Live with version != counter: stale seal was accepted.
  oracles.OnSnapshot(0, snap, Ms(3));
  EXPECT_FALSE(oracles.ok());
  EXPECT_NE(oracles.violation().find("stale sealed state"), std::string::npos);
}

TEST(OracleTest, DurabilityViolationDetected) {
  OracleSuite oracles(OracleConfig{});
  oracles.OnCommit(0, 4, TestHash(0xaa), Ms(1));
  InvariantSnapshot snap;
  snap.committed_height = 4;
  snap.committed_hash = TestHash(0xcc);  // Recovered prefix diverges from the audit map.
  oracles.OnSnapshot(1, snap, Ms(2));
  EXPECT_FALSE(oracles.ok());
  EXPECT_NE(oracles.violation().find("durability"), std::string::npos);
}

TEST(OracleTest, RecoveryFreshnessViolations) {
  {
    OracleSuite oracles(OracleConfig{});  // f = 1: needs >= 2 fresh replies.
    oracles.OnRecoveryComplete(1, 2, true, Ms(1));
    EXPECT_TRUE(oracles.ok());
    oracles.OnRecoveryComplete(1, 1, true, Ms(2));
    EXPECT_FALSE(oracles.ok());
    EXPECT_NE(oracles.violation().find("freshness"), std::string::npos);
  }
  {
    OracleSuite oracles(OracleConfig{});
    oracles.OnRecoveryComplete(1, 2, false, Ms(1));  // Completed on a superseded nonce.
    EXPECT_FALSE(oracles.ok());
    EXPECT_NE(oracles.violation().find("stale replay"), std::string::npos);
  }
}

TEST(OracleTest, LivenessViolationDetected) {
  OracleSuite oracles(OracleConfig{});
  oracles.OnCommit(0, 5, TestHash(0x11), Ms(1));
  oracles.OnHeal(Ms(10));
  oracles.OnRunEnd(Ms(100));  // No honest commit after heal.
  EXPECT_FALSE(oracles.ok());
  EXPECT_NE(oracles.violation().find("liveness"), std::string::npos);
}

TEST(OracleTest, ProgressAfterHealPasses) {
  OracleSuite oracles(OracleConfig{});
  oracles.OnCommit(0, 5, TestHash(0x11), Ms(1));
  oracles.OnHeal(Ms(10));
  oracles.OnCommit(0, 6, TestHash(0x12), Ms(50));
  oracles.OnRunEnd(Ms(100));
  EXPECT_TRUE(oracles.ok()) << oracles.violation();
  EXPECT_EQ(oracles.max_honest_height(), 6u);
}

TEST(OracleTest, StableCheckpointHashMismatchDetected) {
  OracleSuite oracles(OracleConfig{});
  oracles.OnCommit(0, 8, TestHash(1), Ms(1));
  // A certificate naming a different block at a committed height is a forged checkpoint.
  oracles.OnStableCheckpoint(1, 8, TestHash(2), Ms(2));
  ASSERT_FALSE(oracles.ok());
  EXPECT_NE(oracles.violation().find("checkpoint"), std::string::npos);
  EXPECT_EQ(oracles.incident().oracle, "checkpoint");
}

TEST(OracleTest, AdoptBelowCommittedPrefixDetected) {
  OracleSuite oracles(OracleConfig{});
  oracles.OnCommit(0, 10, TestHash(1), Ms(1));
  oracles.OnCheckpointAdopted(0, 8, TestHash(2), Ms(2));
  ASSERT_FALSE(oracles.ok());
  EXPECT_NE(oracles.violation().find("at or below its committed prefix"),
            std::string::npos);
}

TEST(OracleTest, AdoptBelowCertifiedFloorDetectedAcrossReboot) {
  OracleSuite oracles(OracleConfig{});
  oracles.OnStableCheckpoint(0, 16, TestHash(1), Ms(1));
  // A clean reboot forgets the committed watermark (commit indices are volatile) but the
  // certified floor is sealed: adopting below it is a rollback by snapshot.
  oracles.OnReplicaReboot(0, /*cert_surface_attacked=*/false);
  oracles.OnCheckpointAdopted(0, 8, TestHash(2), Ms(2));
  ASSERT_FALSE(oracles.ok());
  EXPECT_NE(oracles.violation().find("below its certified floor"), std::string::npos);
}

TEST(OracleTest, AttackedCertSurfaceForgetsTheFloor) {
  OracleSuite oracles(OracleConfig{});
  oracles.OnStableCheckpoint(0, 16, TestHash(1), Ms(1));
  // When the reboot attacked the certificate surface the restored floor legitimately
  // regresses (the modeled adversary rolled the snapshot back); no violation.
  oracles.OnReplicaReboot(0, /*cert_surface_attacked=*/true);
  oracles.OnCheckpointAdopted(0, 8, TestHash(2), Ms(2));
  EXPECT_TRUE(oracles.ok()) << oracles.violation();
}

TEST(OracleTest, AdoptAboveTheFloorRaisesIt) {
  OracleSuite oracles(OracleConfig{});
  oracles.OnCheckpointAdopted(0, 24, TestHash(1), Ms(1));
  EXPECT_TRUE(oracles.ok()) << oracles.violation();
  // The adopt raised both watermarks: repeating it is now a regression.
  oracles.OnCheckpointAdopted(0, 24, TestHash(1), Ms(2));
  ASSERT_FALSE(oracles.ok());
}

TEST(OracleTest, FirstViolationWins) {
  OracleSuite oracles(OracleConfig{});
  oracles.OnCommit(0, 7, TestHash(0xaa), Ms(1));
  oracles.OnCommit(1, 7, TestHash(0xbb), Ms(2));
  const std::string first = oracles.violation();
  InvariantSnapshot snap;
  snap.counter_value = 9;
  oracles.OnSnapshot(0, snap, Ms(3));
  snap.counter_value = 1;
  oracles.OnSnapshot(0, snap, Ms(4));
  EXPECT_EQ(oracles.violation(), first);  // Later violations never overwrite the first.
}

// --- Seed determinism / bit-identical replay ---

TEST(ChaosRunnerTest, SameSeedIsBitIdentical) {
  ChaosOptions options;
  const ChaosResult a = chaos::RunChaosSeed(options, 5);
  const ChaosResult b = chaos::RunChaosSeed(options, 5);
  ASSERT_FALSE(a.log_digest_hex.empty());
  EXPECT_EQ(a.log_digest_hex, b.log_digest_hex);
  EXPECT_EQ(a.event_log, b.event_log);  // Not just the digest: the whole log.
  EXPECT_EQ(a.final_height, b.final_height);
  EXPECT_TRUE(a.ok) << a.violation;
}

TEST(ChaosRunnerTest, ReplayFromArtifactMatchesOriginal) {
  ChaosOptions options;
  const ChaosResult original = chaos::RunChaosSeed(options, 9);
  const ScriptArtifact artifact = original.Artifact();
  Protocol protocol = Protocol::kAchilles;
  ASSERT_TRUE(ProtocolFromName(artifact.protocol, &protocol));
  const ChaosResult replayed = chaos::RunChaosScript(options, artifact.seed, protocol,
                                                     artifact.f, artifact.script);
  EXPECT_EQ(replayed.log_digest_hex, original.log_digest_hex);
}

TEST(ChaosRunnerTest, ArtifactTextRoundTrips) {
  const ChaosResult result = chaos::RunChaosSeed(ChaosOptions{}, 12);
  const ScriptArtifact artifact = result.Artifact();
  const std::string text = artifact.ToText();
  ScriptArtifact parsed;
  ASSERT_TRUE(ScriptArtifact::FromText(text, &parsed));
  EXPECT_EQ(parsed.protocol, artifact.protocol);
  EXPECT_EQ(parsed.f, artifact.f);
  EXPECT_EQ(parsed.seed, artifact.seed);
  EXPECT_EQ(parsed.script.events.size(), artifact.script.events.size());
  EXPECT_EQ(parsed.script.byzantine, artifact.script.byzantine);
  EXPECT_EQ(parsed.script.heal_at, artifact.script.heal_at);
  EXPECT_EQ(parsed.script.horizon, artifact.script.horizon);
  EXPECT_EQ(parsed.ToText(), text);  // Canonical form is a fixed point.
}

// --- chaos-script v4: defense header + peer-quorum reboot fates ---

TEST(ChaosScriptV4Test, DefenseFateBitsEncodeAndDecode) {
  StorageFate fate;
  fate.wal = storage::WalFate::kTornTail;
  fate.sealed = SealedFate::kStale;
  fate.snapshot = checkpoint::SnapshotFate::kStale;
  fate.defense = persist::DefenseFate::kPeerErased;
  const StorageFate decoded = DecodeStorageFate(EncodeStorageFate(fate));
  EXPECT_EQ(decoded.wal, fate.wal);
  EXPECT_EQ(decoded.sealed, fate.sealed);
  EXPECT_EQ(decoded.snapshot, fate.snapshot);
  EXPECT_EQ(decoded.defense, fate.defense);
  // The all-honest fate still encodes to 0 (v1-v3 meaning compatibility).
  EXPECT_EQ(EncodeStorageFate(StorageFate{}), 0u);
}

TEST(ChaosScriptV4Test, DefenseHeaderAndPeerFateRoundTrip) {
  ScriptArtifact artifact;
  artifact.protocol = "Damysus-R";
  artifact.f = 1;
  artifact.seed = 99;
  artifact.defense = "rollbaccine";
  StorageFate fate;
  fate.sealed = SealedFate::kStale;
  fate.defense = persist::DefenseFate::kPeerStale;
  FaultEvent crash{Ms(100), FaultKind::kCrash, 2, 0, 0};
  FaultEvent reboot{Ms(300), FaultKind::kReboot, 2, 0, EncodeStorageFate(fate)};
  artifact.script.byzantine.assign(4, ByzantineMode::kNone);
  artifact.script.events = {crash, reboot};
  artifact.script.heal_at = Ms(1800);
  artifact.script.horizon = Sec(3);
  const std::string text = artifact.ToText();
  EXPECT_NE(text.find("chaos-script v4"), std::string::npos) << text;
  EXPECT_NE(text.find("defense rollbaccine"), std::string::npos) << text;
  ScriptArtifact parsed;
  ASSERT_TRUE(ScriptArtifact::FromText(text, &parsed));
  EXPECT_EQ(parsed.defense, "rollbaccine");
  ASSERT_EQ(parsed.script.events.size(), 2u);
  const StorageFate replayed = DecodeStorageFate(parsed.script.events[1].arg);
  EXPECT_EQ(replayed.sealed, SealedFate::kStale);
  EXPECT_EQ(replayed.defense, persist::DefenseFate::kPeerStale);
  EXPECT_EQ(parsed.ToText(), text);  // Canonical form is a fixed point.
}

TEST(ChaosScriptV4Test, PreV4HeadersAreRejected) {
  // Only v4 artifacts are read; an older header is refused rather than reinterpreted.
  const std::string body =
      "\nprotocol Achilles\nf 1\nseed 4\n"
      "event 100000000 reboot 1 0 257\n"
      "heal 1400000000\nhorizon 2000000000\n";
  ScriptArtifact parsed;
  EXPECT_FALSE(ScriptArtifact::FromText("chaos-script v3" + body, &parsed));
  ASSERT_TRUE(ScriptArtifact::FromText("chaos-script v4" + body, &parsed));
  EXPECT_EQ(parsed.defense, "local");  // A v4 text without a defense line means local.
}

TEST(ChaosScriptV4Test, QuorumDefenseSweepStaysCleanAndReplaysDigestStable) {
  for (const persist::DefenseKind defense :
       {persist::DefenseKind::kRollbaccine, persist::DefenseKind::kHealer}) {
    ChaosOptions options;
    options.defense = defense;
    options.reboot_prob = 1.0;  // Weight toward the reboots that exercise peer fates.
    const ChaosResult result = chaos::RunChaosSeed(options, 3);
    ASSERT_TRUE(result.ok) << persist::DefenseKindName(defense) << ": "
                           << result.violation;
    EXPECT_EQ(result.defense, defense);
    const ScriptArtifact artifact = result.Artifact();
    EXPECT_EQ(artifact.defense, persist::DefenseKindName(defense));
    Protocol protocol = Protocol::kAchilles;
    ASSERT_TRUE(ProtocolFromName(artifact.protocol, &protocol));
    const ChaosResult replayed = chaos::RunChaosScript(options, artifact.seed, protocol,
                                                       artifact.f, artifact.script);
    EXPECT_EQ(replayed.log_digest_hex, result.log_digest_hex)
        << persist::DefenseKindName(defense);
  }
}

// --- Broken-variant self-tests: the oracles must flag the planted bugs ---

TEST(ChaosBrokenVariantTest, RecoveryNonceBypassIsFlagged) {
  ChaosOptions options;
  options.broken = BrokenVariant::kRecoveryNonce;
  const ChaosResult result = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(result.ok) << "broken recovery-nonce variant passed the oracles";
  EXPECT_NE(result.violation.find("freshness"), std::string::npos) << result.violation;
}

TEST(ChaosBrokenVariantTest, CounterCompareBypassIsFlagged) {
  ChaosOptions options;
  options.broken = BrokenVariant::kCounterCompare;
  const ChaosResult result = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(result.ok) << "broken counter-compare variant passed the oracles";
  EXPECT_NE(result.violation.find("counter"), std::string::npos) << result.violation;
}

TEST(ChaosBrokenVariantTest, StaleSnapshotAcceptIsFlagged) {
  ChaosOptions options;
  options.broken = BrokenVariant::kStaleSnapshotAccept;
  // The canonical choreography (crash, run ahead, reboot into a fetch) needs a seed whose
  // background schedule lets the victim lag past the catch-up threshold; seed 2 is the
  // first that does, and the flagging is deterministic (chaos_main's golden incident).
  const ChaosResult result = chaos::RunChaosSeed(options, 2);
  ASSERT_FALSE(result.ok) << "broken stale-snapshot-accept variant passed the oracles";
  EXPECT_NE(result.violation.find("checkpoint"), std::string::npos) << result.violation;
  EXPECT_NE(result.violation.find("stale snapshot accepted"), std::string::npos)
      << result.violation;
}

TEST(ChaosBrokenVariantTest, QuorumRestoreSkipIsFlagged) {
  ChaosOptions options;
  options.broken = BrokenVariant::kQuorumRestoreSkip;  // Forces Damysus-R + rollbaccine.
  const ChaosResult result = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(result.ok) << "broken quorum-restore-skip variant passed the oracles";
  EXPECT_EQ(result.defense, persist::DefenseKind::kRollbaccine);
  EXPECT_NE(result.violation.find("trusted version regressed"), std::string::npos)
      << result.violation;
}

TEST(ChaosBrokenVariantTest, CertFloorSkipIsFlagged) {
  ChaosOptions options;
  options.broken = BrokenVariant::kCertFloorSkip;  // Forces Damysus-R + healer.
  const ChaosResult result = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(result.ok) << "broken cert-floor-skip variant passed the oracles";
  EXPECT_EQ(result.defense, persist::DefenseKind::kHealer);
  EXPECT_NE(result.violation.find("trusted version regressed"), std::string::npos)
      << result.violation;
}

// Regression: a duplicated vote response (delivery-jitter duplication) must not be
// double-counted toward the election quorum. BRaft tallied votes with a bare counter; in
// this checkpoint-weighted swarm reproducer node 3 received node 2's grant twice, declared
// itself leader of term 2 with only 2 of 5 distinct grantors, and forked height 206 against
// the term-1 leader's committed block. Votes are now deduped per grantor.
TEST(ChaosRegressionTest, DuplicatedVoteResponseMustNotElectAMinorityLeader) {
  ScriptArtifact artifact;
  ASSERT_TRUE(ScriptArtifact::FromText(
      "chaos-script v4\nprotocol BRaft\nf 2\nseed 17\ndefense local\n"
      "event 428184172 jitter-on 0 0 947907\n"
      "event 430924395 stall 1 0 218665280\n"
      "event 508532317 partition 4 3 0\n"
      "event 736878833 heal-partition 0 0 0\n"
      "heal 1400000000\nhorizon 2000000000\n",
      &artifact));
  ChaosOptions options;
  options.app_kv = true;
  Protocol protocol = Protocol::kAchilles;
  ASSERT_TRUE(ProtocolFromName(artifact.protocol, &protocol));
  const ChaosResult result =
      chaos::RunChaosScript(options, artifact.seed, protocol, artifact.f, artifact.script);
  EXPECT_TRUE(result.ok) << result.violation;
}

// --- Minimization ---

TEST(ChaosMinimizeTest, ShrinksFailingScriptAndStaysFailing) {
  ChaosOptions options;
  options.broken = BrokenVariant::kCounterCompare;
  const ChaosResult failing = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(failing.ok);
  const MinimizeResult minimized = chaos::MinimizeScript(
      options, failing.seed, failing.protocol, failing.f, failing.script);
  EXPECT_TRUE(minimized.reproduced);
  EXPECT_FALSE(minimized.violation.empty());
  EXPECT_LE(minimized.minimized_events, minimized.original_events);
  EXPECT_LE(minimized.script.events.size(), failing.script.events.size());
  EXPECT_LE(minimized.minimized_byzantine, minimized.original_byzantine);
  // The minimized script is a genuine reproducer on its own.
  const ChaosResult rerun = chaos::RunChaosScript(options, failing.seed, failing.protocol,
                                                  failing.f, minimized.script);
  EXPECT_FALSE(rerun.ok);
}

TEST(ChaosMinimizeTest, DdminRoundTripsThroughTheV3ArtifactText) {
  // Regression for the v3 script format: a ddmin-minimized checkpoint reproducer must
  // survive ToText -> FromText with its snapshot fates intact and still reproduce.
  ChaosOptions options;
  options.broken = BrokenVariant::kStaleSnapshotAccept;
  const ChaosResult failing = chaos::RunChaosSeed(options, 2);
  ASSERT_FALSE(failing.ok);
  const MinimizeResult minimized = chaos::MinimizeScript(
      options, failing.seed, failing.protocol, failing.f, failing.script);
  ASSERT_TRUE(minimized.reproduced);
  ScriptArtifact artifact = failing.Artifact();
  artifact.script = minimized.script;
  const std::string text = artifact.ToText();
  ScriptArtifact parsed;
  ASSERT_TRUE(ScriptArtifact::FromText(text, &parsed));
  ASSERT_EQ(parsed.script.events.size(), minimized.script.events.size());
  for (size_t i = 0; i < parsed.script.events.size(); ++i) {
    EXPECT_EQ(parsed.script.events[i].arg, minimized.script.events[i].arg) << "event " << i;
  }
  Protocol protocol = Protocol::kAchilles;
  ASSERT_TRUE(ProtocolFromName(parsed.protocol, &protocol));
  const ChaosResult rerun =
      chaos::RunChaosScript(options, parsed.seed, protocol, parsed.f, parsed.script);
  EXPECT_FALSE(rerun.ok);
  EXPECT_NE(rerun.violation.find("checkpoint"), std::string::npos) << rerun.violation;
}

TEST(ChaosMinimizeTest, DdminPreservesTheDefenseHeader) {
  // A minimized quorum-backend reproducer must re-run under the same backend: the defense
  // line has to survive ddmin's ToText -> FromText round trip, or the replay silently
  // falls back to the local backend and the reproducer stops reproducing.
  ChaosOptions options;
  options.broken = BrokenVariant::kQuorumRestoreSkip;
  const ChaosResult failing = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(failing.ok);
  const MinimizeResult minimized = chaos::MinimizeScript(
      options, failing.seed, failing.protocol, failing.f, failing.script);
  ASSERT_TRUE(minimized.reproduced);
  ScriptArtifact artifact = failing.Artifact();
  artifact.script = minimized.script;
  const std::string text = artifact.ToText();
  EXPECT_NE(text.find("defense rollbaccine"), std::string::npos) << text;
  ScriptArtifact parsed;
  ASSERT_TRUE(ScriptArtifact::FromText(text, &parsed));
  EXPECT_EQ(parsed.defense, "rollbaccine");
  Protocol protocol = Protocol::kAchilles;
  ASSERT_TRUE(ProtocolFromName(parsed.protocol, &protocol));
  // Replay contract (chaos_main's ReplayFile): the artifact's defense line configures the
  // rerun's backend. Without it the replay would run the local backend and diverge.
  ChaosOptions replay_options = options;
  ASSERT_TRUE(persist::DefenseKindFromName(parsed.defense, &replay_options.defense));
  const ChaosResult rerun = chaos::RunChaosScript(replay_options, parsed.seed, protocol,
                                                  parsed.f, parsed.script);
  EXPECT_FALSE(rerun.ok);
  EXPECT_NE(rerun.violation.find("trusted version regressed"), std::string::npos)
      << rerun.violation;
}

TEST(ChaosRunnerTest, CheckpointWeightedSweepStaysClean) {
  // Max checkpoint-fate weight: every sampled reboot draws a snapshot fate and lagging
  // rejoins are common. The honest protocols must absorb all of it.
  ChaosOptions options;
  options.ckpt_prob = 1.0;
  for (uint64_t seed = 30; seed < 33; ++seed) {
    const ChaosResult result = chaos::RunChaosSeed(options, seed);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
  }
}

TEST(ChaosMinimizeTest, PassingScriptReportsNotReproduced) {
  ChaosOptions options;
  const ChaosResult passing = chaos::RunChaosSeed(options, 5);
  ASSERT_TRUE(passing.ok);
  const MinimizeResult result = chaos::MinimizeScript(
      options, passing.seed, passing.protocol, passing.f, passing.script);
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.script.events.size(), passing.script.events.size());  // Untouched.
}

// --- Name tables ---

TEST(ChaosNamesTest, BrokenVariantNamesRoundTrip) {
  for (const BrokenVariant variant :
       {BrokenVariant::kNone, BrokenVariant::kRecoveryNonce,
        BrokenVariant::kCounterCompare, BrokenVariant::kStaleReadLease,
        BrokenVariant::kStaleSnapshotAccept}) {
    BrokenVariant parsed = BrokenVariant::kNone;
    ASSERT_TRUE(chaos::BrokenVariantFromName(chaos::BrokenVariantName(variant), &parsed));
    EXPECT_EQ(parsed, variant);
  }
  BrokenVariant parsed = BrokenVariant::kNone;
  EXPECT_FALSE(chaos::BrokenVariantFromName("no-such-variant", &parsed));
}

}  // namespace
}  // namespace achilles
