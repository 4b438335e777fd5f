// Flight-recorder and forensics tests (ISSUE 4): journal ring mechanics (bounded memory,
// incarnation tagging, digest determinism), forensics invariant predicates over synthetic
// journals, and end-to-end chaos properties — same seed gives a bit-identical journal
// (digest-checked, including across script replay), journaling on/off leaves the run's
// event log untouched, and the broken recovery-nonce variant yields a golden incident
// report that names the replica, the stale nonce round, and the violated invariant.
#include <gtest/gtest.h>

#include "src/chaos/runner.h"
#include "src/harness/cluster.h"
#include "src/harness/fault_script.h"
#include "src/obs/forensics.h"
#include "src/obs/journal.h"
#include "src/obs/recorder.h"

namespace achilles {
namespace {

using chaos::ChaosOptions;
using chaos::ChaosResult;
using obs::Journal;
using obs::JournalKind;
using obs::JournalRecord;

// --- Journal ring mechanics ---

TEST(JournalTest, RecordAssignsMonotonicSeqsAndIncarnations) {
  Journal journal;
  const uint64_t s1 = journal.Record(1, JournalKind::kBoot, Ms(1));
  const uint64_t s2 = journal.Record(1, JournalKind::kViewEnter, Ms(2), s1, /*a=*/3);
  const uint64_t s3 = journal.Record(1, JournalKind::kCrash, Ms(3));
  const uint64_t s4 = journal.Record(1, JournalKind::kBoot, Ms(4));
  EXPECT_LT(s1, s2);
  EXPECT_LT(s2, s3);
  EXPECT_LT(s3, s4);
  EXPECT_EQ(journal.incarnation(1), 2u);
  const std::vector<JournalRecord> events = journal.NodeEvents(1);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].incarnation, 1u);
  EXPECT_EQ(events[1].parent, s1);
  EXPECT_EQ(events[3].incarnation, 2u);
}

TEST(JournalTest, BoundedMemoryEvictsOldFlowBeforeControl) {
  Journal journal(/*control_capacity=*/4, /*flow_capacity=*/8);
  journal.Record(0, JournalKind::kBoot, 0);
  for (int i = 0; i < 100; ++i) {
    journal.Record(0, JournalKind::kSend, Ms(i), 0, /*a=*/1, /*b=*/64, "msg");
  }
  for (int i = 0; i < 10; ++i) {
    journal.Record(0, JournalKind::kCommit, Ms(200 + i), 0, /*a=*/i + 1);
  }
  EXPECT_EQ(journal.recorded(), 111u);
  EXPECT_GT(journal.evicted(), 0u);
  EXPECT_LE(journal.live(), 12u);  // 4 control + 8 flow.
  EXPECT_EQ(journal.recorded(), journal.evicted() + journal.live());
  // The flow flood must not evict control history: the latest commits survive.
  const std::vector<JournalRecord> events = journal.NodeEvents(0);
  uint64_t max_commit_height = 0;
  size_t commits = 0;
  for (const JournalRecord& r : events) {
    if (r.kind == JournalKind::kCommit) {
      ++commits;
      max_commit_height = std::max(max_commit_height, r.a);
    }
  }
  EXPECT_EQ(commits, 4u);  // Control ring holds its capacity's worth.
  EXPECT_EQ(max_commit_height, 10u);
}

TEST(JournalTest, DigestIsDeterministicAndSensitive) {
  auto build = [](bool extra) {
    Journal journal(16, 16);
    journal.Record(0, JournalKind::kBoot, 0);
    journal.Record(0, JournalKind::kViewEnter, Ms(1), 0, 1);
    if (extra) {
      journal.Record(0, JournalKind::kCommit, Ms(2), 0, 1);
    }
    return journal.DigestHex();
  };
  EXPECT_EQ(build(false), build(false));
  EXPECT_NE(build(false), build(true));
}

// Both trace renderings of journal records (live instants and the incident trace built
// from the journal) show control kinds only.
TEST(JournalTest, TraceRendersControlRecordsOnly) {
  for (const bool live : {true, false}) {
    obs::Recorder recorder(/*tracing=*/live, /*trace_capacity=*/64, /*journaling=*/!live,
                           /*critpath=*/false);
    recorder.Event(2, JournalKind::kBoot, Ms(1), {});
    recorder.Event(2, JournalKind::kSend, Ms(2), {}, 1, 64, "vote");
    recorder.Event(2, JournalKind::kCommit, Ms(3), {}, /*height=*/5);
    const std::string json =
        live ? recorder.tracer()->ExportChromeTrace() : recorder.JournalTraceJson();
    EXPECT_NE(json.find("boot"), std::string::npos) << json;
    EXPECT_NE(json.find("commit"), std::string::npos) << json;
    EXPECT_EQ(json.find("\"send\""), std::string::npos) << json;  // Flow kinds skipped.
  }
}

// --- Forensics invariant predicates over synthetic journals ---

TEST(ForensicsTest, RecoveryFreshnessPredicateNamesStaleRound) {
  Journal journal;
  journal.Record(1, JournalKind::kBoot, Ms(1));
  journal.Record(1, JournalKind::kRecoveryEnter, Ms(2));
  journal.Record(1, JournalKind::kRecoveryRound, Ms(3), 0, /*nonce=*/70);
  journal.Record(1, JournalKind::kRecoveryRound, Ms(4), 0, /*nonce=*/90);
  journal.Record(1, JournalKind::kRecoveryExit, Ms(5), 0, /*consumed=*/70, /*view=*/3);
  obs::IncidentQuery query;
  query.oracle = "freshness";
  query.node = 1;
  const obs::IncidentReport report = obs::AnalyzeIncident(journal, query);
  EXPECT_EQ(report.first_violated, "recovery-freshness");
  EXPECT_EQ(report.replica, 1u);
  EXPECT_EQ(report.consumed_nonce, 70u);
  EXPECT_EQ(report.fresh_nonce, 90u);
  EXPECT_EQ(report.stale_round_index, 1u);
  EXPECT_EQ(report.final_round_index, 2u);
  EXPECT_NE(report.text.find("STALE nonce round"), std::string::npos) << report.text;
  EXPECT_NE(report.text.find("replica 1"), std::string::npos) << report.text;
}

TEST(ForensicsTest, CommitAgreementPredicate) {
  Journal journal;
  journal.Record(0, JournalKind::kCommit, Ms(1), 0, /*height=*/7, /*hash=*/0xaaaa);
  journal.Record(2, JournalKind::kCommit, Ms(2), 0, /*height=*/7, /*hash=*/0xbbbb);
  obs::IncidentQuery query;
  query.oracle = "agreement";
  query.height = 7;
  const obs::IncidentReport report = obs::AnalyzeIncident(journal, query);
  EXPECT_EQ(report.first_violated, "commit-agreement");
  EXPECT_NE(report.text.find("conflicts with"), std::string::npos) << report.text;
}

TEST(ForensicsTest, CounterMonotonicityPredicate) {
  Journal journal;
  journal.Record(3, JournalKind::kCounterWrite, Ms(1), 0, /*value=*/5);
  journal.Record(3, JournalKind::kCounterWrite, Ms(2), 0, /*value=*/6);
  journal.Record(3, JournalKind::kCounterRead, Ms(3), 0, /*value=*/2);  // Regression.
  obs::IncidentQuery query;
  query.oracle = "counter";
  query.node = 3;
  const obs::IncidentReport report = obs::AnalyzeIncident(journal, query);
  EXPECT_EQ(report.first_violated, "counter-monotonicity");
}

TEST(ForensicsTest, StaleSealAcceptedPredicate) {
  Journal journal;
  journal.Record(1, JournalKind::kBoot, Ms(1));
  // Unseal served version 2 of 5 (stale), then the replica kept doing protocol work.
  journal.Record(1, JournalKind::kUnseal, Ms(2), 0, /*served=*/2, /*latest=*/5);
  journal.Record(1, JournalKind::kViewEnter, Ms(3), 0, /*view=*/4);
  obs::IncidentQuery query;
  query.oracle = "counter";
  query.node = 1;
  const obs::IncidentReport report = obs::AnalyzeIncident(journal, query);
  EXPECT_EQ(report.first_violated, "stale-seal-accepted");
  EXPECT_NE(report.text.find("rolled back"), std::string::npos) << report.text;
}

TEST(ForensicsTest, RollbackRejectClearsStaleSeal) {
  Journal journal;
  journal.Record(1, JournalKind::kUnseal, Ms(2), 0, /*served=*/2, /*latest=*/5);
  journal.Record(1, JournalKind::kRollbackReject, Ms(3), 0, /*sealed=*/2, /*expected=*/5);
  journal.Record(1, JournalKind::kHalt, Ms(3));
  obs::IncidentQuery query;
  query.oracle = "counter";
  query.node = 1;
  const obs::IncidentReport report = obs::AnalyzeIncident(journal, query);
  EXPECT_TRUE(report.first_violated.empty()) << report.first_violated;
}

// --- Causality across a crash ---

// Records made outside a handler (the reboot-time checkpoint-certificate unseal, crash-fate
// truncation) have no cause, so nothing recorded on a node after its crash points back
// across that crash.
TEST(JournalCausalityTest, RebootRecordsDoNotPointAcrossTheCrash) {
  ClusterConfig config;
  config.protocol = Protocol::kAchilles;
  config.f = 1;
  config.batch_size = 50;
  config.payload_size = 64;
  config.base_timeout = Ms(100);
  config.ckpt.enabled = true;
  config.ckpt.interval = 8;
  config.journaling = true;
  Cluster cluster(config);
  FaultScript script;
  script.events.push_back(FaultEvent{Ms(300), FaultKind::kCrash, 1, 0, 0});
  script.events.push_back(FaultEvent{Ms(400), FaultKind::kReboot, 1, 0, 0});
  cluster.InstallFaultScript(script);
  cluster.Start();
  cluster.sim().RunFor(Ms(700));

  const std::vector<JournalRecord> events = cluster.recorder().journal()->NodeEvents(1);
  uint64_t crash_seq = 0;
  for (const JournalRecord& r : events) {
    if (r.kind == JournalKind::kCrash) {
      crash_seq = r.seq;
    }
  }
  ASSERT_NE(crash_seq, 0u);
  const JournalRecord* unseal = nullptr;
  for (const JournalRecord& r : events) {
    if (r.seq < crash_seq) {
      continue;
    }
    if (unseal == nullptr && r.kind == JournalKind::kUnseal) {
      unseal = &r;
    }
    // Deliver records point at a send on the peer; everything else on this node hangs off
    // a post-crash deliver or is a root.
    if (r.kind != JournalKind::kDeliver && r.parent != 0) {
      EXPECT_GT(r.parent, crash_seq) << r.ToLine();
    }
  }
  ASSERT_NE(unseal, nullptr);
  EXPECT_EQ(unseal->parent, 0u) << unseal->ToLine();
}

// --- End-to-end: chaos runs with the journal on ---

TEST(ChaosJournalTest, SameSeedGivesBitIdenticalJournal) {
  ChaosOptions options;
  options.journal = true;
  const ChaosResult a = chaos::RunChaosSeed(options, 5);
  const ChaosResult b = chaos::RunChaosSeed(options, 5);
  ASSERT_FALSE(a.journal_digest_hex.empty());
  ASSERT_FALSE(a.journal_text.empty());
  EXPECT_EQ(a.journal_digest_hex, b.journal_digest_hex);
  EXPECT_EQ(a.journal_text, b.journal_text);
}

TEST(ChaosJournalTest, JournalingDoesNotPerturbTheRun) {
  ChaosOptions with;
  with.journal = true;
  ChaosOptions without;
  without.journal = false;
  const ChaosResult a = chaos::RunChaosSeed(with, 7);
  const ChaosResult b = chaos::RunChaosSeed(without, 7);
  // The simulated outcome must be bit-identical with the flight recorder on or off.
  EXPECT_EQ(a.log_digest_hex, b.log_digest_hex);
  EXPECT_EQ(a.final_height, b.final_height);
  EXPECT_TRUE(b.journal_digest_hex.empty());
}

TEST(ChaosJournalTest, ScriptReplayReproducesTheJournal) {
  ChaosOptions options;
  options.journal = true;
  const ChaosResult original = chaos::RunChaosSeed(options, 9);
  const ScriptArtifact artifact = original.Artifact();
  Protocol protocol = Protocol::kAchilles;
  ASSERT_TRUE(ProtocolFromName(artifact.protocol, &protocol));
  const ChaosResult replayed = chaos::RunChaosScript(options, artifact.seed, protocol,
                                                     artifact.f, artifact.script);
  EXPECT_EQ(replayed.log_digest_hex, original.log_digest_hex);
  EXPECT_EQ(replayed.journal_digest_hex, original.journal_digest_hex);
}

// Golden incident report for the planted recovery-nonce bug (acceptance criterion): the
// report must name the replica, the stale nonce round it consumed, and the first violated
// invariant predicate.
TEST(ChaosJournalTest, GoldenIncidentReportForBrokenRecoveryNonce) {
  ChaosOptions options;
  options.broken = BrokenVariant::kRecoveryNonce;
  options.journal = true;
  const ChaosResult result = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(result.ok) << "broken recovery-nonce variant passed the oracles";
  ASSERT_FALSE(result.incident_report.empty());
  const std::string& report = result.incident_report;
  // Names the violated invariant.
  EXPECT_NE(report.find("recovery-freshness"), std::string::npos) << report;
  // Names the victim replica (the canonical trigger script reboots replica 1).
  EXPECT_NE(report.find("replica 1"), std::string::npos) << report;
  // Names the stale nonce round that was consumed.
  EXPECT_NE(report.find("STALE nonce round"), std::string::npos) << report;
  EXPECT_NE(report.find("request round"), std::string::npos) << report;
  // The annotated Perfetto trace is exported alongside.
  EXPECT_FALSE(result.journal_trace_json.empty());
  EXPECT_NE(result.journal_trace_json.find("recovery-exit"), std::string::npos);
}

TEST(ChaosJournalTest, IncidentReportIsDeterministic) {
  ChaosOptions options;
  options.broken = BrokenVariant::kRecoveryNonce;
  options.journal = true;
  const ChaosResult a = chaos::RunChaosSeed(options, 1);
  const ChaosResult b = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(a.ok);
  EXPECT_EQ(a.incident_report, b.incident_report);  // Golden: same seed, same report.
  EXPECT_EQ(a.journal_digest_hex, b.journal_digest_hex);
}

// Golden incident report for the planted stale-read-lease bug (ISSUE 6 acceptance
// criterion): the linearizability oracle must flag the run at a fixed seed, and the report
// must name the stale read's key, the version it returned, the newer version that was
// already committed, and the replica that served it.
TEST(ChaosJournalTest, GoldenIncidentReportForBrokenStaleReadLease) {
  ChaosOptions options;
  options.broken = BrokenVariant::kStaleReadLease;
  options.journal = true;
  const ChaosResult result = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(result.ok) << "broken stale-read-lease variant passed the oracles";
  ASSERT_FALSE(result.incident_report.empty());
  const std::string& report = result.incident_report;
  // Names the oracle family and the anomaly.
  EXPECT_NE(report.find("oracle:    linearizability"), std::string::npos) << report;
  EXPECT_NE(report.find("stale read on key"), std::string::npos) << report;
  // Names the version the client was served and the newer committed one.
  EXPECT_NE(report.find("returned version"), std::string::npos) << report;
  EXPECT_NE(report.find("was already committed"), std::string::npos) << report;
  // Names the fast-path serve and the deposed leaseholder (the canonical trigger isolates
  // replica 0, BRaft's bootstrap leader).
  EXPECT_NE(report.find("lease read"), std::string::npos) << report;
  EXPECT_NE(report.find("served by replica 0"), std::string::npos) << report;
  // The recorded client history rides along as a failure artifact.
  EXPECT_FALSE(result.history_text.empty());
  EXPECT_FALSE(result.history_digest_hex.empty());
  EXPECT_NE(result.history_text.find("kv-history"), std::string::npos);
}

TEST(ChaosJournalTest, StaleReadLeaseIncidentIsDeterministic) {
  ChaosOptions options;
  options.broken = BrokenVariant::kStaleReadLease;
  options.journal = true;
  const ChaosResult a = chaos::RunChaosSeed(options, 1);
  const ChaosResult b = chaos::RunChaosSeed(options, 1);
  ASSERT_FALSE(a.ok);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.incident_report, b.incident_report);
  EXPECT_EQ(a.journal_digest_hex, b.journal_digest_hex);
  EXPECT_EQ(a.history_digest_hex, b.history_digest_hex);
}

// Golden incident report for the planted stale-snapshot-accept bug (the checkpoint
// subsystem's acceptance criterion): the checkpoint oracle must flag the run at a fixed
// seed, and the report must re-establish the violation from the journal alone — naming
// the adopted height, the certified floor it fell below, and the serving replica.
TEST(ChaosJournalTest, GoldenIncidentReportForBrokenStaleSnapshotAccept) {
  ChaosOptions options;
  options.broken = BrokenVariant::kStaleSnapshotAccept;
  options.journal = true;
  const ChaosResult result = chaos::RunChaosSeed(options, 2);
  ASSERT_FALSE(result.ok) << "broken stale-snapshot-accept variant passed the oracles";
  ASSERT_FALSE(result.incident_report.empty());
  const std::string& report = result.incident_report;
  // Names the oracle family and re-establishes the invariant from the journal.
  EXPECT_NE(report.find("oracle:    checkpoint"), std::string::npos) << report;
  EXPECT_NE(report.find("stale-snapshot-adopted"), std::string::npos) << report;
  // Names the rollback: the adopted height fell below the replica's own certified floor.
  EXPECT_NE(report.find("BELOW its own certified floor"), std::string::npos) << report;
  // Names the serving peer and the skipped checks (the planted bug's signature).
  EXPECT_NE(report.find("served by replica"), std::string::npos) << report;
  EXPECT_NE(report.find("skipped its certificate/floor checks"), std::string::npos)
      << report;
  // The causal chain walks back through the state-transfer wire protocol.
  EXPECT_NE(report.find("ckpt_fetch_resp"), std::string::npos) << report;
}

TEST(ChaosJournalTest, StaleSnapshotAcceptIncidentIsDeterministic) {
  ChaosOptions options;
  options.broken = BrokenVariant::kStaleSnapshotAccept;
  options.journal = true;
  const ChaosResult a = chaos::RunChaosSeed(options, 2);
  const ChaosResult b = chaos::RunChaosSeed(options, 2);
  ASSERT_FALSE(a.ok);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.incident_report, b.incident_report);  // Golden: same seed, same report.
  EXPECT_EQ(a.journal_digest_hex, b.journal_digest_hex);
}

}  // namespace
}  // namespace achilles
