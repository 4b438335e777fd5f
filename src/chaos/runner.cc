#include "src/chaos/runner.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <utility>

#include "src/achilles/messages.h"
#include "src/achilles/replica.h"
#include "src/app/kv.h"
#include "src/chaos/linearizability.h"
#include "src/chaos/oracles.h"
#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/obs/forensics.h"

namespace achilles::chaos {

namespace {

// Per-replica bookkeeping for the Achilles recovery-freshness oracle and the targeted
// stale-reply replay attack. Filled from the network delivery tap, which observes real
// traffic only — replies the runner itself injects are never recorded, so they can never
// count as "fresh".
struct RecoveryRecord {
  // Distinct request nonces broadcast by this node, with the first tapped arrival.
  std::vector<std::pair<SimTime, uint64_t>> requests;
  struct Reply {
    SimTime arrival;
    uint64_t nonce;
    uint32_t signer;
  };
  std::vector<Reply> replies;
  // Recorded reply messages (sender, message) for the replay attack; bounded.
  std::vector<std::pair<uint32_t, MessageRef>> stash;
  bool pending_replay = false;
  SimTime last_reported = -1;  // recovery_completed_at already audited.
};

// The nonce of the final request round on the wire at completion time: the latest tapped
// request whose first delivery precedes the completion instant. Returns false when no
// request had even been delivered yet — a completion without a delivered request can never
// have consumed fresh replies.
bool FinalRequestNonce(const RecoveryRecord& record, SimTime completed_at,
                       uint64_t* nonce) {
  for (auto it = record.requests.rbegin(); it != record.requests.rend(); ++it) {
    if (it->first <= completed_at) {
      *nonce = it->second;
      return true;
    }
  }
  return false;
}

// Distinct signers of replies carrying the final request nonce that were delivered (over
// the network) no later than the completion instant. The honest checker needs f+1 such
// replies; fewer means recovery finished on replayed stale state.
size_t CountFreshReplies(const RecoveryRecord& record, SimTime completed_at) {
  uint64_t final_nonce = 0;
  if (!FinalRequestNonce(record, completed_at, &final_nonce)) {
    return 0;
  }
  std::set<uint32_t> signers;
  for (const RecoveryRecord::Reply& reply : record.replies) {
    if (reply.nonce == final_nonce && reply.arrival <= completed_at) {
      signers.insert(reply.signer);
    }
  }
  return signers.size();
}

// Under a broken variant every seed must exercise the planted bug, so if the sampled
// script happens to lack the triggering fault pattern it is replaced by the canonical one
// (honest replicas, a single victim). This keeps "flagged within the first N seeds"
// a guarantee instead of a probability.
void EnsureBrokenTrigger(BrokenVariant broken, FaultScript* script) {
  const uint32_t n = static_cast<uint32_t>(script->byzantine.size());
  ACHILLES_CHECK(n >= 3);
  const uint32_t victim = 1;
  if (broken == BrokenVariant::kStaleReadLease) {
    // Canonical stale-read choreography: node 0 (BRaft's bootstrap leader, hence the KV
    // leaseholder) is isolated from its peers — but NOT from the KV client, so it keeps
    // answering lease reads off its frozen mirror. Directed link blocks (not a Partition,
    // which would also cut the client) sever 0<->peer in both directions; the peers elect a
    // new leader and keep committing. Honest grantors withhold client responses until the
    // promise expires; broken ones release immediately, so the client completes a newer
    // write while node 0 still serves the old version — a client-observed stale read.
    std::fill(script->byzantine.begin(), script->byzantine.end(), ByzantineMode::kNone);
    script->events.clear();
    for (uint32_t peer = 1; peer < n; ++peer) {
      script->events.push_back({Ms(700), FaultKind::kBlockLink, 0, peer, 0});
      script->events.push_back({Ms(700), FaultKind::kBlockLink, peer, 0, 0});
    }
    for (uint32_t peer = 1; peer < n; ++peer) {
      script->events.push_back({Ms(1300), FaultKind::kUnblockLink, 0, peer, 0});
      script->events.push_back({Ms(1300), FaultKind::kUnblockLink, peer, 0, 0});
    }
    return;
  }
  if (broken == BrokenVariant::kStaleSnapshotAccept) {
    // Canonical snapshot-rollback choreography: the victim runs long enough to certify a
    // stable checkpoint of its own (the floor the oracle audits against), then stays down
    // until just before heal. By rejoin time the cluster's stable frontier is several
    // intervals ahead, so the victim requests a snapshot instead of backfilling — and the
    // broken responder serves its *oldest* retained snapshot, which the broken requester
    // force-installs below its own committed prefix.
    std::fill(script->byzantine.begin(), script->byzantine.end(), ByzantineMode::kNone);
    script->events.clear();
    const uint64_t honest = EncodeStorageFate(StorageFate{});
    script->events.push_back({Ms(650), FaultKind::kCrash, victim, 0, 0});
    script->events.push_back({Ms(1300), FaultKind::kReboot, victim, 0, honest});
    return;
  }
  if (broken == BrokenVariant::kRecoveryNonce) {
    for (const FaultEvent& event : script->events) {
      if (event.kind == FaultKind::kStaleRecoveryReplay) {
        return;
      }
    }
    std::fill(script->byzantine.begin(), script->byzantine.end(), ByzantineMode::kNone);
    script->events.clear();
    const uint64_t honest = EncodeStorageFate(StorageFate{});
    script->events.push_back({Ms(300), FaultKind::kCrash, victim, 0, 0});
    script->events.push_back({Ms(420), FaultKind::kReboot, victim, 0, honest});
    script->events.push_back({Ms(900), FaultKind::kCrash, victim, 0, 0});
    script->events.push_back({Ms(901), FaultKind::kStaleRecoveryReplay, victim, 0, 0});
    script->events.push_back({Ms(905), FaultKind::kReboot, victim, 0, honest});
  } else if (broken == BrokenVariant::kCounterCompare ||
             broken == BrokenVariant::kQuorumRestoreSkip ||
             broken == BrokenVariant::kCertFloorSkip) {
    // All three skip the restore-time freshness verification (counter compare, peer
    // quorum, certified floor) — the same stale-seal reboot triggers each of them.
    for (const FaultEvent& event : script->events) {
      if (event.kind == FaultKind::kReboot &&
          DecodeStorageFate(event.arg).sealed == SealedFate::kStale) {
        return;
      }
    }
    std::fill(script->byzantine.begin(), script->byzantine.end(), ByzantineMode::kNone);
    script->events.clear();
    script->events.push_back({Ms(400), FaultKind::kCrash, victim, 0, 0});
    script->events.push_back(
        {Ms(520), FaultKind::kReboot, victim, 0,
         EncodeStorageFate({storage::WalFate::kIntact, SealedFate::kStale})});
  }
}

std::string FmtTime(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "T%lld ", static_cast<long long>(t));
  return buf;
}

}  // namespace

const char* BrokenVariantName(BrokenVariant variant) {
  switch (variant) {
    case BrokenVariant::kNone:
      return "none";
    case BrokenVariant::kRecoveryNonce:
      return "recovery-nonce";
    case BrokenVariant::kCounterCompare:
      return "counter-compare";
    case BrokenVariant::kStaleReadLease:
      return "stale-read-lease";
    case BrokenVariant::kStaleSnapshotAccept:
      return "stale-snapshot-accept";
    case BrokenVariant::kQuorumRestoreSkip:
      return "quorum-restore-skip";
    case BrokenVariant::kCertFloorSkip:
      return "cert-floor-skip";
  }
  return "?";
}

bool BrokenVariantFromName(std::string_view name, BrokenVariant* out) {
  for (int i = 0; i <= static_cast<int>(BrokenVariant::kCertFloorSkip); ++i) {
    const BrokenVariant variant = static_cast<BrokenVariant>(i);
    if (name == BrokenVariantName(variant)) {
      *out = variant;
      return true;
    }
  }
  return false;
}

std::string ChaosResult::LogText() const {
  std::string out;
  for (const std::string& line : event_log) {
    out += line;
    out += '\n';
  }
  return out;
}

ScriptArtifact ChaosResult::Artifact() const {
  ScriptArtifact artifact;
  artifact.protocol = ProtocolName(protocol);
  artifact.f = f;
  artifact.seed = seed;
  artifact.defense = persist::DefenseKindName(defense);
  artifact.script = script;
  return artifact;
}

ChaosResult RunChaosSeed(const ChaosOptions& options, uint64_t seed) {
  ChaosOptions effective = options;
  // The planted-backend variants pin the defense: the bug lives in the backend's restore
  // path, so the run must actually go through that backend.
  if (options.broken == BrokenVariant::kQuorumRestoreSkip) {
    effective.defense = persist::DefenseKind::kRollbaccine;
  } else if (options.broken == BrokenVariant::kCertFloorSkip) {
    effective.defense = persist::DefenseKind::kHealer;
  }
  Protocol protocol;
  if (options.broken == BrokenVariant::kRecoveryNonce) {
    protocol = Protocol::kAchilles;
  } else if (options.broken == BrokenVariant::kCounterCompare ||
             options.broken == BrokenVariant::kQuorumRestoreSkip ||
             options.broken == BrokenVariant::kCertFloorSkip) {
    protocol = Protocol::kDamysusR;
  } else if (options.broken == BrokenVariant::kStaleReadLease) {
    // BRaft's node 0 bootstraps as leader, so the canonical trigger knows the leaseholder.
    protocol = Protocol::kRaft;
  } else if (options.broken == BrokenVariant::kStaleSnapshotAccept) {
    // BRaft commits steadily from boot with no view-change noise, so the canonical lagging
    // rejoin reliably crosses the snapshot-transfer threshold.
    protocol = Protocol::kRaft;
  } else if (options.protocol_all) {
    protocol = static_cast<Protocol>(seed % kNumProtocols);
  } else {
    protocol = options.protocol;
  }

  Rng rng(seed ^ 0xc4a05c0ffee5eedULL);
  const uint32_t f = 1 + (rng.UniformU64(4) == 0 ? 1u : 0u);
  ScriptParams params;
  params.protocol = protocol;
  params.f = f;
  params.defense = effective.defense;
  params.reboot_prob = options.reboot_prob;
  params.ckpt_prob = options.ckpt_prob;
  FaultScript script = SampleFaultScript(params, rng);
  if (options.broken != BrokenVariant::kNone) {
    EnsureBrokenTrigger(options.broken, &script);
  }
  return RunChaosScript(effective, seed, protocol, f, script);
}

ChaosResult RunChaosScript(const ChaosOptions& options, uint64_t seed, Protocol protocol,
                           uint32_t f, const FaultScript& script) {
  ACHILLES_CHECK(script.heal_at > 0 && script.horizon > script.heal_at);

  ChaosResult result;
  result.seed = seed;
  result.protocol = protocol;
  result.f = f;
  result.defense = options.defense;
  result.script = script;

  ClusterConfig config;
  config.protocol = protocol;
  config.f = f;
  config.defense = options.defense;
  config.batch_size = options.batch_size;
  config.payload_size = 16;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(100);
  config.seed = seed;
  config.client_rate_tps = options.client_rate_tps;
  config.broken = options.broken;
  config.journaling = options.journal;
  const bool app_kv = options.app_kv || options.broken == BrokenVariant::kStaleReadLease;
  config.app_kv = app_kv;
  // Checkpointing is always on under chaos: every run then audits the certified-prefix +
  // truncation + state-transfer machinery, and post-truncation reboots must still satisfy
  // the durability and (in KV runs) linearizability oracles. The short interval keeps
  // several boundaries inside even the briefest schedules.
  config.ckpt.enabled = true;
  config.ckpt.interval = 8;
  Cluster cluster(config);
  const uint32_t n = cluster.num_replicas();
  ACHILLES_CHECK(script.byzantine.size() == n);
  Simulation& sim = cluster.sim();

  const ProtocolTraits& traits = Traits(protocol);
  const bool quorum_defended =
      options.defense != persist::DefenseKind::kLocal && traits.defense_seam;
  OracleConfig oracle_config;
  oracle_config.n = n;
  oracle_config.f = f;
  // The counter-lockstep invariant holds where a counter guards the sealed state on the
  // defense seam (the -R variants). Under a quorum defense those counters are off (the
  // backend replaces them), so it is vacuous; the version-monotonic oracle audits the
  // backend-assigned versions instead.
  oracle_config.counter_lockstep = traits.counter && traits.defense_seam && !quorum_defended;
  oracle_config.version_monotonic = quorum_defended;
  OracleSuite oracles(oracle_config);

  auto log = [&result](SimTime t, const std::string& line) {
    result.event_log.push_back(FmtTime(t) + line);
  };

  for (uint32_t i = 0; i < n; ++i) {
    if (script.byzantine[i] != ByzantineMode::kNone) {
      oracles.MarkByzantine(i);
      log(0, "byz node=" + std::to_string(i) +
                 " mode=" + ByzantineModeName(script.byzantine[i]));
    }
  }

  // --- Oracle feeds ---
  // Add (not Set): when the KV app is on, the Cluster constructor already registered the
  // KvService's execution listener and it must keep firing.
  cluster.tracker().AddCommitListener(
      [&](NodeId id, const BlockPtr& block, SimTime now) {
        log(now, "commit node=" + std::to_string(id) +
                     " h=" + std::to_string(block->height) +
                     " hash=" + ToHex(ByteView(block->hash.data(), 4)));
        oracles.OnCommit(id, block->height, block->hash, now);
      });

  // Checkpoint taps: stable certificates and state-transfer adoptions feed the checkpoint
  // oracle (and the event log, so replays cover them in the digest).
  checkpoint::CheckpointManager* ckpt = cluster.checkpoint_manager();
  if (ckpt != nullptr) {
    ckpt->SetStableListener(
        [&](NodeId id, const checkpoint::CheckpointCert& cert, SimTime now) {
          log(now, "ckpt-stable node=" + std::to_string(id) +
                       " h=" + std::to_string(cert.height) +
                       " hash=" + ToHex(ByteView(cert.block_hash.data(), 4)));
          oracles.OnStableCheckpoint(id, cert.height, cert.block_hash, now);
        });
    ckpt->SetAdoptListener(
        [&](NodeId id, const checkpoint::CheckpointCert& cert, SimTime now) {
          log(now, "ckpt-adopt node=" + std::to_string(id) +
                       " h=" + std::to_string(cert.height) +
                       " hash=" + ToHex(ByteView(cert.block_hash.data(), 4)));
          oracles.OnCheckpointAdopted(id, cert.height, cert.block_hash, now);
        });
  }

  std::vector<RecoveryRecord> recovery(n);
  if (traits.recovery) {
    cluster.net().SetDeliveryTap(
        [&](uint32_t from, uint32_t to, const MessageRef& msg, SimTime arrival) {
          if (from < n) {
            if (auto req = std::dynamic_pointer_cast<const AchRecoveryRequestMsg>(msg)) {
              RecoveryRecord& record = recovery[from];
              if (record.requests.empty() ||
                  record.requests.back().second != req->request.aux) {
                record.requests.emplace_back(arrival, req->request.aux);
              } else if (arrival < record.requests.back().first) {
                // Same nonce round, another broadcast copy: the round starts at the
                // EARLIEST delivery. Jitter reorder can make the first-tapped copy the
                // last to arrive, which would misdate the round past its own replies.
                record.requests.back().first = arrival;
              }
              return;
            }
          }
          if (to < n) {
            if (auto reply = std::dynamic_pointer_cast<const AchRecoveryReplyMsg>(msg)) {
              RecoveryRecord& record = recovery[to];
              record.replies.push_back(
                  {arrival, reply->reply.aux2, reply->reply.sig.signer});
              if (record.stash.size() < 64) {
                record.stash.emplace_back(from, msg);
              }
            }
          }
        });
  }

  // Lifecycle tap: logs boot/crash transitions and fires the pending stale-reply
  // injection right after a victim's reboot — scheduled a hair after BindProcess so the
  // new incarnation's OnStart (which arms the fresh recovery nonce) runs first, yet far
  // ahead of any genuine network reply (>= one RTT away).
  for (uint32_t i = 0; i < n; ++i) {
    cluster.net().host(i).SetLifecycleListener(
        [&](uint32_t id, const char* event) {
          log(sim.Now(), std::string(event) + " node=" + std::to_string(id));
          if (std::string_view(event) == "boot" && recovery[id].pending_replay) {
            recovery[id].pending_replay = false;
            sim.ScheduleAt(sim.Now() + Us(10), [&, id] {
              Host& host = cluster.net().host(id);
              if (!host.IsUp()) {
                return;
              }
              for (const auto& [from, msg] : recovery[id].stash) {
                host.DeliverAt(sim.Now(), from, msg);
              }
              log(sim.Now(), "stale-replay-injected node=" + std::to_string(id) +
                                 " count=" + std::to_string(recovery[id].stash.size()));
            });
          }
        });
  }

  cluster.InstallFaultScript(script, [&](const FaultEvent& event) {
    log(event.at, std::string("fault ") + FaultKindName(event.kind) +
                      " node=" + std::to_string(event.node) +
                      " peer=" + std::to_string(event.peer) +
                      " arg=" + std::to_string(event.arg));
    if (event.kind == FaultKind::kStaleRecoveryReplay && event.node < n) {
      recovery[event.node].pending_replay = true;
    }
    if (event.kind == FaultKind::kReboot && event.node < n) {
      const StorageFate fate = DecodeStorageFate(event.arg);
      // Where the checkpoint certificate itself can be rolled back — sealed-surface fates
      // on TEE platforms, snapshot-record fates where the cert is host-resident — a lower
      // floor is the modeled outcome of the attack, so the oracle's floor memory must
      // reset. Under a quorum defense the certificate store is the backend view, so both
      // the sealed surface and the peer quorum can depress the restored floor.
      const bool cert_attacked =
          quorum_defended
              ? fate.sealed != SealedFate::kFresh ||
                    fate.defense != persist::DefenseFate::kIntact
              : (traits.components_in_tee
                     ? fate.sealed != SealedFate::kFresh
                     : fate.snapshot != checkpoint::SnapshotFate::kIntact);
      oracles.OnReplicaReboot(event.node, cert_attacked);
    }
  });

  cluster.Start();

  // --- Run with periodic invariant polling ---
  auto poll = [&](SimTime t) {
    for (uint32_t i = 0; i < n; ++i) {
      ReplicaBase* replica = cluster.replica(i);
      if (replica == nullptr) {
        continue;
      }
      oracles.OnSnapshot(i, replica->Invariants(), t);
      if (traits.recovery) {
        if (auto* ach = dynamic_cast<AchillesReplica*>(replica)) {
          const SimTime done = ach->recovery_completed_at();
          if (done >= 0 && done != recovery[i].last_reported) {
            recovery[i].last_reported = done;
            const size_t fresh = CountFreshReplies(recovery[i], done);
            uint64_t expected_nonce = 0;
            const bool nonce_fresh =
                FinalRequestNonce(recovery[i], done, &expected_nonce) &&
                ach->recovery_completed_nonce() == expected_nonce;
            log(t, "recovery-complete node=" + std::to_string(i) +
                       " at=" + std::to_string(done) +
                       " fresh=" + std::to_string(fresh) +
                       " nonce_fresh=" + (nonce_fresh ? "1" : "0"));
            oracles.OnRecoveryComplete(i, fresh, nonce_fresh, t);
          }
        }
      }
    }
  };

  constexpr SimDuration kPollStep = Ms(25);
  bool healed = false;
  SimTime t = 0;
  while (t < script.horizon && oracles.ok()) {
    t = std::min<SimTime>(t + kPollStep, script.horizon);
    sim.RunUntil(t);
    if (!healed && t >= script.heal_at) {
      healed = true;
      oracles.OnHeal(t);
      log(t, "heal maxh=" + std::to_string(oracles.max_honest_height()));
    }
    poll(t);
  }
  // Judge the client-observed history before OnRunEnd: linearizability is an end-of-run
  // verdict, and OnRunEnd's liveness check only runs while the suite is still clean.
  if (app_kv) {
    const app::KvHistory history = cluster.kv_client()->HistorySnapshot();
    const LinearizabilityVerdict verdict = CheckKvHistory(history.ops);
    log(sim.Now(), "kv-check ops=" + std::to_string(verdict.checked_ops) +
                       " keys=" + std::to_string(verdict.checked_keys) +
                       " memo=" + std::to_string(verdict.memo_states) +
                       " ok=" + (verdict.ok ? "1" : "0"));
    oracles.OnHistoryVerdict(verdict.ok, verdict.violation, verdict.server, sim.Now());
    result.history_text = history.ToText();
    result.history_digest_hex = history.DigestHex();
    log(sim.Now(), "kv-history ops=" + std::to_string(history.ops.size()) +
                       " digest=" + result.history_digest_hex.substr(0, 16));
  }
  if (oracles.ok() && healed) {
    oracles.OnRunEnd(script.horizon);
  }
  log(sim.Now(), "end maxh=" + std::to_string(oracles.max_honest_height()));

  result.ok = oracles.ok();
  result.violation = oracles.violation();
  result.final_height = oracles.max_honest_height();
  if (!result.ok) {
    result.event_log.push_back("VIOLATION " + result.violation);
  }
  if (options.journal) {
    obs::Recorder& recorder = cluster.recorder();
    const obs::Journal& journal = *recorder.journal();
    if (!result.ok) {
      const Incident& incident = oracles.incident();
      // Stamp the verdict into the journal so the dump itself records why the run failed,
      // then run the forensics analyzer over it.
      recorder.Event(incident.node == kNoNode ? 0 : incident.node,
                     obs::JournalKind::kOracleViolation, incident.at, {}, incident.height, 0,
                     result.violation);
      obs::IncidentQuery query;
      query.oracle = incident.oracle;
      query.description = result.violation;
      query.node = incident.node == kNoNode ? UINT32_MAX : incident.node;
      query.height = incident.height;
      query.at = incident.at;
      query.protocol = ProtocolName(protocol);
      query.seed = seed;
      query.exclude.assign(oracles.byzantine().begin(), oracles.byzantine().end());
      result.incident_report = obs::AnalyzeIncident(journal, query).text;
      // Perfetto view of the incident: the journal's control records as trace instants.
      result.journal_trace_json = recorder.JournalTraceJson();
    }
    result.journal_text = journal.ToText();
    result.journal_digest_hex = journal.DigestHex();
  }
  const std::string joined = result.LogText();
  const Hash256 digest =
      Sha256Digest(ByteView(reinterpret_cast<const uint8_t*>(joined.data()), joined.size()));
  result.log_digest_hex = ToHex(ByteView(digest.data(), digest.size()));
  return result;
}

}  // namespace achilles::chaos
