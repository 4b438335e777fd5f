#include "src/harness/fault_script.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/common/check.h"

namespace achilles {

namespace {

// Fisher-Yates over 0..n-1 driven by the script RNG (distinct picks without retry loops).
std::vector<uint32_t> ShuffledIds(uint32_t n, Rng& rng) {
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) {
    ids[i] = i;
  }
  for (uint32_t i = n; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.UniformU64(i)]);
  }
  return ids;
}

}  // namespace

const char* SealedFateName(SealedFate fate) {
  switch (fate) {
    case SealedFate::kFresh:
      return "fresh";
    case SealedFate::kStale:
      return "stale";
    case SealedFate::kErased:
      return "erased";
  }
  return "?";
}

uint64_t EncodeStorageFate(StorageFate fate) {
  return static_cast<uint64_t>(fate.wal) | (static_cast<uint64_t>(fate.sealed) << 8) |
         (static_cast<uint64_t>(fate.snapshot) << 16) |
         (static_cast<uint64_t>(fate.defense) << 24);
}

StorageFate DecodeStorageFate(uint64_t arg) {
  StorageFate fate;
  fate.wal = static_cast<storage::WalFate>(arg & 0xff);
  fate.sealed = static_cast<SealedFate>((arg >> 8) & 0xff);
  fate.snapshot = static_cast<checkpoint::SnapshotFate>((arg >> 16) & 0xff);
  fate.defense = static_cast<persist::DefenseFate>((arg >> 24) & 0xff);
  return fate;
}

RollbackMode ToRollbackMode(SealedFate fate) {
  switch (fate) {
    case SealedFate::kFresh:
      return RollbackMode::kLatest;
    case SealedFate::kStale:
      return RollbackMode::kOldest;
    case SealedFate::kErased:
      return RollbackMode::kErase;
  }
  return RollbackMode::kLatest;
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kReboot:
      return "reboot";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHealPartition:
      return "heal-partition";
    case FaultKind::kJitterOn:
      return "jitter-on";
    case FaultKind::kJitterOff:
      return "jitter-off";
    case FaultKind::kBlockLink:
      return "block-link";
    case FaultKind::kUnblockLink:
      return "unblock-link";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kStaleRecoveryReplay:
      return "stale-recovery-replay";
  }
  return "?";
}

bool FaultKindFromName(std::string_view name, FaultKind* out) {
  for (int i = 0; i <= static_cast<int>(FaultKind::kStaleRecoveryReplay); ++i) {
    const FaultKind kind = static_cast<FaultKind>(i);
    if (name == FaultKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

uint32_t FaultScript::ByzantineCount() const {
  uint32_t count = 0;
  for (ByzantineMode mode : byzantine) {
    if (mode != ByzantineMode::kNone) {
      ++count;
    }
  }
  return count;
}

uint32_t FaultScript::CrashedCount() const {
  std::set<uint32_t> crashed;
  for (const FaultEvent& event : events) {
    if (event.kind == FaultKind::kCrash) {
      crashed.insert(event.node);
    }
  }
  return static_cast<uint32_t>(crashed.size());
}

std::vector<ByzantineMode> AllowedByzantineModes(Protocol protocol) {
  if (Traits(protocol).crash_only) {
    return {ByzantineMode::kSilent, ByzantineMode::kFlaky, ByzantineMode::kDelayer};
  }
  return {ByzantineMode::kSilent,      ByzantineMode::kFlaky,
          ByzantineMode::kDelayer,     ByzantineMode::kDuplicator,
          ByzantineMode::kSpammer,     ByzantineMode::kStaleReplay,
          ByzantineMode::kSelectiveSend, ByzantineMode::kReorderBurst};
}

FaultScript SampleFaultScript(const ScriptParams& params, Rng& rng) {
  ACHILLES_CHECK(params.heal_at >= Ms(1200));
  const uint32_t n = ReplicasFor(params.protocol, params.f);
  const ProtocolTraits& traits = Traits(params.protocol);
  FaultScript script;
  script.byzantine.assign(n, ByzantineMode::kNone);
  script.heal_at = params.heal_at;
  script.horizon = params.heal_at + params.liveness_window;

  // Fault budget: Byzantine + crashing replicas together stay within f, which keeps every
  // quorum (and Achilles' f+1 recovery repliers) reachable — the liveness oracle's
  // soundness condition.
  uint32_t budget = params.f;

  const std::vector<ByzantineMode> modes = AllowedByzantineModes(params.protocol);
  std::vector<uint32_t> order = ShuffledIds(n, rng);
  size_t next_victim = 0;
  if (!modes.empty() && budget > 0 && rng.Chance(0.55)) {
    const uint32_t count = 1 + static_cast<uint32_t>(rng.UniformU64(budget));
    for (uint32_t i = 0; i < count; ++i) {
      script.byzantine[order[next_victim++]] = modes[rng.UniformU64(modes.size())];
    }
    budget -= count;
  }

  if (budget > 0 && rng.Chance(params.reboot_prob)) {
    const uint32_t count = 1 + static_cast<uint32_t>(rng.UniformU64(budget));
    bool attack_placed = false;
    // Simultaneous multi-node reboots: all victims share one crash instant and one reboot
    // instant, so recovery/restore paths of several nodes overlap (the paper's recovering
    // nodes must not count on each other as repliers).
    const bool simultaneous = count >= 2 && rng.Chance(0.3);
    const SimTime shared_crash =
        Ms(200) + static_cast<SimTime>(rng.UniformU64(params.heal_at - Ms(1100) - Ms(200)));
    const SimTime shared_reboot =
        shared_crash + Ms(80) + static_cast<SimTime>(rng.UniformU64(Ms(400)));
    for (uint32_t i = 0; i < count; ++i) {
      const uint32_t node = order[next_victim++];
      const SimTime crash_at =
          simultaneous
              ? shared_crash
              : Ms(200) + static_cast<SimTime>(
                              rng.UniformU64(params.heal_at - Ms(1100) - Ms(200)));
      // Lagging-replica rejoin (--ckpt-weight): instead of bouncing right back, the victim
      // stays down until just before heal, so the cluster's stable checkpoint frontier
      // races far ahead and rejoin exercises snapshot state transfer rather than backfill.
      const bool lagging = !simultaneous && rng.Chance(params.ckpt_prob * 0.5);
      const SimTime reboot_at =
          simultaneous
              ? shared_reboot
              : (lagging ? std::max<SimTime>(
                               crash_at + Ms(80),
                               params.heal_at - Ms(150) -
                                   static_cast<SimTime>(rng.UniformU64(Ms(250))))
                         : crash_at + Ms(80) +
                               static_cast<SimTime>(rng.UniformU64(Ms(400))));
      StorageFate fate;
      if (traits.host_storage && rng.Chance(0.5)) {
        // Crash-consistency fault on the host disk: the unsynced suffix vanishes, or the
        // tail record tears. Stable-storage protocols fsync before externalizing state, so
        // either fate must leave agreement intact.
        fate.wal = rng.Chance(0.5) ? storage::WalFate::kLostUnsynced
                                   : storage::WalFate::kTornTail;
      }
      const bool quorum_defended =
          params.defense != persist::DefenseKind::kLocal && traits.defense_seam;
      if ((traits.rollback_protected || quorum_defended) && rng.Chance(0.5)) {
        // Adversarial sealed storage at reboot: full rollback or a wiped blob store.
        // Achilles recovers over the network regardless; the -R checkers must detect the
        // rollback and halt; under a quorum defense backend every backend-using protocol
        // must detect it (healer) or repair from a peer copy (rollbaccine).
        fate.sealed = rng.Chance(0.5) ? SealedFate::kStale : SealedFate::kErased;
      }
      if (quorum_defended && rng.Chance(0.4)) {
        // Peer-quorum fate (v4): one holder of the victim's replicated copies /
        // freshness certificates regresses or loses them. Bounded at one holder so the
        // quorum's freshest survivor is intact — composition with fate.sealed above is
        // the interesting case (local rollback AND a degraded quorum).
        fate.defense = rng.Chance(0.5) ? persist::DefenseFate::kPeerStale
                                       : persist::DefenseFate::kPeerErased;
      }
      if (rng.Chance(params.ckpt_prob)) {
        // Adversarial checkpoint snapshot surface: a rolled-back (internally valid) old
        // snapshot, a wiped record, or flipped payload bytes. Where the certificate is
        // TEE-sealed the replica must reject the first two classes by digest/freshness;
        // where it is not, the rollback installs an older committed prefix — still safe,
        // merely slower (the undetectable-rollback baseline in the README threat model).
        const uint64_t pick = rng.UniformU64(3);
        fate.snapshot = pick == 0   ? checkpoint::SnapshotFate::kStale
                        : pick == 1 ? checkpoint::SnapshotFate::kErased
                                    : checkpoint::SnapshotFate::kCorrupt;
      }
      script.events.push_back({crash_at, FaultKind::kCrash, node, 0, 0});
      script.events.push_back(
          {reboot_at, FaultKind::kReboot, node, 0, EncodeStorageFate(fate)});
      // Targeted nonce-freshness attack (Achilles only): crash the same node a second time
      // and have the runner re-inject the first round's recorded recovery replies the
      // moment the second incarnation boots. An honest checker rejects them (nonce
      // mismatch); the kRecoveryNonce variant completes recovery on stale state.
      bool followup_placed = false;
      if (!attack_placed && traits.recovery &&
          reboot_at + Ms(700) <= params.heal_at - Ms(350) && rng.Chance(0.35)) {
        attack_placed = true;
        followup_placed = true;
        const SimTime again = reboot_at + Ms(450) + static_cast<SimTime>(rng.UniformU64(Ms(200)));
        script.events.push_back({again, FaultKind::kCrash, node, 0, 0});
        script.events.push_back({again + Ms(1), FaultKind::kStaleRecoveryReplay, node, 0, 0});
        script.events.push_back({again + Ms(5), FaultKind::kReboot, node, 0,
                                 EncodeStorageFate(StorageFate{})});
      }
      // Mid-recovery crash: kill the fresh incarnation again while it is still restoring
      // (for Achilles, while Algorithm 3's request/reply round is in flight), then reboot
      // once more. Double restores must be idempotent.
      if (!followup_placed && rng.Chance(0.3)) {
        const SimTime again =
            reboot_at + Ms(15) + static_cast<SimTime>(rng.UniformU64(Ms(105)));
        const SimTime again_reboot =
            again + Ms(80) + static_cast<SimTime>(rng.UniformU64(Ms(220)));
        if (again_reboot <= params.heal_at - Ms(50)) {
          StorageFate refate;
          if (traits.host_storage && rng.Chance(0.5)) {
            refate.wal = rng.Chance(0.5) ? storage::WalFate::kLostUnsynced
                                         : storage::WalFate::kTornTail;
          }
          if (rng.Chance(params.ckpt_prob * 0.5)) {
            // The second crash can land mid-state-transfer; losing the snapshot record
            // under it checks that a half-adopted transfer restarts cleanly.
            refate.snapshot = rng.Chance(0.5) ? checkpoint::SnapshotFate::kErased
                                              : checkpoint::SnapshotFate::kStale;
          }
          script.events.push_back({again, FaultKind::kCrash, node, 0, 0});
          script.events.push_back(
              {again_reboot, FaultKind::kReboot, node, 0, EncodeStorageFate(refate)});
        }
      }
    }
  }

  if (rng.Chance(0.45)) {
    const SimTime start =
        Ms(150) + static_cast<SimTime>(rng.UniformU64(params.heal_at - Ms(800)));
    const SimTime end = std::min<SimTime>(
        start + Ms(120) + static_cast<SimTime>(rng.UniformU64(Ms(480))),
        params.heal_at - Ms(100));
    if (end > start) {
      const uint32_t offset = static_cast<uint32_t>(rng.UniformU64(n));
      const uint32_t size_a = 1 + static_cast<uint32_t>(rng.UniformU64(n - 1));
      script.events.push_back({start, FaultKind::kPartition, offset, size_a, 0});
      script.events.push_back({end, FaultKind::kHealPartition, 0, 0, 0});
    }
  }

  if (rng.Chance(0.6)) {
    const SimTime start = static_cast<SimTime>(rng.UniformU64(params.heal_at / 2));
    const uint64_t extra = Us(100) + rng.UniformU64(Ms(2));
    script.events.push_back({start, FaultKind::kJitterOn, 0, 0, extra});
    script.events.push_back({params.heal_at - Ms(1), FaultKind::kJitterOff, 0, 0, 0});
  }

  if (rng.Chance(0.35)) {
    const uint32_t node = static_cast<uint32_t>(rng.UniformU64(n));
    const SimTime at =
        Ms(200) + static_cast<SimTime>(rng.UniformU64(params.heal_at - Ms(700)));
    const uint64_t dur = Ms(20) + rng.UniformU64(Ms(280));
    script.events.push_back({at, FaultKind::kStall, node, 0, dur});
  }

  std::stable_sort(script.events.begin(), script.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return script;
}

std::string ScriptArtifact::ToText() const {
  std::ostringstream out;
  out << "chaos-script v4\n";
  out << "protocol " << protocol << "\n";
  out << "f " << f << "\n";
  out << "seed " << seed << "\n";
  out << "defense " << (defense.empty() ? "local" : defense) << "\n";
  for (size_t i = 0; i < script.byzantine.size(); ++i) {
    if (script.byzantine[i] != ByzantineMode::kNone) {
      out << "byz " << i << " " << ByzantineModeName(script.byzantine[i]) << "\n";
    }
  }
  for (const FaultEvent& event : script.events) {
    out << "event " << event.at << " " << FaultKindName(event.kind) << " " << event.node
        << " " << event.peer << " " << event.arg << "\n";
  }
  out << "heal " << script.heal_at << "\n";
  out << "horizon " << script.horizon << "\n";
  return out.str();
}

bool ScriptArtifact::FromText(const std::string& text, ScriptArtifact* out) {
  *out = ScriptArtifact{};
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return false;
  }
  if (line != "chaos-script v4") {
    return false;
  }
  Protocol proto;
  bool have_protocol = false;
  std::vector<std::pair<uint32_t, ByzantineMode>> byz;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "protocol") {
      fields >> out->protocol;
      if (!ProtocolFromName(out->protocol, &proto)) {
        return false;
      }
      have_protocol = true;
    } else if (key == "f") {
      fields >> out->f;
    } else if (key == "seed") {
      fields >> out->seed;
    } else if (key == "defense") {
      fields >> out->defense;
      persist::DefenseKind kind;
      if (!persist::DefenseKindFromName(out->defense, &kind)) {
        return false;
      }
    } else if (key == "byz") {
      uint32_t id = 0;
      std::string mode_name;
      fields >> id >> mode_name;
      ByzantineMode mode;
      if (!ByzantineModeFromName(mode_name, &mode)) {
        return false;
      }
      byz.emplace_back(id, mode);
    } else if (key == "event") {
      FaultEvent event;
      std::string kind_name;
      fields >> event.at >> kind_name >> event.node >> event.peer >> event.arg;
      if (fields.fail() || !FaultKindFromName(kind_name, &event.kind)) {
        return false;
      }
      out->script.events.push_back(event);
    } else if (key == "heal") {
      fields >> out->script.heal_at;
    } else if (key == "horizon") {
      fields >> out->script.horizon;
    } else {
      return false;
    }
    if (fields.fail()) {
      return false;
    }
  }
  if (!have_protocol || out->script.horizon <= 0) {
    return false;
  }
  out->script.byzantine.assign(ReplicasFor(proto, out->f), ByzantineMode::kNone);
  for (const auto& [id, mode] : byz) {
    if (id >= out->script.byzantine.size()) {
      return false;
    }
    out->script.byzantine[id] = mode;
  }
  return true;
}

// --- Cluster integration (declared in cluster.h; lives here so cluster.cc stays free of
// script types) ---

void Cluster::InstallFaultScript(const FaultScript& script,
                                 std::function<void(const FaultEvent&)> on_event) {
  ACHILLES_CHECK(!started_);
  ACHILLES_CHECK(script.byzantine.size() <= n_);
  for (uint32_t i = 0; i < script.byzantine.size(); ++i) {
    if (script.byzantine[i] != ByzantineMode::kNone) {
      SetByzantine(i, script.byzantine[i]);
    }
  }
  for (const FaultEvent& event : script.events) {
    sim_.ScheduleAt(event.at, [this, event, on_event] {
      if (on_event) {
        on_event(event);
      }
      ApplyFaultEvent(event);
    });
  }
}

void Cluster::ApplyFaultEvent(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kCrash:
      if (event.node < n_ && hosts_[event.node]->IsUp()) {
        CrashReplica(event.node);
      }
      break;
    case FaultKind::kReboot: {
      if (event.node >= n_ || hosts_[event.node]->IsUp()) {
        break;  // Minimization may have dropped the matching crash.
      }
      const StorageFate fate = DecodeStorageFate(event.arg);
      // Host-disk crash consistency is settled first: the WAL may lose its unsynced
      // suffix or tear its tail record between incarnations — but never rolls back (that
      // fault class is exclusive to the sealed-storage surface below).
      platforms_[event.node]->host_storage().ApplyCrashFate(fate.wal);
      // Then the adversarial checkpoint-snapshot surface (a host record, so it composes
      // with the crash fate above and the sealed fate below).
      if (ckpt_manager_ != nullptr) {
        ckpt_manager_->ApplySnapshotFate(event.node, fate.snapshot);
      }
      // Defense-backend peer quorum fate (v4): degrade the attacked holder's copies of
      // this owner's state BEFORE the reboot-time Open consults the quorum.
      if (defense_service_ != nullptr &&
          fate.defense != persist::DefenseFate::kIntact) {
        defense_service_->ApplyPeerFate(event.node, fate.defense);
      }
      // The adversarial OS chooses what the new enclave unseals. Local restore happens in
      // the replica constructor (inside RebootReplica), so the mode can be lifted
      // immediately afterwards: later seals of the new incarnation behave honestly.
      SealedStorage& storage = platforms_[event.node]->storage();
      storage.SetRollbackMode(ToRollbackMode(fate.sealed));
      RebootReplica(event.node);
      storage.SetRollbackMode(RollbackMode::kLatest);
      break;
    }
    case FaultKind::kPartition: {
      const uint32_t size_a = std::min(std::max<uint32_t>(event.peer, 1), n_ - 1);
      std::vector<uint32_t> group_a, group_b;
      for (uint32_t i = 0; i < n_; ++i) {
        const uint32_t id = (event.node + i) % n_;
        (i < size_a ? group_a : group_b).push_back(id);
      }
      net_.Partition({group_a, group_b});
      break;
    }
    case FaultKind::kHealPartition:
      net_.ClearPartition();
      break;
    case FaultKind::kJitterOn: {
      NetworkChaos chaos;
      chaos.extra_delay_max = static_cast<SimDuration>(event.arg);
      chaos.reorder_prob = 0.25;
      chaos.reorder_delay_max = static_cast<SimDuration>(event.arg);
      chaos.dup_prob = 0.1;
      chaos.dup_delay_max = Ms(200);
      net_.SetChaos(chaos);
      break;
    }
    case FaultKind::kJitterOff:
      net_.SetChaos(NetworkChaos{});
      break;
    case FaultKind::kBlockLink:
      net_.SetLinkBlocked(event.node, event.peer, true);
      break;
    case FaultKind::kUnblockLink:
      net_.SetLinkBlocked(event.node, event.peer, false);
      break;
    case FaultKind::kStall:
      if (event.node < n_) {
        hosts_[event.node]->InjectStall(static_cast<SimDuration>(event.arg));
      }
      break;
    case FaultKind::kStaleRecoveryReplay:
      break;  // Implemented by the chaos runner (needs its recorded reply tap).
  }
}

}  // namespace achilles
