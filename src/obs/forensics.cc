#include "src/obs/forensics.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

namespace achilles {
namespace obs {
namespace {

// A stale unseal: storage served an older version than the latest one it holds.
bool IsStaleUnseal(const JournalRecord& r) {
  return r.kind == JournalKind::kUnseal && r.a != 0 && r.a < r.b;
}

// A snapshot adoption: the journal-side face of checkpoint state transfer installing a
// certified boundary state (honest "adopt", or the broken variant's unchecked/stale ones).
bool IsSnapshotAdopt(const JournalRecord& r) {
  return r.kind == JournalKind::kSnapshotFetch && r.detail.rfind("adopt", 0) == 0;
}

struct InvariantHit {
  std::string name;
  uint64_t seq = 0;
  std::string what;
};

// Re-establishes the generic invariants over the merged journal; returns the first (by
// seq) predicate violation, if any. Excluded (Byzantine) nodes are skipped entirely.
std::vector<InvariantHit> CheckInvariants(const std::vector<JournalRecord>& events,
                                          const std::set<uint32_t>& exclude) {
  std::vector<InvariantHit> hits;
  std::unordered_map<uint32_t, uint64_t> last_counter;       // node -> high-water value.
  std::map<uint64_t, uint64_t> committed;                    // height -> hash prefix.
  std::unordered_map<uint32_t, uint64_t> last_round_nonce;   // node -> latest request nonce.
  std::unordered_map<uint32_t, bool> has_round;              // node -> any round seen.
  std::unordered_map<uint32_t, uint64_t> pending_stale;      // node -> stale unseal seq.
  std::unordered_map<uint32_t, uint64_t> ckpt_floor;         // node -> certified floor.
  std::unordered_map<uint32_t, uint64_t> commit_high;        // node -> per-incarnation max.
  auto hit = [&hits](const std::string& name, uint64_t seq, std::string what) {
    hits.push_back({name, seq, std::move(what)});
  };
  for (const JournalRecord& r : events) {
    if (exclude.count(r.node) > 0) {
      continue;
    }
    switch (r.kind) {
      case JournalKind::kCounterWrite:
      case JournalKind::kCounterRead: {
        uint64_t& last = last_counter[r.node];
        if (r.a < last) {
          hit("counter-monotonicity", r.seq,
              "node " + std::to_string(r.node) + " counter regressed " +
                  std::to_string(last) + " -> " + std::to_string(r.a));
        }
        last = std::max(last, r.a);
        break;
      }
      case JournalKind::kCheckpointStable: {
        uint64_t& floor = ckpt_floor[r.node];
        floor = std::max(floor, r.a);
        break;
      }
      case JournalKind::kSnapshotFetch: {
        if (!IsSnapshotAdopt(r)) {
          break;
        }
        // The checkpoint rollback invariant: an adopted snapshot must lie above the
        // incarnation's committed watermark and at or above the certified floor. The floor
        // persists across reboots here — a run whose cert surface was attacked legitimately
        // regresses it, but such runs reach this analyzer only via some other incident.
        if (r.a <= commit_high[r.node] || r.a < ckpt_floor[r.node]) {
          hit("stale-snapshot-adopted", r.seq,
              "node " + std::to_string(r.node) + " installed a snapshot at height " +
                  std::to_string(r.a) + " behind its committed prefix (" +
                  std::to_string(commit_high[r.node]) + ") or certified floor (" +
                  std::to_string(ckpt_floor[r.node]) + ")");
        }
        uint64_t& high = commit_high[r.node];
        high = std::max(high, r.a);
        break;
      }
      case JournalKind::kBoot:
        // Commit indices are volatile: a fresh incarnation re-commits from further back.
        commit_high.erase(r.node);
        break;
      case JournalKind::kCommit:
      case JournalKind::kCheckpoint: {
        uint64_t& high = commit_high[r.node];
        high = std::max(high, r.a);
        auto [it, inserted] = committed.emplace(r.a, r.b);
        if (!inserted && it->second != r.b) {
          hit("commit-agreement", r.seq,
              "node " + std::to_string(r.node) + " committed a different block at height " +
                  std::to_string(r.a));
        }
        if (pending_stale.count(r.node) > 0) {
          hit("stale-seal-accepted", r.seq,
              "node " + std::to_string(r.node) +
                  " continued protocol work after unseal #" +
                  std::to_string(pending_stale[r.node]) +
                  " served a stale version without a rollback-reject");
          pending_stale.erase(r.node);
        }
        break;
      }
      case JournalKind::kRecoveryRound:
        last_round_nonce[r.node] = r.a;
        has_round[r.node] = true;
        break;
      case JournalKind::kRecoveryExit:
        if (has_round[r.node] && last_round_nonce[r.node] != r.a) {
          hit("recovery-freshness", r.seq,
              "node " + std::to_string(r.node) + " exited recovery consuming nonce " +
                  std::to_string(r.a) + " but its latest request round carried nonce " +
                  std::to_string(last_round_nonce[r.node]));
        }
        if (pending_stale.count(r.node) > 0) {
          hit("stale-seal-accepted", r.seq,
              "node " + std::to_string(r.node) + " finished recovery after unseal #" +
                  std::to_string(pending_stale[r.node]) + " served a stale version");
          pending_stale.erase(r.node);
        }
        break;
      case JournalKind::kUnseal:
        if (IsStaleUnseal(r)) {
          pending_stale.emplace(r.node, r.seq);
        }
        break;
      case JournalKind::kRollbackReject:
      case JournalKind::kHalt:
      case JournalKind::kCrash:
        // The stale blob was caught (or the incarnation died): not accepted.
        pending_stale.erase(r.node);
        break;
      case JournalKind::kViewEnter:
      case JournalKind::kPropose:
        if (pending_stale.count(r.node) > 0) {
          hit("stale-seal-accepted", r.seq,
              "node " + std::to_string(r.node) +
                  " continued protocol work after unseal #" +
                  std::to_string(pending_stale[r.node]) +
                  " served a stale version without a rollback-reject");
          pending_stale.erase(r.node);
        }
        break;
      default:
        break;
    }
  }
  std::stable_sort(hits.begin(), hits.end(),
                   [](const InvariantHit& x, const InvariantHit& y) { return x.seq < y.seq; });
  return hits;
}

// The violating-evidence event for the query's oracle family. Returns nullptr when the
// journal holds nothing usable (e.g. pure liveness stalls).
const JournalRecord* FindEvidence(const std::vector<JournalRecord>& events,
                                  const IncidentQuery& query,
                                  const std::vector<InvariantHit>& hits) {
  const JournalRecord* best = nullptr;
  auto latest_of = [&](auto&& pred) {
    const JournalRecord* found = nullptr;
    for (const JournalRecord& r : events) {
      if (query.at > 0 && r.ts > query.at) {
        continue;
      }
      if (pred(r)) {
        found = &r;  // Events are seq-ordered; keep the latest.
      }
    }
    return found;
  };
  if (query.oracle == "freshness") {
    best = latest_of([&](const JournalRecord& r) {
      return r.kind == JournalKind::kRecoveryExit &&
             (query.node == UINT32_MAX || r.node == query.node);
    });
  } else if (query.oracle == "agreement" || query.oracle == "durability") {
    best = latest_of([&](const JournalRecord& r) {
      return (r.kind == JournalKind::kCommit || r.kind == JournalKind::kCheckpoint) &&
             (query.node == UINT32_MAX || r.node == query.node) &&
             (query.height == 0 || r.a == query.height);
    });
  } else if (query.oracle == "counter") {
    best = latest_of([&](const JournalRecord& r) {
      return (IsStaleUnseal(r) || r.kind == JournalKind::kRollbackReject) &&
             (query.node == UINT32_MAX || r.node == query.node);
    });
  } else if (query.oracle == "checkpoint") {
    // The rollback reached the replica through a snapshot adoption; the latest adopt on
    // the victim is the journal-side face of the violation.
    best = latest_of([&](const JournalRecord& r) {
      return IsSnapshotAdopt(r) && (query.node == UINT32_MAX || r.node == query.node);
    });
  } else if (query.oracle == "linearizability") {
    // The stale value reached the client through a lease-served read; the latest
    // kLeaseServe on the serving replica is the journal-side face of the violation.
    best = latest_of([&](const JournalRecord& r) {
      return r.kind == JournalKind::kLeaseServe &&
             (query.node == UINT32_MAX || r.node == query.node);
    });
  } else if (query.oracle == "liveness") {
    // Nothing "violates" in a stall; the interesting event is the last commit anywhere —
    // the tip of the last dependency chain that advanced the frontier. The parent walk
    // from it is the stalled chain the bounded-liveness clock ran out on.
    best = latest_of([&](const JournalRecord& r) {
      return r.kind == JournalKind::kCommit || r.kind == JournalKind::kCheckpoint;
    });
  }
  if (best == nullptr && !hits.empty()) {
    for (const JournalRecord& r : events) {
      if (r.seq == hits.front().seq) {
        best = &r;
        break;
      }
    }
  }
  if (best == nullptr && !events.empty()) {
    best = latest_of([&](const JournalRecord& r) {
      return query.node == UINT32_MAX || r.node == query.node;
    });
    if (best == nullptr) {
      best = &events.back();
    }
  }
  return best;
}

std::string FmtNode(uint32_t node) { return "replica " + std::to_string(node); }

}  // namespace

IncidentReport AnalyzeIncident(const Journal& journal, const IncidentQuery& query) {
  IncidentReport report;
  const std::vector<JournalRecord> events = journal.Events();
  std::unordered_map<uint64_t, const JournalRecord*> by_seq;
  by_seq.reserve(events.size());
  for (const JournalRecord& r : events) {
    by_seq.emplace(r.seq, &r);
  }
  const std::set<uint32_t> exclude(query.exclude.begin(), query.exclude.end());

  std::string text = "=== INCIDENT REPORT ===\n";
  text += "oracle:    " + (query.oracle.empty() ? std::string("(unknown)") : query.oracle) +
          "\n";
  if (!query.description.empty()) {
    text += "violation: " + query.description + "\n";
  }
  if (!query.protocol.empty()) {
    text += "protocol:  " + query.protocol + "  seed=" + std::to_string(query.seed) + "\n";
  }
  text += "journal:   " + std::to_string(events.size()) + " surviving events (" +
          std::to_string(journal.recorded()) + " recorded, " +
          std::to_string(journal.evicted()) + " evicted)\n";

  // --- Invariant re-check ---
  const std::vector<InvariantHit> hits = CheckInvariants(events, exclude);
  if (!hits.empty()) {
    report.first_violated = hits.front().name;
    report.first_violated_seq = hits.front().seq;
    text += "\n--- first violated invariant ---\n";
    text += hits.front().name + " at #" + std::to_string(hits.front().seq) + ": " +
            hits.front().what + "\n";
    for (size_t i = 1; i < hits.size() && i < 4; ++i) {
      text += "(then " + hits[i].name + " at #" + std::to_string(hits[i].seq) + ")\n";
    }
  } else {
    text += "\n--- first violated invariant ---\n";
    text += "(no journal-level predicate re-established the violation; see the oracle "
            "text above)\n";
  }

  // --- Violating evidence ---
  const JournalRecord* evidence = FindEvidence(events, query, hits);
  text += "\n--- violating evidence ---\n";
  if (evidence == nullptr) {
    text += "(journal is empty)\n";
    report.text = text;
    return report;
  }
  report.replica = evidence->node;
  report.evidence_seq = evidence->seq;
  text += evidence->ToLine() + "\n";

  // Freshness narrative: name the consumed nonce round vs the latest round.
  if (evidence->kind == JournalKind::kRecoveryExit) {
    report.consumed_nonce = evidence->a;
    uint64_t round_index = 0;
    uint64_t consumed_index = 0;
    uint64_t latest_nonce = 0;
    SimTime consumed_ts = 0;
    for (const JournalRecord& r : events) {
      if (r.node != evidence->node || r.kind != JournalKind::kRecoveryRound ||
          r.seq > evidence->seq) {
        continue;
      }
      ++round_index;
      latest_nonce = r.a;
      report.final_round_index = round_index;
      if (r.a == evidence->a) {
        consumed_index = round_index;
        consumed_ts = r.ts;
      }
    }
    report.fresh_nonce = latest_nonce;
    report.stale_round_index = consumed_index;
    if (latest_nonce != evidence->a) {
      text += FmtNode(evidence->node) + " completed recovery consuming the nonce of ";
      if (consumed_index != 0) {
        text += "request round " + std::to_string(consumed_index) + " (nonce " +
                std::to_string(evidence->a) + ", issued t=" + std::to_string(consumed_ts) +
                ")";
      } else {
        text += "a round this journal no longer holds (nonce " +
                std::to_string(evidence->a) + ")";
      }
      text += ",\nwhile the latest request round was round " +
              std::to_string(report.final_round_index) + " (nonce " +
              std::to_string(latest_nonce) + "): a STALE nonce round was consumed.\n";
    } else {
      text += FmtNode(evidence->node) + " completed recovery on its latest nonce round (" +
              std::to_string(report.final_round_index) + ").\n";
    }
  }
  if (evidence->kind == JournalKind::kCommit || evidence->kind == JournalKind::kCheckpoint) {
    // Show the earlier conflicting commit, if one survives.
    for (const JournalRecord& r : events) {
      if ((r.kind == JournalKind::kCommit || r.kind == JournalKind::kCheckpoint) &&
          r.a == evidence->a && r.b != evidence->b && exclude.count(r.node) == 0 &&
          r.seq < evidence->seq) {
        text += "conflicts with " + r.ToLine() + "\n";
        break;
      }
    }
  }
  // Linearizability narrative: tie the lease-served read back to the replica's lease life.
  if (evidence->kind == JournalKind::kLeaseServe) {
    text += FmtNode(evidence->node) + " served a lease read of key " +
            std::to_string(evidence->a) + " at version " + std::to_string(evidence->b) +
            " off its local mirror";
    const JournalRecord* last_grant = nullptr;
    const JournalRecord* last_revoke = nullptr;
    for (const JournalRecord& r : events) {
      if (r.seq > evidence->seq) {
        break;
      }
      if (r.kind == JournalKind::kLeaseGrant && r.a == evidence->node) {
        last_grant = &r;
      }
      if (r.kind == JournalKind::kLeaseRevoke && r.node == evidence->node) {
        last_revoke = &r;
      }
    }
    if (last_grant != nullptr) {
      text += ";\nits most recent lease promise (" + last_grant->ToLine() + ")";
      if (last_revoke != nullptr && last_revoke->seq > last_grant->seq) {
        text += "\nhad already been dropped locally (" + last_revoke->ToLine() + ")";
      }
    }
    text += ".\n";
  }
  // Checkpoint narrative: name the adopted height against the replica's own certified
  // floor and the serving peer.
  if (IsSnapshotAdopt(*evidence)) {
    uint64_t floor = 0;
    const JournalRecord* serve = nullptr;
    for (const JournalRecord& r : events) {
      if (r.seq > evidence->seq) {
        break;
      }
      if (r.kind == JournalKind::kCheckpointStable && r.node == evidence->node) {
        floor = std::max(floor, r.a);
      }
      if (r.kind == JournalKind::kSnapshotFetch && r.detail == "serve" &&
          r.a == evidence->a) {
        serve = &r;
      }
    }
    text += FmtNode(evidence->node) + " installed a snapshot at height " +
            std::to_string(evidence->a);
    if (floor > evidence->a) {
      text += ", " + std::to_string(floor - evidence->a) +
              " height(s) BELOW its own certified floor " + std::to_string(floor);
    }
    if (serve != nullptr) {
      text += ";\nserved by " + FmtNode(serve->node) + " (" + serve->ToLine() + ")";
    }
    if (evidence->detail == "adopt-unchecked" || evidence->detail == "adopt-stale") {
      text += ";\nthe transfer path skipped its certificate/floor checks (" +
              evidence->detail + ")";
    }
    text += ".\n";
  }
  if (IsStaleUnseal(*evidence)) {
    text += FmtNode(evidence->node) + " was served sealed-state version " +
            std::to_string(evidence->a) + " of " + std::to_string(evidence->b) +
            " (rolled back " + std::to_string(evidence->b - evidence->a) +
            " version(s))\n";
  }

  // Liveness narrative: where every replica last made progress. The commit frontier
  // stopped at the evidence commit; whoever's last event trails it is where the stalled
  // dependency sits.
  if (query.oracle == "liveness") {
    struct Progress {
      uint64_t last_commit_h = 0;
      SimTime last_commit_ts = -1;
      uint64_t last_view = 0;
      SimTime last_ts = -1;
    };
    std::map<uint32_t, Progress> progress;
    for (const JournalRecord& r : events) {
      Progress& p = progress[r.node];
      p.last_ts = r.ts;
      if (r.kind == JournalKind::kCommit || r.kind == JournalKind::kCheckpoint) {
        p.last_commit_h = r.a;
        p.last_commit_ts = r.ts;
      } else if (r.kind == JournalKind::kViewEnter) {
        p.last_view = r.a;
      }
    }
    text += "\n--- last progress per replica ---\n";
    for (const auto& [node, p] : progress) {
      text += FmtNode(node) + ": ";
      if (p.last_commit_ts >= 0) {
        text += "last commit h=" + std::to_string(p.last_commit_h) + " at t=" +
                std::to_string(p.last_commit_ts);
      } else {
        text += "never committed";
      }
      text += ", last view " + std::to_string(p.last_view) + ", last event t=" +
              std::to_string(p.last_ts);
      if (exclude.count(node) != 0) {
        text += " (byzantine; excluded)";
      }
      text += "\n";
    }
    text += "no commit extended the frontier after t=" + std::to_string(evidence->ts) +
            "; the chain below is the stalled dependency chain feeding that last "
            "commit.\n";
  }

  // --- Causal chain: parent walk from the evidence ---
  text += query.oracle == "liveness"
              ? "\n--- stalled dependency chain (last progress first) ---\n"
              : "\n--- causal chain (evidence first) ---\n";
  const JournalRecord* cursor = evidence;
  size_t steps = 0;
  while (cursor != nullptr && steps < 20) {
    report.causal_chain.push_back(cursor->seq);
    text += (steps == 0 ? "  " : "  <- ") + cursor->ToLine() + "\n";
    ++steps;
    if (cursor->parent == 0) {
      break;
    }
    auto it = by_seq.find(cursor->parent);
    if (it == by_seq.end()) {
      text += "  <- #" + std::to_string(cursor->parent) + " (evicted from the journal)\n";
      break;
    }
    cursor = it->second;
  }

  // --- Incarnation divergence for the focus replica ---
  const uint32_t focus = query.node != UINT32_MAX ? query.node : evidence->node;
  const uint32_t incarnations = journal.incarnation(focus);
  if (incarnations >= 2) {
    text += "\n--- incarnation history (" + FmtNode(focus) + ") ---\n";
    struct IncSummary {
      SimTime boot_ts = -1;
      uint64_t last_view = 0;
      uint64_t max_commit_height = 0;
      uint64_t max_commit_hash = 0;
      uint64_t exits = 0;
    };
    std::map<uint32_t, IncSummary> incs;
    for (const JournalRecord& r : events) {
      if (r.node != focus) {
        continue;
      }
      IncSummary& s = incs[r.incarnation];
      switch (r.kind) {
        case JournalKind::kBoot:
          s.boot_ts = r.ts;
          break;
        case JournalKind::kViewEnter:
          s.last_view = std::max(s.last_view, r.a);
          break;
        case JournalKind::kCommit:
        case JournalKind::kCheckpoint:
          if (r.a >= s.max_commit_height) {
            s.max_commit_height = r.a;
            s.max_commit_hash = r.b;
          }
          break;
        case JournalKind::kRecoveryExit:
          ++s.exits;
          break;
        default:
          break;
      }
    }
    for (const auto& [inc, s] : incs) {
      text += "incarnation " + std::to_string(inc) + ": boot t=" +
              (s.boot_ts >= 0 ? std::to_string(s.boot_ts) : std::string("?")) +
              " last_view=" + std::to_string(s.last_view) +
              " max_commit_h=" + std::to_string(s.max_commit_height) +
              " recovery_exits=" + std::to_string(s.exits) + "\n";
    }
    // Divergence point: the first event in the last incarnation that contradicts what the
    // previous incarnations established — a stale unseal, a stale-nonce recovery exit, or
    // a commit that rewrites an earlier incarnation's height.
    const uint32_t last_inc = incs.rbegin()->first;
    uint64_t prev_max_height = 0;
    uint64_t prev_max_hash = 0;
    for (const auto& [inc, s] : incs) {
      if (inc < last_inc && s.max_commit_height >= prev_max_height) {
        prev_max_height = s.max_commit_height;
        prev_max_hash = s.max_commit_hash;
      }
    }
    const JournalRecord* divergence = nullptr;
    uint64_t last_round_nonce = 0;
    bool saw_round = false;
    for (const JournalRecord& r : events) {
      if (r.node != focus || r.incarnation != last_inc) {
        continue;
      }
      if (r.kind == JournalKind::kRecoveryRound) {
        last_round_nonce = r.a;
        saw_round = true;
      }
      if (IsStaleUnseal(r) ||
          (r.kind == JournalKind::kRecoveryExit && saw_round && r.a != last_round_nonce) ||
          ((r.kind == JournalKind::kCommit || r.kind == JournalKind::kCheckpoint) &&
           r.a == prev_max_height && prev_max_height > 0 && r.b != prev_max_hash)) {
        divergence = &r;
        break;
      }
    }
    if (divergence != nullptr) {
      report.divergence_seq = divergence->seq;
      text += "divergence point (incarnation " + std::to_string(last_inc) +
              " vs its past): " + divergence->ToLine() + "\n";
    } else {
      text += "(no divergence between incarnations visible in the surviving journal)\n";
    }
  }

  text += "=======================\n";
  report.text = text;
  return report;
}

}  // namespace obs
}  // namespace achilles
