#include "src/app/kv_service.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace achilles {
namespace app {

namespace {
constexpr SimDuration kLeaseDuration = Ms(400);  // L: promise lifetime.
constexpr uint32_t kStableStreak = 3;  // K: self-led blocks applied before serving.
}  // namespace

KvService::KvService(std::vector<Host*> replica_hosts, Network* net, CommitTracker* tracker,
                     uint32_t kv_client_host, BrokenVariant broken, obs::MetricsRegistry* metrics)
    : hosts_(std::move(replica_hosts)),
      net_(net),
      tracker_(tracker),
      kv_client_host_(kv_client_host),
      broken_(broken),
      per_replica_(hosts_.size()) {
  ACHILLES_CHECK(!hosts_.empty());
  if (metrics != nullptr) {
    reads_total_ = metrics->GetCounter("app.reads");
    reads_lease_ = metrics->GetCounter("app.reads_lease");
    reads_declined_ = metrics->GetCounter("app.reads_declined");
    stale_candidates_ = metrics->GetCounter("app.stale_read_candidates");
    lease_grants_ = metrics->GetCounter("app.lease_grants");
    lease_revokes_ = metrics->GetCounter("app.lease_revokes");
  }
}

void KvService::OnCommit(NodeId replica, const BlockPtr& block, SimTime now) {
  by_height_.emplace(block->height, block);  // First commit wins.
  // Advance the canonical first-commit state as far as the chain allows.
  while (true) {
    auto it = by_height_.find(canonical_.height() + 1);
    if (it == by_height_.end() || !canonical_.CanApply(it->second)) {
      break;
    }
    canonical_.ApplyBlock(it->second);
  }
  CatchUpMirror(replica, now);
}

void KvService::OnProposal(NodeId proposer, const BlockPtr& block) {
  if (proposer >= n() || block == nullptr) {
    return;
  }
  PerReplica& pr = per_replica_[proposer];
  if (block->height <= pr.mirror.height()) {
    return;
  }
  std::vector<uint32_t>* slot = nullptr;
  for (const Transaction& tx : block->txs) {
    KvOpKind kind;
    uint32_t key;
    if (!DecodeKvOp(tx.op, &kind, &key) || kind != KvOpKind::kPut) {
      continue;
    }
    if (slot == nullptr) {
      slot = &pr.pending_put_heights[block->height];
    }
    slot->push_back(key);
    ++pr.pending_put_keys[key];
  }
}

void KvService::PrunePendingPuts(PerReplica& pr) {
  while (!pr.pending_put_heights.empty() &&
         pr.pending_put_heights.begin()->first <= pr.mirror.height()) {
    for (const uint32_t key : pr.pending_put_heights.begin()->second) {
      auto it = pr.pending_put_keys.find(key);
      if (it != pr.pending_put_keys.end() && --it->second == 0) {
        pr.pending_put_keys.erase(it);
      }
    }
    pr.pending_put_heights.erase(pr.pending_put_heights.begin());
  }
}

void KvService::CatchUpMirror(NodeId replica, SimTime now) {
  PerReplica& pr = per_replica_[replica];
  // A checkpoint-adopting replica commits a high block without the intermediate chain; the
  // shared by_height_ map replays the gap in order. A missing height stalls the mirror (its
  // lease state cannot advance, so it simply never serves) until a later commit fills it.
  while (true) {
    auto it = by_height_.find(pr.mirror.height() + 1);
    if (it == by_height_.end() || !pr.mirror.CanApply(it->second)) {
      break;
    }
    const BlockPtr& b = it->second;
    pr.mirror.ApplyBlock(b);
    OnBlockApplied(replica, b, now);
  }
  PrunePendingPuts(pr);
}

void KvService::OnBlockApplied(NodeId replica, const BlockPtr& block, SimTime now) {
  PerReplica& pr = per_replica_[replica];
  const NodeId proposer = tracker_->ProposerOf(block->hash);
  const bool self_led = proposer == replica;

  if (self_led) {
    ++pr.streak;
  } else {
    // Foreign-led block applied: leadership moved, drop any lease immediately.
    RevokeLease(replica, pr, /*journal=*/true);
  }

  // Renewal: a stable leader keeps every peer's promise at least ~L/4 ahead of expiry.
  if (self_led && pr.streak >= kStableStreak) {
    SimTime min_expiry = std::numeric_limits<SimTime>::max();
    for (NodeId j = 0; j < n(); ++j) {
      if (j == replica) {
        continue;
      }
      auto it = pr.ack_expiry.find(j);
      const SimTime expiry = it == pr.ack_expiry.end() ? 0 : it->second;
      min_expiry = std::min(min_expiry, expiry);
    }
    if (min_expiry < now + (3 * kLeaseDuration) / 4) {
      auto renew = std::make_shared<KvLeaseRenewMsg>();
      renew->holder = replica;
      for (NodeId j = 0; j < n(); ++j) {
        if (j != replica) {
          net_->Send(hosts_[replica]->id(), hosts_[j]->id(), renew);
        }
      }
    }
  }

  // Release the applied-notification to the client, gated by boot silence and by any live
  // promise to a holder other than this block's proposer (the withholding that makes the
  // lease safe). The broken variant skips the promise gate — that is the planted bug.
  SimTime release = std::max(now, pr.boot_silence_until);
  if (broken_ != BrokenVariant::kStaleReadLease && pr.promise_to != kNoNode &&
      pr.promise_to != proposer && now < pr.promise_until) {
    release = std::max(release, pr.promise_until);
  }
  auto applied = std::make_shared<KvAppliedMsg>();
  applied->block = block;
  applied->replica = replica;
  applied->proposer = proposer;
  if (release <= now) {
    net_->Send(hosts_[replica]->id(), kv_client_host_, applied);
  } else {
    // The timer dies with the host, so a crashed replica's withheld releases vanish —
    // exactly what a real process restart would do.
    hosts_[replica]->SetTimer(release - now, [this, replica, applied] {
      net_->Send(hosts_[replica]->id(), kv_client_host_, applied);
    });
  }
}

bool KvService::CanServe(const PerReplica& pr, SimTime now) const {
  if (pr.streak < kStableStreak) {
    return false;
  }
  for (NodeId j = 0; j < n(); ++j) {
    if (&per_replica_[j] == &pr) {
      continue;
    }
    auto it = pr.ack_expiry.find(j);
    if (it == pr.ack_expiry.end() || it->second <= now) {
      return false;
    }
  }
  return true;
}

void KvService::RevokeLease(NodeId replica, PerReplica& pr, bool journal) {
  if (pr.streak == 0 && pr.ack_expiry.empty()) {
    return;
  }
  if (journal) {
    hosts_[replica]->JournalEvent(obs::JournalKind::kLeaseRevoke);
    if (lease_revokes_ != nullptr) {
      lease_revokes_->Inc();
    }
  }
  pr.streak = 0;
  pr.ack_expiry.clear();
}

bool KvService::OnAppMessage(NodeId replica, uint32_t from_host, const MessageRef& msg) {
  if (auto req = std::dynamic_pointer_cast<const KvReadRequestMsg>(msg)) {
    HandleReadRequest(replica, from_host, *req);
    return true;
  }
  if (auto renew = std::dynamic_pointer_cast<const KvLeaseRenewMsg>(msg)) {
    HandleLeaseRenew(replica, *renew);
    return true;
  }
  if (auto ack = std::dynamic_pointer_cast<const KvLeaseAckMsg>(msg)) {
    HandleLeaseAck(replica, *ack);
    return true;
  }
  return false;
}

void KvService::HandleReadRequest(NodeId replica, uint32_t from_host,
                                  const KvReadRequestMsg& req) {
  Host* host = hosts_[replica];
  host->ChargeCpu(Us(1));  // Local read execution.
  PerReplica& pr = per_replica_[replica];
  const SimTime now = host->LocalNow();
  if (reads_total_ != nullptr) {
    reads_total_->Inc();
  }
  auto reply = std::make_shared<KvReadReplyMsg>();
  reply->op_id = req.op_id;
  reply->key = req.key;
  reply->server = replica;
  // A key with one of this replica's own PUTs still in flight is barred from the fast
  // path: the proposal may commit under a new leader (and complete at clients through the
  // grantors' proposer exemption) without this mirror ever applying it.
  if (CanServe(pr, now) && pr.pending_put_keys.find(req.key) == pr.pending_put_keys.end()) {
    reply->served = true;
    reply->cell = pr.mirror.Read(req.key);
    ++lease_reads_served_;
    if (reads_lease_ != nullptr) {
      reads_lease_->Inc();
    }
    host->JournalEvent(obs::JournalKind::kLeaseServe, req.key, reply->cell.version);
    // Near-miss accounting: the serve returned a version already superseded in the agreed
    // log. Not necessarily a violation (the newer write may not be client-complete yet) —
    // the linearizability checker decides — but the count sizes the exposure.
    if (canonical_.Read(req.key).version > reply->cell.version) {
      ++stale_read_candidates_;
      if (stale_candidates_ != nullptr) {
        stale_candidates_->Inc();
      }
    }
  } else {
    reply->served = false;
    if (reads_declined_ != nullptr) {
      reads_declined_->Inc();
    }
  }
  net_->Send(host->id(), from_host, reply);
}

void KvService::HandleLeaseRenew(NodeId replica, const KvLeaseRenewMsg& msg) {
  const NodeId holder = msg.holder;
  if (holder >= n() || holder == replica) {
    return;
  }
  Host* host = hosts_[replica];
  PerReplica& pr = per_replica_[replica];
  const SimTime now = host->LocalNow();
  // Single-live-grant: refuse while a different holder's promise is still running.
  if (pr.promise_to != kNoNode && pr.promise_to != holder && now < pr.promise_until) {
    return;
  }
  pr.promise_to = holder;
  pr.promise_until = now + kLeaseDuration;
  // Granting is incompatible with serving: someone else is the stable leader now.
  RevokeLease(replica, pr, /*journal=*/true);
  host->JournalEvent(obs::JournalKind::kLeaseGrant, holder,
                     static_cast<uint64_t>(pr.promise_until));
  if (lease_grants_ != nullptr) {
    lease_grants_->Inc();
  }
  auto ack = std::make_shared<KvLeaseAckMsg>();
  ack->grantor = replica;
  ack->expiry = pr.promise_until;
  net_->Send(host->id(), hosts_[holder]->id(), ack);
}

void KvService::HandleLeaseAck(NodeId replica, const KvLeaseAckMsg& msg) {
  if (msg.grantor >= n() || msg.grantor == replica) {
    return;
  }
  PerReplica& pr = per_replica_[replica];
  SimTime& slot = pr.ack_expiry[msg.grantor];
  slot = std::max(slot, msg.expiry);
}

void KvService::InstallMirror(NodeId replica, const KvState& state, SimTime now) {
  PerReplica& pr = per_replica_[replica];
  if (state.height() <= pr.mirror.height()) {
    return;  // The mirror already covers the snapshot prefix.
  }
  // A snapshot jump invalidates any self-led streak; serving must re-stabilize.
  RevokeLease(replica, pr, /*journal=*/true);
  pr.mirror = state;
  // Roll forward from the shared agreed log past the snapshot. The skipped blocks release
  // no KvAppliedMsg from this replica — clients complete via the proposer / f+1 rule.
  CatchUpMirror(replica, now);
}

void KvService::PruneBelow(Height keep_from) {
  // Never prune what the slowest mirror still needs to replay.
  for (const PerReplica& pr : per_replica_) {
    keep_from = std::min(keep_from, pr.mirror.height() + 1);
  }
  by_height_.erase(by_height_.begin(), by_height_.lower_bound(keep_from));
}

void KvService::OnReplicaCrash(NodeId replica) {
  PerReplica& pr = per_replica_[replica];
  // Everything lease-related is volatile. The mirror survives: it is a deterministic
  // function of the durable log prefix, re-derivable on reboot.
  RevokeLease(replica, pr, /*journal=*/false);
  pr.promise_to = kNoNode;
  pr.promise_until = 0;
  // In-flight proposals died with the incarnation. Forgetting them is safe: reboot
  // silence outlasts any promise the crashed incarnation could have been granted, and
  // serving needs a freshly rebuilt streak anyway.
  pr.pending_put_heights.clear();
  pr.pending_put_keys.clear();
}

void KvService::OnReplicaReboot(NodeId replica, SimTime bind_time) {
  // The crashed incarnation may have promised a lease that the crash forgot. Stay silent
  // toward clients for a full lease duration — an upper bound on any pre-crash promise.
  per_replica_[replica].boot_silence_until = bind_time + kLeaseDuration;
}

}  // namespace app
}  // namespace achilles
