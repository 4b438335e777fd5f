#include "src/checkpoint/manager.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace achilles {
namespace checkpoint {

namespace {
constexpr size_t kRetainedSnapshots = 4;  // Boundary snapshots kept servable for laggards.
}  // namespace

const char* SnapshotFateName(SnapshotFate fate) {
  switch (fate) {
    case SnapshotFate::kIntact:
      return "intact";
    case SnapshotFate::kStale:
      return "stale";
    case SnapshotFate::kErased:
      return "erased";
    case SnapshotFate::kCorrupt:
      return "corrupt";
  }
  return "?";
}

CheckpointManager::CheckpointManager(std::vector<NodePlatform*> platforms, Network* net,
                                     const CryptoSuite* suite, const CostModel& costs,
                                     const CheckpointOptions& opts, BrokenVariant broken,
                                     size_t quorum, obs::MetricsRegistry* metrics)
    : platforms_(std::move(platforms)),
      net_(net),
      suite_(suite),
      costs_(costs),
      opts_(opts),
      broken_(broken),
      quorum_(quorum),
      metrics_(metrics) {
  ACHILLES_CHECK(opts_.interval > 0);
  per_replica_.resize(platforms_.size());
  if (metrics_ != nullptr) {
    stable_total_ = metrics_->GetCounter("ckpt.stable_total");
    votes_total_ = metrics_->GetCounter("ckpt.votes_total");
    serves_total_ = metrics_->GetCounter("ckpt.snapshot_serves");
    adopts_total_ = metrics_->GetCounter("ckpt.snapshot_adopts");
  }
}

Height CheckpointManager::latest_stable() const {
  Height best = 0;
  for (const PerReplica& pr : per_replica_) {
    best = std::max(best, pr.last_stable);
  }
  return best;
}

void CheckpointManager::Broadcast(NodeId from, const MessageRef& msg) {
  for (uint32_t j = 0; j < n(); ++j) {
    if (j != from) {
      net_->Send(HostAt(from)->id(), HostAt(j)->id(), msg);
    }
  }
}

void CheckpointManager::SetStableGauge(NodeId replica, Height height) {
  if (metrics_ != nullptr) {
    metrics_->GetGauge("ckpt.last_stable_seq", {{"node", std::to_string(replica)}})
        ->Set(static_cast<double>(height));
  }
}

void CheckpointManager::PruneRetained() {
  if (broken_ == BrokenVariant::kStaleSnapshotAccept) {
    return;  // Unbounded retention: the oldest snapshot stays servable.
  }
  while (retained_.size() > kRetainedSnapshots) {
    retained_.erase(retained_.begin());
  }
}

void CheckpointManager::StageForRetention(const BlockPtr& block) {
  if (IsBoundary(block->height)) {
    RetainedSnapshot& slot = retained_[block->height];
    if (slot.block == nullptr) {
      slot.block = block;
    }
    PruneRetained();
  }
  if (kv_ == nullptr) {
    return;
  }
  if (block->height > frontier_.height()) {
    stage_.emplace(block->height, block);
  }
  while (true) {
    auto it = stage_.find(frontier_.height() + 1);
    if (it == stage_.end() || !frontier_.CanApply(it->second)) {
      break;
    }
    frontier_.ApplyBlock(it->second);
    stage_.erase(it);
    if (IsBoundary(frontier_.height())) {
      auto rit = retained_.find(frontier_.height());
      if (rit != retained_.end() && rit->second.state == nullptr) {
        rit->second.state = std::make_shared<app::KvState>(frontier_);
      }
    }
  }
  // Blocks at or below the frontier were either folded or superseded.
  stage_.erase(stage_.begin(), stage_.upper_bound(frontier_.height()));
}

void CheckpointManager::OnCommit(NodeId replica, const BlockPtr& block, SimTime now) {
  if (!opts_.enabled || replica >= n()) {
    return;
  }
  StageForRetention(block);
  const Height h = block->height;
  if (!IsBoundary(h)) {
    return;
  }
  PerReplica& pr = per_replica_[replica];
  PendingBoundary& p = pr.pending[h];
  p.block = block;
  p.digest = CheckpointDigest(*block);
  if (h > pr.last_voted) {
    pr.last_voted = h;
    // Sign the checkpoint vote inside the committing replica's handler context.
    CheckpointCert proto;
    proto.height = h;
    proto.block_hash = block->hash;
    proto.digest = p.digest;
    const Bytes msg = proto.SigningDigest();
    HostAt(replica)->ChargeCpuAs(obs::Component::kCrypto, costs_.sign);
    Signature sig = suite_->Sign(replica, ByteView(msg.data(), msg.size()));
    p.votes[replica] = {p.digest, sig};
    ++votes_cast_;
    if (votes_total_ != nullptr) {
      votes_total_->Inc();
    }
    auto vote = std::make_shared<CkptVoteMsg>();
    vote->height = h;
    vote->block_hash = block->hash;
    vote->digest = p.digest;
    vote->sig = std::move(sig);
    Broadcast(replica, vote);
  }
  TryAssemble(replica, h, now);
}

void CheckpointManager::TryAssemble(NodeId replica, Height height, SimTime now) {
  PerReplica& pr = per_replica_[replica];
  if (height <= pr.last_stable) {
    return;
  }
  auto it = pr.pending.find(height);
  if (it == pr.pending.end() || it->second.block == nullptr) {
    return;  // Votes without a local commit: stability waits for the replica itself.
  }
  PendingBoundary& p = it->second;
  CheckpointCert cert;
  cert.height = height;
  cert.block_hash = p.block->hash;
  cert.digest = p.digest;
  for (const auto& [signer, vote] : p.votes) {
    if (vote.first == p.digest) {
      cert.sigs.push_back(vote.second);
    }
  }
  if (cert.sigs.size() < quorum_) {
    return;
  }
  const BlockPtr block = p.block;
  pr.last_stable = height;
  pr.stable_cert = cert;
  ++checkpoints_assembled_;
  if (stable_total_ != nullptr) {
    stable_total_->Inc();
  }
  RetainedSnapshot& slot = retained_[height];
  if (slot.block == nullptr) {
    slot.block = block;
  }
  if (slot.cert.empty()) {
    slot.cert = cert;
  }
  PruneRetained();
  pr.pending.erase(pr.pending.begin(), pr.pending.upper_bound(height));
  // Persist + truncate inside this replica's handler context, then tell the cluster.
  if (ReplicaBase* rep = ReplicaAt(replica)) {
    rep->PersistStableCheckpoint(cert, block);
  }
  if (kv_ != nullptr) {
    // Compact the shared agreed log with the same slack the block stores keep.
    const Height slack = opts_.CatchupSlack();
    if (height > slack) {
      kv_->PruneBelow(height - slack);
    }
  }
  SetStableGauge(replica, height);
  auto ann = std::make_shared<CkptAnnounceMsg>();
  ann->cert = cert;
  Broadcast(replica, ann);
  if (stable_listener_) {
    stable_listener_(replica, cert, now);
  }
}

bool CheckpointManager::OnAppMessage(NodeId replica, uint32_t from_host,
                                     const MessageRef& msg) {
  if (auto* vote = dynamic_cast<const CkptVoteMsg*>(msg.get())) {
    HandleVote(replica, *vote, HostAt(replica)->LocalNow());
    return true;
  }
  if (auto* ann = dynamic_cast<const CkptAnnounceMsg*>(msg.get())) {
    HandleAnnounce(replica, from_host, *ann);
    return true;
  }
  if (auto* req = dynamic_cast<const SnapshotFetchRequestMsg*>(msg.get())) {
    HandleFetchRequest(replica, from_host, *req);
    return true;
  }
  if (auto* resp = dynamic_cast<const SnapshotFetchResponseMsg*>(msg.get())) {
    HandleFetchResponse(replica, from_host, *resp);
    return true;
  }
  return next_ != nullptr && next_->OnAppMessage(replica, from_host, msg);
}

void CheckpointManager::HandleVote(NodeId replica, const CkptVoteMsg& vote, SimTime now) {
  if (!opts_.enabled || vote.sig.signer >= n() || vote.sig.signer == replica) {
    return;
  }
  PerReplica& pr = per_replica_[replica];
  if (vote.height <= pr.last_stable) {
    return;  // Already stable here; the vote is stale.
  }
  CheckpointCert proto;
  proto.height = vote.height;
  proto.block_hash = vote.block_hash;
  proto.digest = vote.digest;
  const Bytes msg = proto.SigningDigest();
  HostAt(replica)->ChargeCpuAs(obs::Component::kCrypto, costs_.verify);
  if (!suite_->Verify(vote.sig, ByteView(msg.data(), msg.size()))) {
    return;
  }
  PendingBoundary& p = pr.pending[vote.height];
  p.votes.emplace(vote.sig.signer, std::make_pair(vote.digest, vote.sig));
  TryAssemble(replica, vote.height, now);
}

void CheckpointManager::HandleAnnounce(NodeId replica, uint32_t from_host,
                                       const CkptAnnounceMsg& ann) {
  ReplicaBase* rep = ReplicaAt(replica);
  if (!opts_.enabled || rep == nullptr) {
    return;
  }
  PerReplica& pr = per_replica_[replica];
  const Height committed = rep->last_committed_height();
  if (ann.cert.height < committed + opts_.CatchupSlack() ||
      ann.cert.height <= pr.last_fetch_req) {
    return;  // Close enough to backfill blocks, or a fetch is already outstanding.
  }
  pr.last_fetch_req = ann.cert.height;
  HostAt(replica)->JournalEvent(obs::JournalKind::kSnapshotFetch, ann.cert.height,
                                from_host, "request");
  auto req = std::make_shared<SnapshotFetchRequestMsg>();
  req->requester = replica;
  req->have = committed;
  net_->Send(HostAt(replica)->id(), from_host, req);
}

void CheckpointManager::HandleFetchRequest(NodeId replica, uint32_t from_host,
                                           const SnapshotFetchRequestMsg& req) {
  if (!opts_.enabled) {
    return;
  }
  PerReplica& pr = per_replica_[replica];
  const RetainedSnapshot* serve = nullptr;
  Height serve_height = 0;
  if (broken_ == BrokenVariant::kStaleSnapshotAccept) {
    // BROKEN: serve the oldest retained snapshot, ignoring what the requester has — with
    // retention unbounded this resurrects arbitrarily old state.
    for (const auto& [h, slot] : retained_) {
      if (!slot.cert.empty() && slot.block != nullptr) {
        serve = &slot;
        serve_height = h;
        break;
      }
    }
  } else {
    if (pr.last_stable == 0) {
      return;  // Nothing stable here yet.
    }
    for (auto it = retained_.rbegin(); it != retained_.rend(); ++it) {
      if (!it->second.cert.empty() && it->second.block != nullptr &&
          it->first > req.have) {
        serve = &it->second;
        serve_height = it->first;
        break;
      }
    }
  }
  if (serve == nullptr) {
    return;
  }
  if (serves_total_ != nullptr) {
    serves_total_->Inc();
  }
  auto resp = std::make_shared<SnapshotFetchResponseMsg>();
  resp->cert = serve->cert;
  resp->block = serve->block;
  resp->kv_state = serve->state;
  resp->app_bytes = serve->state != nullptr ? serve->state->num_keys() * 24 : 0;
  // Reading + packaging the snapshot is hash-rate work on the responder.
  HostAt(replica)->ChargeCpuAs(obs::Component::kCrypto, costs_.HashCost(resp->WireSize()));
  HostAt(replica)->JournalEvent(obs::JournalKind::kSnapshotFetch, serve_height, from_host,
                                "serve");
  net_->Send(HostAt(replica)->id(), from_host, resp);
}

void CheckpointManager::HandleFetchResponse(NodeId replica, uint32_t from_host,
                                            const SnapshotFetchResponseMsg& resp) {
  ReplicaBase* rep = ReplicaAt(replica);
  if (!opts_.enabled || rep == nullptr || resp.block == nullptr) {
    return;
  }
  Host* host = HostAt(replica);
  const bool broken = broken_ == BrokenVariant::kStaleSnapshotAccept;
  if (!broken) {
    host->ChargeCpuAs(obs::Component::kCrypto,
                      costs_.verify * static_cast<SimDuration>(resp.cert.sigs.size()) +
                          costs_.HashCost(resp.block->WireSize()));
    if (!resp.cert.Verify(*suite_, quorum_) ||
        resp.cert.block_hash != resp.block->hash ||
        resp.cert.height != resp.block->height ||
        resp.cert.digest != CheckpointDigest(*resp.block)) {
      host->JournalEvent(obs::JournalKind::kRollbackReject, resp.cert.height, from_host,
                         "ckpt/bad-snapshot-response");
      return;
    }
    if (resp.cert.height <= rep->last_committed_height() ||
        resp.cert.height < rep->checkpoint_floor()) {
      return;  // Stale relative to local progress or below the rollback floor.
    }
  }
  ++snapshot_adopts_;
  if (adopts_total_ != nullptr) {
    adopts_total_->Inc();
  }
  host->JournalEvent(obs::JournalKind::kSnapshotFetch, resp.cert.height, from_host,
                     broken ? "adopt-unchecked" : "adopt");
  // The oracle tap fires BEFORE installation: adoption is judged against the replica's
  // pre-adopt committed prefix (installing the snapshot itself commits the boundary block
  // through the tracker, which would otherwise race the audit).
  if (adopt_listener_) {
    adopt_listener_(replica, resp.cert, host->LocalNow());
  }
  if (kv_ != nullptr && resp.kv_state != nullptr) {
    kv_->InstallMirror(replica, *resp.kv_state, host->LocalNow());
  }
  rep->AdoptStateTransfer(resp.block, resp.cert.WireSize(), /*allow_regress=*/broken);
  rep->PersistStableCheckpoint(resp.cert, resp.block);
  PerReplica& pr = per_replica_[replica];
  if (resp.cert.height > pr.last_stable) {
    pr.last_stable = resp.cert.height;
    pr.stable_cert = resp.cert;
  }
  SetStableGauge(replica, pr.last_stable);
}

void CheckpointManager::OnReplicaCrash(NodeId replica) {
  if (replica >= per_replica_.size()) {
    return;
  }
  // Vote collections live in process RAM; they die with the incarnation.
  per_replica_[replica].pending.clear();
}

void CheckpointManager::OnReplicaReboot(NodeId replica) {
  if (replica >= per_replica_.size()) {
    return;
  }
  // Allow the fresh incarnation to fetch again from scratch.
  per_replica_[replica].last_fetch_req = 0;
}

void CheckpointManager::ApplySnapshotFate(NodeId id, SnapshotFate fate) {
  if (fate == SnapshotFate::kIntact || id >= n()) {
    return;
  }
  storage::RecordStore& recs = platforms_[id]->host_storage().records();
  // Outside a TEE the certificate shares the (rollback-prone) host disk; the fate rewrites
  // both records consistently, which is exactly why such platforms cannot detect it.
  const bool cert_on_host = !platforms_[id]->tee().components_in_tee;
  const auto rewrite = [&recs](const char* key, const Bytes& value) {
    // Async put: visible to the next incarnation without charging the (dead) process.
    recs.Put(key, ByteView(value.data(), value.size()), storage::SyncMode::kAsync);
  };
  switch (fate) {
    case SnapshotFate::kIntact:
      return;
    case SnapshotFate::kErased:
      rewrite(kSnapshotKey, {});
      if (cert_on_host) {
        rewrite(kCertKey, {});
      }
      return;
    case SnapshotFate::kCorrupt: {
      auto cur = recs.Get(kSnapshotKey);
      if (cur.has_value() && !cur->empty()) {
        Bytes mangled = *cur;
        mangled[mangled.size() / 2] ^= 0x5a;
        rewrite(kSnapshotKey, mangled);
      } else {
        rewrite(kSnapshotKey, {});
      }
      return;
    }
    case SnapshotFate::kStale: {
      const RetainedSnapshot* oldest = nullptr;
      for (const auto& [h, slot] : retained_) {
        if (!slot.cert.empty() && slot.block != nullptr) {
          oldest = &slot;
          break;
        }
      }
      if (oldest == nullptr) {
        // No older snapshot exists to roll back to; erasure is the closest attack.
        rewrite(kSnapshotKey, {});
        if (cert_on_host) {
          rewrite(kCertKey, {});
        }
        return;
      }
      rewrite(kSnapshotKey, EncodeSnapshotRecord(oldest->cert, *oldest->block));
      if (cert_on_host) {
        rewrite(kCertKey, oldest->cert.Encode());
      }
      return;
    }
  }
}

}  // namespace checkpoint
}  // namespace achilles
