#include "src/consensus/replica_base.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace achilles {

ReplicaBase::ReplicaBase(const ReplicaContext& ctx)
    : ctx_(ctx), enclave_(std::make_unique<EnclaveRuntime>(ctx.platform)) {
  last_committed_hash_ = Block::Genesis()->hash;
}

InvariantSnapshot ReplicaBase::Invariants() const {
  InvariantSnapshot snap;
  snap.view = view_;
  snap.committed_height = last_committed_height_;
  snap.committed_hash = last_committed_hash_;
  snap.counter_value = ctx_.platform->counter().value();
  return snap;
}

NodeId ReplicaBase::ReplicaOfHost(uint32_t host) const {
  if (ctx_.replica_hosts.empty()) {
    return host;
  }
  for (NodeId r = 0; r < ctx_.replica_hosts.size(); ++r) {
    if (ctx_.replica_hosts[r] == host) {
      return r;
    }
  }
  return kNoNode;
}

void ReplicaBase::OnMessage(uint32_t from, const MessageRef& msg) {
  host().ChargeCpu(ctx_.platform->costs().per_msg_handling);

  if (auto submit = std::dynamic_pointer_cast<const ClientSubmitMsg>(msg)) {
    ChargeHashBytes(submit->WireSize());
    mempool_.AddBatch(submit->txs);
    return;
  }
  // Application traffic (KV reads, lease control) is consumed before protocol dispatch;
  // the sink ignores consensus message types.
  if (ctx_.app != nullptr && ctx_.app->OnAppMessage(id(), from, msg)) {
    return;
  }
  // Protocol handlers and block sync see replica indices, not host ids.
  const NodeId from_replica = ReplicaOfHost(from);
  if (auto req = std::dynamic_pointer_cast<const BlockFetchRequest>(msg)) {
    if (from_replica != kNoNode) {
      HandleFetchRequest(from_replica, *req);
    }
    return;
  }
  if (auto resp = std::dynamic_pointer_cast<const BlockFetchResponse>(msg)) {
    HandleFetchResponse(*resp);
    return;
  }
  if (from_replica != kNoNode) {
    HandleMessage(from_replica, msg);
  }
}

void ReplicaBase::BroadcastToReplicas(const MessageRef& msg, bool include_self) {
  for (uint32_t r = 0; r < ctx_.params.n; ++r) {
    if (!include_self && r == id()) {
      continue;
    }
    ctx_.net->Send(HostOf(id()), HostOf(r), msg);
  }
}

void ReplicaBase::ChargeExecute(size_t tx_count) {
  host().ChargeCpu(static_cast<SimDuration>(tx_count) * ctx_.platform->costs().per_tx_execute);
}

void ReplicaBase::ChargeVerifyPlain(size_t count) {
  host().ChargeCpuAs(obs::Component::kCrypto,
                     static_cast<SimDuration>(count) * ctx_.platform->costs().verify);
}

void ReplicaBase::ChargeVerifyBatch(size_t count) {
  host().ChargeCpuAs(obs::Component::kCrypto,
                     ctx_.platform->costs().BatchVerifyCost(count));
}

void ReplicaBase::ChargeSignPlain() {
  host().ChargeCpuAs(obs::Component::kCrypto, ctx_.platform->costs().sign);
}

void ReplicaBase::SignPlain(SignedCert& cert, const char* domain) {
  ChargeSignPlain();
  const Bytes digest = cert.Digest(domain);
  cert.sig = platform().suite().Sign(id(), ByteView(digest.data(), digest.size()));
}

bool ReplicaBase::VerifyPlain(const SignedCert& cert, const char* domain) {
  ChargeVerifyPlain(1);
  const Bytes digest = cert.Digest(domain);
  return platform().suite().Verify(cert.sig, ByteView(digest.data(), digest.size()));
}

void ReplicaBase::MarkProposed(const BlockPtr& block) {
  tracker().OnPropose(id(), block);
  host().RestartPathAt(block->propose_time);
  JournalEvent(obs::JournalKind::kPropose, block->height, block->view);
}

void ReplicaBase::JournalEvent(obs::JournalKind kind, uint64_t a, uint64_t b,
                               std::string_view detail) {
  host().JournalEvent(kind, a, b, detail);
}

uint64_t ReplicaBase::JournalHash(const Hash256& hash) {
  uint64_t h = 0;
  for (size_t i = 0; i < 8; ++i) {
    h = (h << 8) | hash[i];
  }
  return h;
}

namespace {
// Quorum-instance key: replica x phase tag x instance (height or block-hash prefix).
// Replica and tag fold into the top bits so instances never collide across collectors.
uint64_t CritKey(NodeId node, uint32_t tag, uint64_t instance) {
  return (static_cast<uint64_t>(node) << 48) ^ (static_cast<uint64_t>(tag) << 40) ^
         instance;
}
}  // namespace

void ReplicaBase::CritNote(uint32_t tag, uint64_t instance) {
  if (obs::Recorder* recorder = host().recorder()) {
    recorder->QuorumNote(CritKey(id(), tag, instance), host().cause(), LocalNow());
  }
}

void ReplicaBase::CritJoin(uint32_t tag, uint64_t instance) {
  if (obs::Recorder* recorder = host().recorder()) {
    recorder->QuorumJoin(CritKey(id(), tag, instance), host().cause(), LocalNow());
  }
}

namespace {
// Retention below the committed prefix: enough to serve lagging peers' fetches, small
// enough to keep long runs memory-stable.
constexpr Height kPruneWindow = 128;
}  // namespace

bool ReplicaBase::CommitChain(const BlockPtr& block, size_t cert_wire_size) {
  ACHILLES_CHECK(block != nullptr);
  if (block->height <= last_committed_height_) {
    return true;  // Already covered by the committed prefix.
  }
  // Chained commit rule: committing a block commits every uncommitted ancestor first.
  const std::vector<BlockPtr> path = store_.PathBetween(last_committed_hash_, block->hash);
  if (path.empty()) {
    // The chain between the committed prefix and the certified block is unavailable
    // (recovered checkpoint or peers pruned the gap): state-transfer to the block.
    AdoptCheckpoint(block, cert_wire_size);
    return true;
  }
  for (const BlockPtr& b : path) {
    ChargeExecute(b->txs.size());
    mempool_.MarkCommitted(b->txs);
    last_committed_height_ = b->height;
    last_committed_hash_ = b->hash;
    tracker().OnCommit(id(), b, LocalNow());
    JournalEvent(obs::JournalKind::kCommit, b->height, JournalHash(b->hash));
    if (client_replies_enabled_) {
      for (uint32_t client : ctx_.client_ids) {
        auto reply = std::make_shared<ClientReplyMsg>();
        reply->block = b;
        reply->cert_wire_size = cert_wire_size;
        SendTo(client, reply);
      }
    }
  }
  if (last_committed_height_ > kPruneWindow &&
      last_committed_height_ % (kPruneWindow / 2) == 0) {
    store_.PruneBelow(last_committed_height_ - kPruneWindow);
  }
  return true;
}

void ReplicaBase::AdoptCheckpoint(const BlockPtr& block, size_t cert_wire_size) {
  ACHILLES_CHECK(block != nullptr);
  if (block->height <= last_committed_height_) {
    return;
  }
  store_.Add(block);
  mempool_.MarkCommitted(block->txs);
  last_committed_height_ = block->height;
  last_committed_hash_ = block->hash;
  tracker().OnCommit(id(), block, LocalNow());
  JournalEvent(obs::JournalKind::kCheckpoint, block->height, JournalHash(block->hash));
  if (client_replies_enabled_) {
    for (uint32_t client : ctx_.client_ids) {
      auto reply = std::make_shared<ClientReplyMsg>();
      reply->block = block;
      reply->cert_wire_size = cert_wire_size;
      SendTo(client, reply);
    }
  }
}

persist::Store& ReplicaBase::CheckpointCertStore() {
  // The local backend's store() is the historical dispatch (sealed in a TEE, host record
  // store otherwise); the quorum backends route the certificate through the defended
  // Persist/Open path, so the checkpoint floor inherits their freshness guarantee.
  return enclave_->defense().store();
}

storage::WriteAheadLog& ReplicaBase::Wal(const std::string& name) {
  return ctx_.platform->host_storage().Wal(name);
}

persist::Store& ReplicaBase::HostRecords() {
  return ctx_.platform->host_storage().record_store();
}

BlockPtr ReplicaBase::RestoreStableCheckpoint() {
  if (!ctx_.ckpt.enabled) {
    return nullptr;
  }
  // The sealed certificate is the local rollback-detection floor, independent of whether
  // the (much larger) host snapshot survived.
  std::optional<checkpoint::CheckpointCert> sealed_cert;
  if (std::optional<Bytes> cert_wire = CheckpointCertStore().Get(checkpoint::kCertKey)) {
    sealed_cert =
        checkpoint::CheckpointCert::Decode(ByteView(cert_wire->data(), cert_wire->size()));
  }
  if (sealed_cert) {
    ckpt_floor_ = sealed_cert->height;
    last_persisted_ckpt_ = sealed_cert->height;
  }
  std::optional<Bytes> payload = HostRecords().Get(checkpoint::kSnapshotKey);
  if (!payload) {
    return nullptr;  // No snapshot (never checkpointed, or erased): network transfer.
  }
  checkpoint::CheckpointCert cert;
  BlockPtr block;
  if (!checkpoint::DecodeSnapshotRecord(ByteView(payload->data(), payload->size()), &cert,
                                        &block) ||
      block->hash != cert.block_hash || checkpoint::CheckpointDigest(*block) != cert.digest) {
    JournalEvent(obs::JournalKind::kRollbackReject, 0, ckpt_floor_, "ckpt/corrupt-snapshot");
    return nullptr;
  }
  // Freshness: the snapshot must match the sealed certificate exactly. A rolled-back or
  // erased certificate under a newer snapshot — or a resurrected old snapshot under an
  // intact certificate — is detected here like any other stale sealed blob.
  if (!sealed_cert || sealed_cert->height != cert.height ||
      sealed_cert->digest != cert.digest) {
    JournalEvent(obs::JournalKind::kRollbackReject, cert.height, ckpt_floor_,
                 "ckpt/stale-snapshot");
    return nullptr;
  }
  store_.Add(block);
  last_committed_height_ = block->height;
  last_committed_hash_ = block->hash;
  return block;
}

void ReplicaBase::PersistStableCheckpoint(const checkpoint::CheckpointCert& cert,
                                          const BlockPtr& block) {
  ACHILLES_CHECK(block != nullptr);
  if (!ctx_.ckpt.enabled || cert.height <= last_persisted_ckpt_) {
    return;
  }
  last_persisted_ckpt_ = cert.height;
  ckpt_floor_ = std::max(ckpt_floor_, cert.height);
  const Bytes payload = checkpoint::EncodeSnapshotRecord(cert, *block);
  ChargeHashBytes(payload.size());
  // Snapshot payload: host-durable (the record-store put is a sync put — one fsync).
  HostRecords().Put(checkpoint::kSnapshotKey, ByteView(payload.data(), payload.size()));
  // Certificate: TEE-sealed where available, so snapshot rollback is detectable on reboot.
  const Bytes cert_wire = cert.Encode();
  CheckpointCertStore().Put(checkpoint::kCertKey, ByteView(cert_wire.data(), cert_wire.size()));
  JournalEvent(obs::JournalKind::kCheckpointStable, cert.height, cert.sigs.size());
  // Truncate the in-memory block store behind the stable checkpoint, keeping the catch-up
  // slack: peers fewer than kCatchupIntervals * interval blocks behind still backfill via
  // block fetch, anything deeper goes through snapshot transfer instead.
  const Height slack = ctx_.ckpt.CatchupSlack();
  if (cert.height > slack) {
    store_.PruneBelow(cert.height - slack);
  }
  if (block_log_) {
    block_log_->CompactThrough(cert.height);
  }
}

void ReplicaBase::AdoptStateTransfer(const BlockPtr& block, size_t cert_wire_size,
                                     bool allow_regress) {
  ACHILLES_CHECK(block != nullptr);
  if (block->height <= last_committed_height_) {
    if (!allow_regress) {
      return;
    }
    // Broken self-test path (--broken stale-snapshot-accept): install a stale snapshot OVER
    // a fresher committed prefix — the regression the honest floor/height checks forbid.
    store_.Add(block);
    last_committed_height_ = block->height;
    last_committed_hash_ = block->hash;
    JournalEvent(obs::JournalKind::kSnapshotFetch, block->height, JournalHash(block->hash),
                 "adopt-stale");
    OnCheckpointAdopted(block);
    return;
  }
  AdoptCheckpoint(block, cert_wire_size);
  ckpt_floor_ = std::max(ckpt_floor_, block->height);
  OnCheckpointAdopted(block);
}

bool ReplicaBase::EnsureAncestry(const Hash256& target, NodeId peer) {
  BlockPtr cur = store_.Get(target);
  if (cur == nullptr) {
    RequestBlock(peer, target);
    return false;
  }
  while (cur->height > last_committed_height_ && cur->hash != last_committed_hash_) {
    BlockPtr parent = store_.Get(cur->parent);
    if (parent == nullptr) {
      RequestBlock(peer, cur->parent);
      return false;
    }
    cur = parent;
  }
  return true;
}

namespace {
// Pacemaker back-off: the view timeout grows by this factor per consecutive timeout, up to
// kMaxViewTimeout.
constexpr double kTimeoutMultiplier = 2.0;
constexpr SimDuration kMaxViewTimeout = Sec(30);
}  // namespace

bool ReplicaBase::EnterView(View v) {
  if (v <= view_) {
    return false;
  }
  view_ = v;
  JournalEvent(obs::JournalKind::kViewEnter, view_);
  return true;
}

void ReplicaBase::NoteProgress(View v) {
  EnterView(v);
  ResetBackoff();
  ArmViewTimer();
}

void ReplicaBase::ArmTimer(uint32_t doublings) {
  if (view_timer_armed_) {
    host().CancelTimer(view_timer_);
  }
  double factor = 1.0;
  for (uint32_t i = 0; i < doublings && factor < 1e6; ++i) {
    factor *= kTimeoutMultiplier;
  }
  const SimDuration timeout = std::min<SimDuration>(
      kMaxViewTimeout,
      static_cast<SimDuration>(static_cast<double>(ctx_.params.base_timeout) * factor));
  view_timer_armed_ = true;
  view_timer_ = host().SetTimer(timeout, [this, armed = view_] {
    view_timer_armed_ = false;
    OnViewTimeout(armed);
  });
}

void ReplicaBase::RequestBlock(NodeId from_peer, const Hash256& want) {
  auto req = std::make_shared<BlockFetchRequest>();
  req->want = want;
  SendTo(from_peer, req);
}

bool ReplicaBase::AcceptBlock(const BlockPtr& block) {
  if (block == nullptr) {
    return false;
  }
  if (store_.Has(block->hash)) {
    return true;
  }
  const BlockPtr parent = store_.Get(block->parent);
  if (parent != nullptr) {
    ChargeHashBytes(block->WireSize());
    if (!block->ValidUnder(parent->exec_result)) {
      return false;
    }
  }
  // Parent unknown: store provisionally; ancestry checks gate any use, and a later
  // ValidUnder runs when the parent arrives via sync.
  store_.Add(block);
  return true;
}

void ReplicaBase::HandleFetchRequest(NodeId from, const BlockFetchRequest& req) {
  BlockPtr cur = store_.Get(req.want);
  auto resp = std::make_shared<BlockFetchResponse>();
  // Serve the requested block plus up to a bounded window of ancestors (the requester will
  // re-request if its gap is deeper).
  constexpr size_t kMaxBlocksPerResponse = 32;
  while (cur != nullptr && resp->blocks.size() < kMaxBlocksPerResponse) {
    resp->blocks.push_back(cur);
    if (cur->height == 0) {
      break;
    }
    cur = store_.Get(cur->parent);
  }
  std::reverse(resp->blocks.begin(), resp->blocks.end());
  if (!resp->blocks.empty()) {
    SendTo(from, resp);
  }
}

void ReplicaBase::HandleFetchResponse(const BlockFetchResponse& resp) {
  bool added = false;
  for (const BlockPtr& b : resp.blocks) {
    if (!store_.Has(b->hash)) {
      added |= AcceptBlock(b);
    }
  }
  if (added) {
    OnBlocksSynced();
  }
}

}  // namespace achilles
