#include "src/achilles/checker.h"

#include <algorithm>

#include "src/common/serde.h"
#include "src/consensus/checker_core.h"

namespace achilles {

namespace {
constexpr const char* kSealSlot = "achilles-checker";

// True under a quorum rollback-defense backend (--defense rollbaccine/healer).
bool QuorumDefended(EnclaveRuntime* enclave) {
  return enclave->platform().defense_kind() != persist::DefenseKind::kLocal;
}
}  // namespace

std::string AchRpyDomain(NodeId requester) {
  return std::string("achilles/RPY/") + std::to_string(requester);
}

AchillesChecker::AchillesChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f,
                                 bool initial_launch, bool break_nonce_check)
    : enclave_(enclave),
      n_(n),
      f_(f),
      recovering_(!initial_launch),
      break_nonce_check_(break_nonce_check) {
  preph_ = Block::Genesis()->hash;  // (prepv, preph) = (0, H(G)), Algorithm 2 line 3.
  if (!initial_launch && QuorumDefended(enclave_)) {
    // Racing Achilles against a storage-level defense: with a quorum backend the checker
    // state is persisted like the counter-based checkers', so on reboot we first try a
    // storage restore. A fresh record skips Algorithm 3 entirely (the backend IS the
    // rollback defense); a detected rollback falls back to network recovery, carrying the
    // version floor forward so the chaos version-monotonic oracle stays sound.
    enclave_->ChargeEcall();
    persist::OpenResult opened = enclave_->defense().Open(kSealSlot, /*verify=*/true);
    switch (opened.status) {
      case persist::OpenStatus::kFresh: {
        if (!opened.record) {
          break;
        }
        ByteReader r(ByteView(opened.record->data(), opened.record->size()));
        const auto vi = r.U64();
        const auto flag = r.U8();
        const auto prepv = r.U64();
        const auto preph = r.Raw(32);
        if (!vi || !flag || !prepv || !preph || r.remaining() != 0) {
          break;  // Forged/garbled record: stay recovering, Algorithm 3 takes over.
        }
        vi_ = *vi;
        flag_ = (*flag & 1) != 0;
        prepv_ = *prepv;
        std::copy(preph->begin(), preph->end(), preph_.begin());
        version_ = opened.version;
        recovering_ = false;
        break;
      }
      case persist::OpenStatus::kRolledBack:
        enclave_->platform().host().JournalEvent(obs::JournalKind::kRollbackReject,
                                                 opened.version, opened.expected_version,
                                                 kSealSlot);
        version_ = std::max(opened.version, opened.expected_version);
        break;  // Stale storage: recover over the network (Algorithm 3).
      case persist::OpenStatus::kEmpty:
        break;  // Nothing persisted yet: recover over the network.
    }
  }
}

void AchillesChecker::RecordStateUpdate() {
  // Under the local backend Achilles persists nothing and relies on Algorithm 3 recovery.
  // Under a quorum defense (--defense rollbaccine/healer) the snapshot the counter-based
  // checkers seal rides the backend instead, racing storage-level rollback defenses
  // against the paper's network recovery.
  if (QuorumDefended(enclave_)) {
    ByteWriter w;
    w.U64(vi_);
    w.U8(static_cast<uint8_t>(flag_ ? 1 : 0));
    w.U64(prepv_);
    w.Raw(ByteView(preph_.data(), preph_.size()));
    version_ = enclave_->defense().Persist(kSealSlot,
                                           ByteView(w.bytes().data(), w.bytes().size()));
  }
}

SignedCert AchillesChecker::MakeCert(const char* domain, const Hash256& hash, View view,
                                     uint64_t aux, uint64_t aux2) {
  SignedCert cert;
  cert.hash = hash;
  cert.view = view;
  cert.aux = aux;
  cert.aux2 = aux2;
  enclave_->ChargeSign();
  const Bytes digest = cert.Digest(domain);
  cert.sig = enclave_->Sign(ByteView(digest.data(), digest.size()));
  return cert;
}

std::optional<SignedCert> AchillesChecker::TeePrepare(const Block& b,
                                                      const AccumulatorCert& acc) {
  enclave_->ChargeEcall();
  if (recovering_ || flag_) {
    return std::nullopt;
  }
  // The accumulator must target the current view and must be ours (self-signed by this
  // enclave's key — checker and accumulator share the TEE).
  if (acc.current_view != vi_ || acc.sig.signer != enclave_->platform().node_id()) {
    return std::nullopt;
  }
  enclave_->ChargeVerify(1);
  const Bytes acc_digest = acc.Digest(kAchAcc);
  if (!enclave_->Verify(acc.sig, ByteView(acc_digest.data(), acc_digest.size()))) {
    return std::nullopt;
  }
  if (b.parent != acc.hash || b.view != vi_) {
    return std::nullopt;
  }
  flag_ = true;
  RecordStateUpdate();
  return MakeCert(kAchProp, b.hash, vi_);
}

std::optional<SignedCert> AchillesChecker::TeePrepare(const Block& b,
                                                      const QuorumCert& commit_cert) {
  enclave_->ChargeEcall();
  if (recovering_) {
    return std::nullopt;
  }
  // NEW-VIEW optimization: a commitment certificate for view v lets the leader of view v+1
  // propose immediately. The certificate's view must not be behind the trusted view.
  const View new_view = commit_cert.view + 1;
  if (new_view < vi_ || (new_view == vi_ && flag_)) {
    return std::nullopt;
  }
  enclave_->ChargeVerifyBatch(commit_cert.sigs.size());
  if (!commit_cert.Verify(enclave_->platform().suite(), kAchCommit,
                          static_cast<size_t>(f_) + 1)) {
    return std::nullopt;
  }
  if (b.parent != commit_cert.hash || b.view != new_view) {
    return std::nullopt;
  }
  vi_ = new_view;
  flag_ = true;
  RecordStateUpdate();
  return MakeCert(kAchProp, b.hash, vi_);
}

std::optional<SignedCert> AchillesChecker::TeeStore(const SignedCert& block_cert) {
  enclave_->ChargeEcall();
  if (recovering_) {
    return std::nullopt;
  }
  const View v = block_cert.view;
  if (v < vi_) {
    return std::nullopt;
  }
  // Must be signed by the leader of its view.
  if (block_cert.sig.signer != LeaderOfView(v, n_)) {
    return std::nullopt;
  }
  enclave_->ChargeVerify(1);
  const Bytes digest = block_cert.Digest(kAchProp);
  if (!enclave_->Verify(block_cert.sig, ByteView(digest.data(), digest.size()))) {
    return std::nullopt;
  }
  // Record the latest stored block; when advancing to a later view, the proposal flag
  // resets (a new leader may propose there). Staying in the same view keeps the flag so a
  // leader cannot propose, store its own block, and propose again.
  prepv_ = v;
  preph_ = block_cert.hash;
  if (v > vi_) {
    vi_ = v;
    flag_ = false;
  }
  RecordStateUpdate();
  return MakeCert(kAchCommit, block_cert.hash, v);
}

std::optional<AccumulatorCert> AchillesChecker::TeeAccum(
    const std::vector<SignedCert>& view_certs) {
  enclave_->ChargeEcall();
  if (recovering_) {
    return std::nullopt;
  }
  return Accumulate(enclave_, f_, vi_, view_certs, kAchNewView, kAchAcc);
}

std::optional<SignedCert> AchillesChecker::TeeView(View target) {
  enclave_->ChargeEcall();
  if (recovering_ || target <= vi_) {
    return std::nullopt;
  }
  vi_ = target;
  flag_ = false;
  RecordStateUpdate();
  return MakeCert(kAchNewView, preph_, prepv_, /*aux=*/target);
}

std::optional<SignedCert> AchillesChecker::TeeRequest() {
  enclave_->ChargeEcall();
  if (!recovering_) {
    return std::nullopt;
  }
  expected_nonce_ = enclave_->FreshNonce();
  nonce_armed_ = true;
  return MakeCert(kAchReq, ZeroHash(), 0, /*aux=*/expected_nonce_);
}

std::optional<SignedCert> AchillesChecker::TeeReply(const SignedCert& request,
                                                    NodeId requester) {
  enclave_->ChargeEcall();
  if (recovering_) {
    return std::nullopt;  // A recovering node must not answer recovery requests.
  }
  if (request.sig.signer != requester) {
    return std::nullopt;
  }
  enclave_->ChargeVerify(1);
  const Bytes digest = request.Digest(kAchReq);
  if (!enclave_->Verify(request.sig, ByteView(digest.data(), digest.size()))) {
    return std::nullopt;
  }
  SignedCert reply;
  reply.hash = preph_;
  reply.view = prepv_;
  reply.aux = vi_;
  reply.aux2 = request.aux;  // Echo the nonce.
  enclave_->ChargeSign();
  const Bytes rpy_digest = reply.Digest(AchRpyDomain(requester));
  reply.sig = enclave_->Sign(ByteView(rpy_digest.data(), rpy_digest.size()));
  return reply;
}

std::optional<SignedCert> AchillesChecker::TeeRecover(const SignedCert& leader_reply,
                                                      const std::vector<SignedCert>& replies) {
  enclave_->ChargeEcall();
  if (!recovering_ || !nonce_armed_ || replies.size() < static_cast<size_t>(f_) + 1) {
    return std::nullopt;
  }
  const NodeId self = enclave_->platform().node_id();
  const std::string domain = AchRpyDomain(self);
  enclave_->ChargeVerifyBatch(replies.size());
  std::vector<NodeId> seen;
  bool leader_in_set = false;
  for (const SignedCert& reply : replies) {
    if (!break_nonce_check_ && reply.aux2 != expected_nonce_) {
      return std::nullopt;  // Stale or replayed reply.
    }
    const Bytes digest = reply.Digest(domain);
    if (!enclave_->Verify(reply.sig, ByteView(digest.data(), digest.size()))) {
      return std::nullopt;
    }
    for (NodeId s : seen) {
      if (s == reply.sig.signer) {
        return std::nullopt;
      }
    }
    seen.push_back(reply.sig.signer);
    if (reply.aux > leader_reply.aux) {
      return std::nullopt;  // leader_reply must carry the highest current view.
    }
    if (reply.sig.signer == leader_reply.sig.signer && reply.aux == leader_reply.aux &&
        reply.hash == leader_reply.hash && reply.view == leader_reply.view) {
      leader_in_set = true;
    }
  }
  if (!leader_in_set) {
    return std::nullopt;
  }
  // The highest-view reply must come from that view's leader — otherwise a Byzantine
  // schedule can erase a committed block (the §4.5 five-node attack).
  const View leader_view = leader_reply.aux;
  if (leader_reply.sig.signer != LeaderOfView(leader_view, n_)) {
    return std::nullopt;
  }
  // Jump two views ahead: the node may have sent messages in leader_view and — through the
  // NEW-VIEW optimization — in leader_view + 1 before it crashed, so both are burned.
  vi_ = leader_view + 2;
  flag_ = false;
  prepv_ = leader_reply.view;
  preph_ = leader_reply.hash;
  recovering_ = false;
  nonce_armed_ = false;
  RecordStateUpdate();
  return MakeCert(kAchNewView, preph_, prepv_, /*aux=*/vi_);
}

}  // namespace achilles
