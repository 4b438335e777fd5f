#include "src/consensus/checker_core.h"

#include <algorithm>

#include "src/common/serde.h"

namespace achilles {

std::optional<AccumulatorCert> Accumulate(EnclaveRuntime* enclave, uint32_t f, View vi,
                                          const std::vector<SignedCert>& view_certs,
                                          const char* new_view_domain,
                                          const char* acc_domain) {
  if (view_certs.size() < static_cast<size_t>(f) + 1) {
    return std::nullopt;
  }
  enclave->ChargeVerifyBatch(view_certs.size());
  std::vector<NodeId> ids;
  const SignedCert* best = nullptr;
  for (const SignedCert& cert : view_certs) {
    if (cert.aux != vi) {
      return std::nullopt;  // Every certificate must be for the current view.
    }
    const Bytes digest = cert.Digest(new_view_domain);
    if (!enclave->Verify(cert.sig, ByteView(digest.data(), digest.size()))) {
      return std::nullopt;
    }
    for (NodeId seen : ids) {
      if (seen == cert.sig.signer) {
        return std::nullopt;  // Distinct signers required.
      }
    }
    ids.push_back(cert.sig.signer);
    if (best == nullptr || cert.view > best->view) {
      best = &cert;
    }
  }
  AccumulatorCert acc;
  acc.hash = best->hash;
  acc.block_view = best->view;
  acc.current_view = vi;
  acc.ids = std::move(ids);
  enclave->ChargeSign();
  const Bytes digest = acc.Digest(acc_domain);
  acc.sig = enclave->Sign(ByteView(digest.data(), digest.size()));
  return acc;
}

SealedVoteChecker::SealedVoteChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f,
                                     const char* seal_slot, const ChainedDomains& domains,
                                     bool restored)
    : enclave_(enclave), n_(n), f_(f), seal_slot_(seal_slot), domains_(domains) {
  preph_ = Block::Genesis()->hash;
  if (!restored) {
    PersistState();
  }
}

std::unique_ptr<SealedVoteChecker> SealedVoteChecker::Restore(EnclaveRuntime* enclave,
                                                              uint32_t n, uint32_t f,
                                                              const char* seal_slot,
                                                              const ChainedDomains& domains,
                                                              bool break_restore_verify) {
  std::unique_ptr<SealedVoteChecker> checker(
      new SealedVoteChecker(enclave, n, f, seal_slot, domains, /*restored=*/true));
  if (!checker->LoadSealed(break_restore_verify)) {
    return nullptr;
  }
  return checker;
}

bool SealedVoteChecker::LoadSealed(bool break_restore_verify) {
  enclave_->ChargeEcall();
  // The defense backend serves the surviving record with its freshness verdict: counter
  // compare under the local backend, peer copies/certificates under the quorum ones.
  persist::OpenResult opened = enclave_->defense().Open(seal_slot_, !break_restore_verify);
  if (opened.status == persist::OpenStatus::kRolledBack) {
    // Rollback detected (stale version vs the backend's proven floor) -> refuse to run.
    enclave_->platform().host().JournalEvent(obs::JournalKind::kRollbackReject,
                                             opened.version, opened.expected_version,
                                             seal_slot_);
    return false;
  }
  if (!opened.record) {
    return false;  // Nothing to restore (or forged blob).
  }
  ByteReader r(ByteView(opened.record->data(), opened.record->size()));
  const auto vi = r.U64();
  const auto flags = r.U8();
  const auto prepv = r.U64();
  const auto preph = r.Raw(32);
  if (!vi || !flags || !prepv || !preph || r.remaining() != 0) {
    return false;
  }
  vi_ = *vi;
  flag_ = (*flags & 1) != 0;
  voted1_ = (*flags & 2) != 0;
  voted2_ = (*flags & 4) != 0;
  prepv_ = *prepv;
  std::copy(preph->begin(), preph->end(), preph_.begin());
  version_ = opened.version;
  return true;
}

void SealedVoteChecker::PersistState() {
  ByteWriter w;
  w.U64(vi_);
  w.U8(static_cast<uint8_t>((flag_ ? 1 : 0) | (voted1_ ? 2 : 0) | (voted2_ ? 4 : 0)));
  w.U64(prepv_);
  w.Raw(ByteView(preph_.data(), preph_.size()));
  // The backend assigns the version, appends it to the sealed blob, and pays the defense
  // cost: the counter write in -R (the 20-97 ms critical-path stall), the peer-quorum
  // round trip under rollbaccine/healer.
  version_ = enclave_->defense().Persist(seal_slot_,
                                         ByteView(w.bytes().data(), w.bytes().size()));
}

void SealedVoteChecker::AdvanceTo(View v) {
  if (v > vi_) {
    vi_ = v;
    flag_ = false;
    voted1_ = false;
    voted2_ = false;
  }
}

SignedCert SealedVoteChecker::SignTuple(const char* domain, const Hash256& hash, View view,
                                        uint64_t aux) {
  SignedCert cert;
  cert.hash = hash;
  cert.view = view;
  cert.aux = aux;
  enclave_->ChargeSign();
  const Bytes digest = cert.Digest(domain);
  cert.sig = enclave_->Sign(ByteView(digest.data(), digest.size()));
  return cert;
}

std::optional<SignedCert> SealedVoteChecker::PrepareFromAcc(const Block& b,
                                                            const AccumulatorCert& acc) {
  enclave_->ChargeEcall();
  if (acc.current_view != vi_ || flag_ ||
      acc.sig.signer != enclave_->platform().node_id()) {
    return std::nullopt;
  }
  enclave_->ChargeVerify(1);
  const Bytes digest = acc.Digest(domains_.acc);
  if (!enclave_->Verify(acc.sig, ByteView(digest.data(), digest.size())) ||
      b.parent != acc.hash || b.view != vi_) {
    return std::nullopt;
  }
  flag_ = true;
  PersistState();
  return SignTuple(domains_.prep, b.hash, vi_);
}

std::optional<SignedCert> SealedVoteChecker::PrepareFromCommit(const Block& b,
                                                               const QuorumCert& commit_qc,
                                                               uint64_t aux) {
  enclave_->ChargeEcall();
  const View new_view = commit_qc.view + 1;
  if (new_view < vi_ || (new_view == vi_ && flag_)) {
    return std::nullopt;
  }
  enclave_->ChargeVerifyBatch(commit_qc.sigs.size());
  if (!commit_qc.Verify(enclave_->platform().suite(), domains_.commit,
                        static_cast<size_t>(f_) + 1) ||
      b.parent != commit_qc.hash || b.view != new_view) {
    return std::nullopt;
  }
  AdvanceTo(new_view);
  flag_ = true;
  PersistState();
  return SignTuple(domains_.prep, b.hash, vi_, aux);
}

std::optional<SignedCert> SealedVoteChecker::VoteFirst(const SignedCert& prep_cert) {
  enclave_->ChargeEcall();
  const View v = prep_cert.view;
  if (v < vi_ || (v == vi_ && voted1_) || prep_cert.sig.signer != LeaderOfView(v, n_)) {
    return std::nullopt;
  }
  enclave_->ChargeVerify(1);
  const Bytes digest = prep_cert.Digest(domains_.prep);
  if (!enclave_->Verify(prep_cert.sig, ByteView(digest.data(), digest.size()))) {
    return std::nullopt;
  }
  AdvanceTo(v);
  voted1_ = true;
  PersistState();
  return SignTuple(domains_.vote1, prep_cert.hash, v);
}

std::optional<SignedCert> SealedVoteChecker::StorePrepared(const QuorumCert& prepared_qc) {
  enclave_->ChargeEcall();
  const View v = prepared_qc.view;
  if (v < vi_ || (v == vi_ && voted2_)) {
    return std::nullopt;
  }
  enclave_->ChargeVerifyBatch(prepared_qc.sigs.size());
  if (!prepared_qc.Verify(enclave_->platform().suite(), domains_.vote1,
                          static_cast<size_t>(f_) + 1)) {
    return std::nullopt;
  }
  AdvanceTo(v);
  voted2_ = true;
  prepv_ = v;
  preph_ = prepared_qc.hash;
  PersistState();
  return SignTuple(domains_.commit, prepared_qc.hash, v);
}

std::optional<SignedCert> SealedVoteChecker::StoreFast(const SignedCert& prep_cert) {
  enclave_->ChargeEcall();
  const View v = prep_cert.view;
  if (v < vi_ || (v == vi_ && voted2_) || prep_cert.aux != 1 ||
      prep_cert.sig.signer != LeaderOfView(v, n_)) {
    return std::nullopt;
  }
  enclave_->ChargeVerify(1);
  const Bytes digest = prep_cert.Digest(domains_.prep);
  if (!enclave_->Verify(prep_cert.sig, ByteView(digest.data(), digest.size()))) {
    return std::nullopt;
  }
  AdvanceTo(v);
  voted1_ = true;
  voted2_ = true;
  prepv_ = v;
  preph_ = prep_cert.hash;
  PersistState();
  return SignTuple(domains_.commit, prep_cert.hash, v);
}

std::optional<SignedCert> SealedVoteChecker::NewView(View target) {
  enclave_->ChargeEcall();
  if (target <= vi_) {
    return std::nullopt;
  }
  AdvanceTo(target);
  PersistState();
  return SignTuple(domains_.new_view, preph_, prepv_, /*aux=*/target);
}

std::optional<AccumulatorCert> SealedVoteChecker::Accum(
    const std::vector<SignedCert>& view_certs) {
  enclave_->ChargeEcall();
  return Accumulate(enclave_, f_, vi_, view_certs, domains_.new_view, domains_.acc);
}

}  // namespace achilles
