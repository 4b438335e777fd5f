#include "src/oneshot/checker.h"

namespace achilles {

OneShotChecker::OneShotChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f, bool restored)
    : SealedVoteChecker(enclave, n, f, "oneshot-checker",
                        {kOsPrep, kOsVote1, kOsCommit, kOsNewView, kOsAcc}, restored) {}

std::unique_ptr<OneShotChecker> OneShotChecker::Restore(EnclaveRuntime* enclave, uint32_t n,
                                                        uint32_t f,
                                                        bool break_restore_verify) {
  std::unique_ptr<OneShotChecker> checker(new OneShotChecker(enclave, n, f, /*restored=*/true));
  if (!checker->LoadSealed(break_restore_verify)) {
    return nullptr;
  }
  return checker;
}

std::optional<SignedCert> OneShotChecker::ToStoreFast(const SignedCert& prep_cert) {
  enclave_->ChargeEcall();
  const View v = prep_cert.view;
  if (v < vi_ || (v == vi_ && voted2_) || prep_cert.aux != 1 ||
      prep_cert.sig.signer != LeaderOfView(v, n_)) {
    return std::nullopt;
  }
  enclave_->ChargeVerify(1);
  const Bytes digest = prep_cert.Digest(kOsPrep);
  if (!enclave_->Verify(prep_cert.sig, ByteView(digest.data(), digest.size()))) {
    return std::nullopt;
  }
  AdvanceTo(v);
  voted1_ = true;
  voted2_ = true;
  prepv_ = v;
  preph_ = prep_cert.hash;
  PersistState();
  return SignTuple(kOsCommit, prep_cert.hash, v);
}

}  // namespace achilles
