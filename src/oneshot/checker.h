// OneShot's trusted component: view-adapting. On the piggyback fast path (the leader holds
// the previous view's commit QC) backups store-and-vote in a single phase — four steps end
// to end, one counter write per node in -R. Entering a view through NEW-VIEW certificates
// falls back to Damysus-style two-phase voting — six steps, two writes per node.
#ifndef SRC_ONESHOT_CHECKER_H_
#define SRC_ONESHOT_CHECKER_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/consensus/checker_core.h"

namespace achilles {

inline constexpr const char* kOsPrep = "oneshot/PREP";
inline constexpr const char* kOsVote1 = "oneshot/VOTE1";
inline constexpr const char* kOsCommit = "oneshot/COMMIT";  // Fast store votes AND slow vote2.
inline constexpr const char* kOsNewView = "oneshot/NEW-VIEW";
inline constexpr const char* kOsAcc = "oneshot/ACC";

class OneShotChecker : public SealedVoteChecker {
 public:
  OneShotChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f)
      : OneShotChecker(enclave, n, f, /*restored=*/false) {}

  // Restore-from-backend after reboot (same semantics as DamysusChecker::Restore).
  static std::unique_ptr<OneShotChecker> Restore(EnclaveRuntime* enclave, uint32_t n,
                                                 uint32_t f,
                                                 bool break_restore_verify = false);

  // Leader, fast path: certify a block extending the block committed at commit_qc.view.
  // aux = 1 on the certificate marks the fast path: backups may single-phase store it.
  std::optional<SignedCert> ToPrepareFast(const Block& b, const QuorumCert& commit_qc) {
    return PrepareFromCommit(b, commit_qc, /*aux=*/1);
  }
  // Leader, slow path: certify a block extending the accumulator's selection.
  std::optional<SignedCert> ToPrepareSlow(const Block& b, const AccumulatorCert& acc) {
    return PrepareFromAcc(b, acc);
  }

  // Backup, fast path: single-phase store+vote on the leader's certificate.
  std::optional<SignedCert> ToStoreFast(const SignedCert& prep_cert);

  // Slow path, two phases.
  std::optional<SignedCert> ToVote(const SignedCert& prep_cert) { return VoteFirst(prep_cert); }
  std::optional<SignedCert> ToStoreSlow(const QuorumCert& prepared_qc) {
    return StorePrepared(prepared_qc);
  }

  std::optional<SignedCert> ToNewView(View target) { return NewView(target); }
  std::optional<AccumulatorCert> ToAccum(const std::vector<SignedCert>& view_certs) {
    return Accum(view_certs);
  }

 private:
  OneShotChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f, bool restored);
};

}  // namespace achilles

#endif  // SRC_ONESHOT_CHECKER_H_
