// Damysus' trusted components (paper Appendix A): a CHECKER tracking the last *prepared*
// block (two voting phases per view) and an ACCUMULATOR for leader parent selection.
//
// Rollback handling goes through the pluggable defense backend (src/storage/defense.h):
// the checker persists its state after every mutation and the backend binds a monotonic
// version to the sealed blob. Under the local backend the version is checked against the
// persistent counter in -R; under the quorum backends (--defense rollbaccine/healer) peer
// replicas vouch for freshness instead. On restart a detected rollback makes the enclave
// refuse to run (crash-stop), except that rollbaccine repairs from the freshest peer copy.
// Without any freshness source (plain Damysus, local backend, no counter), a rolled-back
// seal is accepted silently — the vulnerability the paper's §2.1 describes, demonstrated
// by DamysusTest.PlainDamysusAcceptsRolledBackState (tests/baselines_test.cc).
#ifndef SRC_DAMYSUS_CHECKER_H_
#define SRC_DAMYSUS_CHECKER_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/consensus/checker_core.h"

namespace achilles {

inline constexpr const char* kDamPrep = "damysus/PREP";        // Leader block certificates.
inline constexpr const char* kDamVote1 = "damysus/VOTE1";      // Prepare-phase votes.
inline constexpr const char* kDamVote2 = "damysus/VOTE2";      // Pre-commit votes / commit QC.
inline constexpr const char* kDamNewView = "damysus/NEW-VIEW";
inline constexpr const char* kDamAcc = "damysus/ACC";

class DamysusChecker : public SealedVoteChecker {
 public:
  // Fresh genesis-time checker.
  DamysusChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f)
      : DamysusChecker(enclave, n, f, /*restored=*/false) {}

  // Restores a checker from the defense backend after a reboot. Returns nullptr when the
  // state is unusable: missing/forged seal, or a detected rollback (seal version behind
  // the backend's freshness floor), upon which the replica refuses to participate.
  // `break_restore_verify` skips the freshness check — a deliberately-broken variant used
  // only by the chaos harness to prove its oracles catch the silently-accepted rollback.
  static std::unique_ptr<DamysusChecker> Restore(EnclaveRuntime* enclave, uint32_t n,
                                                 uint32_t f,
                                                 bool break_restore_verify = false);

  // Leader: certify a block for the current view. Justified either by an accumulator over
  // f+1 NEW-VIEW certificates or by a commit QC of the previous view (chained fast path).
  std::optional<SignedCert> TdPrepare(const Block& b, const AccumulatorCert& acc) {
    return PrepareFromAcc(b, acc);
  }
  std::optional<SignedCert> TdPrepare(const Block& b, const QuorumCert& commit_qc) {
    return PrepareFromCommit(b, commit_qc, /*aux=*/0);
  }

  // Backup: first-phase vote on the leader's block certificate.
  std::optional<SignedCert> TdVote(const SignedCert& prep_cert) { return VoteFirst(prep_cert); }

  // Any node: second-phase vote; records the block as prepared. `prepared_qc` combines f+1
  // first-phase votes.
  std::optional<SignedCert> TdStore(const QuorumCert& prepared_qc) {
    return StorePrepared(prepared_qc);
  }

  // Timeout path: jump to `target` view, emitting the NEW-VIEW certificate.
  std::optional<SignedCert> TdNewView(View target) { return NewView(target); }

  // Stateless accumulator over NEW-VIEW certificates for the current view.
  std::optional<AccumulatorCert> TdAccum(const std::vector<SignedCert>& view_certs) {
    return Accum(view_certs);
  }

 private:
  DamysusChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f, bool restored);
};

}  // namespace achilles

#endif  // SRC_DAMYSUS_CHECKER_H_
