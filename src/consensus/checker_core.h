// Trusted-side pieces shared by the chained checkers: the ACCUMULATOR routine behind
// Achilles' TEEaccum, Damysus' TdAccum and OneShot's ToAccum, and the sealed vote state
// the two counter-based checkers (Damysus, OneShot) have in common — its restore, persist
// and view advance, the NEW-VIEW certificate, and the leader PREPARE / two-phase vote
// operations both run. Everything here executes inside the (simulated) enclave.
#ifndef SRC_CONSENSUS_CHECKER_CORE_H_
#define SRC_CONSENSUS_CHECKER_CORE_H_

#include <optional>
#include <vector>

#include "src/consensus/certificates.h"
#include "src/consensus/types.h"
#include "src/tee/enclave.h"

namespace achilles {

// ACCUMULATOR: given >= f+1 NEW-VIEW certificates (signed under `new_view_domain`) from
// distinct signers, all for the current view `vi`, attest under `acc_domain` to the one
// with the highest stored-block view. The caller charges the ECALL.
std::optional<AccumulatorCert> Accumulate(EnclaveRuntime* enclave, uint32_t f, View vi,
                                          const std::vector<SignedCert>& view_certs,
                                          const char* new_view_domain, const char* acc_domain);

// Checker state (vi, flag, voted1, voted2, prepv, preph) persisted through the rollback
// defense backend after every mutation; the backend binds a monotonic version to the
// sealed blob (a persistent counter write in -R).
class SealedVoteChecker {
 public:
  View vi() const { return vi_; }
  View prepv() const { return prepv_; }
  const Hash256& preph() const { return preph_; }
  bool proposed_flag() const { return flag_; }
  // Backend-assigned state version; in -R (local backend) this equals the persistent
  // counter after every mutation (the invariant the chaos harness's counter oracle
  // checks); under quorum backends it is the version the peer quorum vouches for.
  uint64_t version() const { return version_; }

 protected:
  // Signing domains of one protocol's certificate kinds.
  struct Domains {
    const char* prep;      // Leader block certificates.
    const char* vote1;     // First-phase votes (prepared QC).
    const char* commit;    // Second-phase votes (commit QC).
    const char* new_view;
    const char* acc;
  };

  // A fresh checker persists its genesis state; a `restored` one waits for LoadSealed.
  SealedVoteChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f, const char* seal_slot,
                    const Domains& domains, bool restored);

  // Reboot path: installs the state the defense backend serves. False when it is
  // unusable — missing/forged seal, or a detected rollback (journaled), upon which the
  // replica refuses to participate. `break_restore_verify` skips the freshness check.
  bool LoadSealed(bool break_restore_verify);
  void PersistState();
  void AdvanceTo(View v);
  SignedCert SignTuple(const char* domain, const Hash256& hash, View view, uint64_t aux = 0);

  // Leader: certify a block for the current view, justified by an accumulator over f+1
  // NEW-VIEW certificates, or by the previous view's commit QC (marked with `aux`).
  std::optional<SignedCert> PrepareFromAcc(const Block& b, const AccumulatorCert& acc);
  std::optional<SignedCert> PrepareFromCommit(const Block& b, const QuorumCert& commit_qc,
                                              uint64_t aux);
  // Backup: first-phase vote on the leader's block certificate.
  std::optional<SignedCert> VoteFirst(const SignedCert& prep_cert);
  // Any node: second-phase vote; records the block as prepared.
  std::optional<SignedCert> StorePrepared(const QuorumCert& prepared_qc);
  // Timeout path: jump to `target`, emitting the NEW-VIEW certificate.
  std::optional<SignedCert> NewView(View target);
  std::optional<AccumulatorCert> Accum(const std::vector<SignedCert>& view_certs);

  EnclaveRuntime* enclave_;
  uint32_t n_;
  uint32_t f_;
  const char* seal_slot_;
  const Domains domains_;

  View vi_ = 0;
  bool flag_ = false;    // Leader proposed in vi.
  bool voted1_ = false;  // First-phase vote cast in vi.
  bool voted2_ = false;  // Second-phase vote (or fast store) cast in vi.
  View prepv_ = 0;
  Hash256 preph_;
  uint64_t version_ = 0;  // Monotonic state version assigned by the defense backend.
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_CHECKER_CORE_H_
