// Trusted-side pieces of the chained family: the ACCUMULATOR routine behind Achilles'
// TEEaccum and the Damysus/OneShot accumulator, and SealedVoteChecker, the one checker the
// two counter-based protocols (Damysus, OneShot) run under their own seal slot and signing
// domains. Everything here executes inside the (simulated) enclave.
#ifndef SRC_CONSENSUS_CHECKER_CORE_H_
#define SRC_CONSENSUS_CHECKER_CORE_H_

#include <memory>
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

// Signing domains of one chained protocol's certificate kinds.
struct ChainedDomains {
  const char* prep;      // Leader block certificates.
  const char* vote1;     // First-phase votes (prepared QC); null in one-phase Achilles.
  const char* commit;    // Commit votes; the commit QC a DECIDE carries verifies under it.
  const char* new_view;
  const char* acc;
};

// The trusted CHECKER of Damysus and OneShot (paper Appendix A): it tracks the last
// *prepared* block, and its state (vi, flag, voted1, voted2, prepv, preph) is persisted
// through the rollback defense backend after every mutation; the backend binds a monotonic
// version to the sealed blob (a persistent counter write in -R). On restart a detected
// rollback makes the enclave refuse to run (crash-stop), except that rollbaccine repairs
// from the freshest peer copy. Without any freshness source (plain Damysus/OneShot, local
// backend, no counter) a rolled-back seal is accepted silently — the vulnerability of the
// paper's §2.1, shown by DamysusTest.PlainDamysusAcceptsRolledBackState.
class SealedVoteChecker {
 public:
  // A fresh genesis-time checker sealing its state under `seal_slot`.
  SealedVoteChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f, const char* seal_slot,
                    const ChainedDomains& domains)
      : SealedVoteChecker(enclave, n, f, seal_slot, domains, /*restored=*/false) {}

  // Restores a checker from the defense backend after a reboot. Returns nullptr when the
  // state is unusable: missing/forged seal, or a detected rollback (seal version behind
  // the backend's freshness floor; journaled), upon which the replica refuses to
  // participate. `break_restore_verify` skips the freshness check — a deliberately-broken
  // variant used only by the chaos harness to prove its oracles catch the silently-accepted
  // rollback.
  static std::unique_ptr<SealedVoteChecker> Restore(EnclaveRuntime* enclave, uint32_t n,
                                                    uint32_t f, const char* seal_slot,
                                                    const ChainedDomains& domains,
                                                    bool break_restore_verify = false);

  View vi() const { return vi_; }
  View prepv() const { return prepv_; }
  const Hash256& preph() const { return preph_; }
  bool proposed_flag() const { return flag_; }
  // Backend-assigned state version; in -R (local backend) this equals the persistent
  // counter after every mutation (the invariant the chaos harness's counter oracle
  // checks); under quorum backends it is the version the peer quorum vouches for.
  uint64_t version() const { return version_; }

  // Leader: certify a block for the current view, justified by an accumulator over f+1
  // NEW-VIEW certificates, or by the previous view's commit QC (chained fast path; `aux`
  // marks the certificate, 1 = OneShot's single-phase fast path).
  std::optional<SignedCert> PrepareFromAcc(const Block& b, const AccumulatorCert& acc);
  std::optional<SignedCert> PrepareFromCommit(const Block& b, const QuorumCert& commit_qc,
                                              uint64_t aux);
  // Backup: first-phase vote on the leader's block certificate.
  std::optional<SignedCert> VoteFirst(const SignedCert& prep_cert);
  // Any node: second-phase vote; records the block as prepared. `prepared_qc` combines
  // f+1 first-phase votes.
  std::optional<SignedCert> StorePrepared(const QuorumCert& prepared_qc);
  // Backup, OneShot's fast path: single-phase store and commit vote on a leader
  // certificate marked aux == 1 (four steps end to end, one counter write per node in -R).
  std::optional<SignedCert> StoreFast(const SignedCert& prep_cert);
  // Timeout path: jump to `target`, emitting the NEW-VIEW certificate.
  std::optional<SignedCert> NewView(View target);
  // Stateless accumulator over NEW-VIEW certificates for the current view.
  std::optional<AccumulatorCert> Accum(const std::vector<SignedCert>& view_certs);

 private:
  // A `restored` checker waits for LoadSealed instead of persisting its genesis state.
  SealedVoteChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f, const char* seal_slot,
                    const ChainedDomains& domains, bool restored);

  // Reboot path: installs the state the defense backend serves; false when it is unusable.
  bool LoadSealed(bool break_restore_verify);
  void PersistState();
  void AdvanceTo(View v);
  SignedCert SignTuple(const char* domain, const Hash256& hash, View view, uint64_t aux = 0);

  EnclaveRuntime* enclave_;
  uint32_t n_;
  uint32_t f_;
  const char* seal_slot_;
  const ChainedDomains domains_;

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
