// Achilles' trusted components (paper §4.3, Algorithms 2 and 3): the CHECKER, which binds
// one proposal / one store certificate to each view and remembers the latest stored block
// (prepared or not), and the ACCUMULATOR, which forces a new leader to extend the freshest
// stored block among f+1 NEW-VIEW certificates. Both run inside the (simulated) enclave and
// share state; only the CHECKER state needs recovery after a reboot.
//
// Unlike Damysus-R/OneShot-R, none of these functions touches a persistent counter: state
// freshness after reboot comes from the rollback-resilient recovery (TeeRequest / TeeReply /
// TeeRecover), not from local storage. Under a quorum rollback-defense backend
// (--defense rollbaccine/healer; src/storage/defense.h) the checker additionally persists
// its snapshot through the backend and tries a storage restore on reboot, so the paper's
// network recovery can be raced head-to-head against storage-level defenses.
#ifndef SRC_ACHILLES_CHECKER_H_
#define SRC_ACHILLES_CHECKER_H_

#include <optional>
#include <vector>

#include "src/consensus/certificates.h"
#include "src/consensus/types.h"
#include "src/tee/enclave.h"

namespace achilles {

// Signing domains (certificate kinds).
inline constexpr const char* kAchProp = "achilles/PROP";
// Store certificates; a commitment certificate is f+1 store-certificate signatures over the
// same ⟨COMMIT, h, v⟩ tuple, so it verifies under this same domain.
inline constexpr const char* kAchCommit = "achilles/COMMIT";
inline constexpr const char* kAchNewView = "achilles/NEW-VIEW";
inline constexpr const char* kAchAcc = "achilles/ACC";
inline constexpr const char* kAchReq = "achilles/REQ";
// Recovery replies bind the requester id into the domain: "achilles/RPY/<requester>".
std::string AchRpyDomain(NodeId requester);

// SignedCert field mapping used by this protocol:
//   PROP:      hash = block hash,  view = proposal view.
//   COMMIT:    hash = block hash,  view = block view.
//   NEW-VIEW:  hash = preph,       view = prepv,        aux = current view v'.
//   REQ:       hash = 0,           view = 0,            aux = nonce.
//   RPY:       hash = preph,       view = prepv,        aux = replier's vi,  aux2 = nonce.

class AchillesChecker {
 public:
  // `initial_launch` is true only at the cluster genesis ceremony: the enclave starts
  // active at view 0. Every later (re)boot starts in recovering state and must complete
  // TeeRecover before any other function works. `break_nonce_check` disables the reply
  // freshness check — a deliberately-broken variant that exists solely so the chaos
  // harness can prove its oracles catch the resulting stale-reply recovery.
  AchillesChecker(EnclaveRuntime* enclave, uint32_t n, uint32_t f, bool initial_launch,
                  bool break_nonce_check = false);

  bool recovering() const { return recovering_; }
  View vi() const { return vi_; }
  bool proposed_flag() const { return flag_; }
  View prepv() const { return prepv_; }
  const Hash256& preph() const { return preph_; }
  // Backend-assigned state version; stays 0 under the local backend (volatile store).
  uint64_t version() const { return version_; }

  // --- Normal-case operations (Algorithm 2) ---

  // TEEprepare, accumulator path: certify block `b` extending the block selected by `acc`.
  // Requires flag == 0, acc produced for the current view, and b.parent == acc.hash.
  std::optional<SignedCert> TeePrepare(const Block& b, const AccumulatorCert& acc);

  // TEEprepare, commitment-certificate path (NEW-VIEW optimization): certify block `b`
  // extending the block committed at view `cert.view`; advances vi to cert.view + 1.
  std::optional<SignedCert> TeePrepare(const Block& b, const QuorumCert& commit_cert);

  // TEEstore: validate the leader's block certificate and record (prepv, preph); returns the
  // store certificate. Advancing past the certificate's view resets the proposal flag.
  std::optional<SignedCert> TeeStore(const SignedCert& block_cert);

  // TEEaccum: given >= f+1 NEW-VIEW certificates for the current view, pick the one with the
  // highest stored-block view and attest to it.
  std::optional<AccumulatorCert> TeeAccum(const std::vector<SignedCert>& view_certs);

  // TEEview: jump to `target` (> vi), abandoning all lower views; returns the NEW-VIEW
  // certificate for `target`. (The paper's TEEview does vi++; the jump form is equivalent to
  // calling it repeatedly and keeps the trusted view aligned with the pacemaker.)
  std::optional<SignedCert> TeeView(View target);

  // --- Rollback-resilient recovery (Algorithm 3) ---

  // TEErequest: only callable while recovering; issues a fresh nonce.
  std::optional<SignedCert> TeeRequest();

  // TEEreply: answer a recovering peer; refuses while recovering ourselves.
  std::optional<SignedCert> TeeReply(const SignedCert& request, NodeId requester);

  // TEErecover: install the state from `leader_reply` given f+1 matching replies. The reply
  // with the highest current view must be `leader_reply`, and it must be signed by the
  // leader of that view (the paper's key rule; see the 5-node attack in §4.5). On success
  // the view jumps to leader_view + 2 and the NEW-VIEW certificate for it is returned.
  std::optional<SignedCert> TeeRecover(const SignedCert& leader_reply,
                                       const std::vector<SignedCert>& replies);

 private:
  SignedCert MakeCert(const char* domain, const Hash256& hash, View view, uint64_t aux = 0,
                      uint64_t aux2 = 0);

  // Books one state mutation. Where Damysus-R pays a counter write and a CFT protocol pays
  // an fsync, Achilles persists nothing and relies on Algorithm 3 recovery; only a quorum
  // defense backend gets the snapshot.
  void RecordStateUpdate();

  EnclaveRuntime* enclave_;
  uint32_t n_;
  uint32_t f_;

  bool recovering_;
  View vi_ = 0;
  bool flag_ = false;
  View prepv_ = 0;
  Hash256 preph_;
  uint64_t expected_nonce_ = 0;
  bool nonce_armed_ = false;
  bool break_nonce_check_ = false;  // Broken variant (oracle self-test); see constructor.
  uint64_t version_ = 0;  // Defense-backend version (0 under --defense local).
};

}  // namespace achilles

#endif  // SRC_ACHILLES_CHECKER_H_
