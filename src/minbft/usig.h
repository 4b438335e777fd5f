// MinBFT's USIG (Unique Sequential Identifier Generator, Veronese et al. 2013): the
// minimal trusted component — a monotonic counter bound to a signature. Every certified
// message carries the next counter value; receivers enforce gapless sequences per sender,
// which prevents equivocation *and* serializes the sender's certified messages (the
// "lack of parallelism" issue discussed in the Achilles paper §6.1).
//
// Because the counter value itself is the anti-equivocation state, MinBFT cannot defer
// rollback prevention: every CreateUi is a persistent counter write by construction.
#ifndef SRC_MINBFT_USIG_H_
#define SRC_MINBFT_USIG_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "src/consensus/certificates.h"
#include "src/consensus/types.h"
#include "src/tee/enclave.h"

namespace achilles {

inline constexpr const char* kUsigDomain = "minbft/UI";

// A unique identifier: ⟨digest, counter⟩ signed by the node's TEE.
struct UniqueIdentifier {
  Hash256 digest = ZeroHash();
  uint64_t counter = 0;
  Signature sig;

  size_t WireSize() const { return 32 + 8 + sig.WireSize(); }
};

class Usig {
 public:
  explicit Usig(EnclaveRuntime* enclave) : enclave_(enclave) {}

  // Certifies `digest` with the next counter value. Writes the persistent counter.
  UniqueIdentifier CreateUi(const Hash256& digest);

  // Reboot path: fast-forwards the in-enclave mirror to the persisted counter value (the
  // device itself survives the crash). Never moves backwards, so a stale host-side record
  // cannot make the USIG reissue an identifier.
  void ResumeFrom(uint64_t counter) { counter_ = std::max(counter_, counter); }

  // Verifies a UI's signature (trusted code path; gapless-ness is checked by the receiver
  // against its per-sender expectations).
  bool VerifyUi(const UniqueIdentifier& ui, const Hash256& digest) const;

  uint64_t counter() const { return counter_; }

 private:
  EnclaveRuntime* enclave_;
  uint64_t counter_ = 0;
};

// Receiver-side bookkeeping. Strict mode accepts each sender's UIs gaplessly (MinBFT's
// original rule, which also detects message suppression); monotonic mode only requires
// strictly increasing counters — still equivocation-free (no two messages can share a
// counter) and more robust across view changes, which is what the replica uses.
class UsigVerifier {
 public:
  explicit UsigVerifier(uint32_t n) : last_seen_(n, 0) {}

  // True iff `ui` is the next expected counter from `sender` (and records it).
  bool AcceptNext(NodeId sender, const UniqueIdentifier& ui);
  // True iff `ui`'s counter is beyond everything seen from `sender` (and records it).
  bool AcceptMonotonic(NodeId sender, const UniqueIdentifier& ui);

 private:
  std::vector<uint64_t> last_seen_;
};

}  // namespace achilles

#endif  // SRC_MINBFT_USIG_H_
