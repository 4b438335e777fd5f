// Achilles' recovery messages (Algorithm 3); its normal-case phases use the chained
// family's shared messages (src/consensus/chained_replica.h).
#ifndef SRC_ACHILLES_MESSAGES_H_
#define SRC_ACHILLES_MESSAGES_H_

#include "src/consensus/certificates.h"
#include "src/sim/process.h"

namespace achilles {

// Recovering node -> all: ⟨REQ, nonce⟩.
struct AchRecoveryRequestMsg : SimMessage {
  const char* TraceName() const override { return "ach_recovery_req"; }
  SignedCert request;

  size_t WireSize() const override { return request.WireSize(); }
};

// Peer -> recovering node: reply certificate plus the latest stored block and its
// certificates (Algorithm 3 step 2).
struct AchRecoveryReplyMsg : SimMessage {
  const char* TraceName() const override { return "ach_recovery_reply"; }
  SignedCert reply;
  BlockPtr block;           // May be genesis.
  SignedCert block_cert;    // φ_b for `block` (may be empty if unknown).
  QuorumCert commit_cert;   // φ_c for `block` (may be empty if not yet committed).
  // State transfer: the replier's latest committed block with its commitment certificate,
  // so the recovering node can adopt a certified checkpoint instead of replaying history.
  BlockPtr committed_block;
  QuorumCert committed_cert;

  size_t WireSize() const override {
    return reply.WireSize() + (block != nullptr ? block->WireSize() : 0) +
           block_cert.WireSize() + commit_cert.WireSize() +
           (committed_block != nullptr ? committed_block->WireSize() : 0) +
           committed_cert.WireSize();
  }
};

}  // namespace achilles

#endif  // SRC_ACHILLES_MESSAGES_H_
