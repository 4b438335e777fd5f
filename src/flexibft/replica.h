// FlexiBFT baseline (Gupta et al., EuroSys'23): n = 3f+1, stable leader whose TEE orders
// blocks through a persistent-counter-protected sequencer (1 counter write per block,
// leader only), votes broadcast all-to-all (O(n^2) messages), commit in one vote round —
// four communication steps end to end. Backups keep no trusted state and may roll back:
// the enlarged 3f+1 quorum is what absorbs that (the tolerance-for-performance trade the
// Achilles paper breaks).
#ifndef SRC_FLEXIBFT_REPLICA_H_
#define SRC_FLEXIBFT_REPLICA_H_

#include "src/consensus/certificates.h"
#include "src/consensus/stable_leader_replica.h"
#include "src/sim/process.h"

namespace achilles {

inline constexpr const char* kFbOrder = "flexibft/ORD";
inline constexpr const char* kFbVote = "flexibft/VOTE";
inline constexpr const char* kFbEpoch = "flexibft/EPOCH";

struct FbProposeMsg : SimMessage {
  const char* TraceName() const override { return "fb_propose"; }
  BlockPtr block;
  SignedCert order_cert;  // ⟨ORD, h, seq, epoch⟩ from the leader's TEE sequencer.
  size_t WireSize() const override { return block->WireSize() + order_cert.WireSize(); }
};

struct FbVoteMsg : SimMessage {
  const char* TraceName() const override { return "fb_vote"; }
  SignedCert vote;  // ⟨VOTE, h, seq, epoch⟩, broadcast to everyone.
  size_t WireSize() const override { return vote.WireSize(); }
};

struct FbEpochChangeMsg : SimMessage {
  const char* TraceName() const override { return "fb_epoch_change"; }
  SignedCert cert;   // ⟨EPOCH, committed_hash, committed_height, new_epoch⟩.
  BlockPtr committed_block;
  size_t WireSize() const override {
    return cert.WireSize() + (committed_block != nullptr ? committed_block->WireSize() : 0);
  }
};

// The leader-side trusted sequencer: one counter write per ordered block. Its (epoch,
// next_seq) frontier is the only FlexiBFT state that must survive a reboot: it goes to the
// host record store with an fsync inside every Order/StartEpoch, together with the counter
// device value at that instant. On reboot, any gap between the device (which counts every
// Order ever issued and cannot be lost) and the persisted mirror means orders happened
// after the record was written, and Restore() skips the sequence frontier past the gap —
// so no (epoch, seq) pair can ever be reissued for a different block, even if the host
// record is stale.
class FlexiSequencer {
 public:
  // `meta` is the host-durable persist::Store the (epoch, next_seq) frontier mirror lives
  // in (every Put is a sync put; the caller's WAL appends ride the same barrier).
  FlexiSequencer(EnclaveRuntime* enclave, persist::Store* meta)
      : enclave_(enclave), meta_(meta) {}

  // Orders `b` at `seq` within `epoch`; enforces gapless monotonic sequencing per epoch.
  std::optional<SignedCert> Order(const Block& b, uint64_t seq, uint64_t epoch);
  // Moves to a new epoch, continuing from `start_seq` (leadership hand-over).
  bool StartEpoch(uint64_t epoch, uint64_t start_seq);
  // Reboot path: reloads the persisted frontier and closes any gap against the counter
  // device. Charges one counter read when the device is enabled.
  void Restore();

  uint64_t epoch() const { return epoch_; }
  uint64_t next_seq() const { return next_seq_; }

 private:
  void PersistState();

  EnclaveRuntime* enclave_;
  persist::Store* meta_;
  uint64_t epoch_ = 0;
  uint64_t next_seq_ = 1;
};

class FlexiBftReplica : public StableLeaderReplica {
 public:
  FlexiBftReplica(const ReplicaContext& ctx, bool initial_launch);

 protected:
  void HandleMessage(NodeId from, const MessageRef& msg) override;
  bool OrderBlock(const BlockPtr& block) override;
  MessageRef MakeEpochChange() override;
  bool AdoptEpoch(View epoch, const BlockPtr& base) override;

 private:
  void OnPropose(NodeId from, const std::shared_ptr<const FbProposeMsg>& msg);
  void OnVote(const FbVoteMsg& msg);
  void OnEpochChange(const FbEpochChangeMsg& msg);

  FlexiSequencer sequencer_;
  // Highest height this replica voted for; a timeout resets it to the committed height.
  uint64_t last_voted_seq_ = 0;
};

}  // namespace achilles

#endif  // SRC_FLEXIBFT_REPLICA_H_
