// The durable block log of FlexiBFT (ordered blocks), MinBFT (the message log) and Raft
// (log entries): one host WAL of EncodeBlockRecord records, each block appended once.
// ReplicaBase owns it and compacts it behind every stable checkpoint.
#ifndef SRC_CONSENSUS_BLOCK_LOG_H_
#define SRC_CONSENSUS_BLOCK_LOG_H_

#include <limits>
#include <unordered_set>
#include <vector>

#include "src/consensus/block.h"
#include "src/storage/host_storage.h"

namespace achilles {

class BlockLog {
 public:
  explicit BlockLog(storage::WriteAheadLog* wal) : wal_(wal) {}

  // Appends `block` unless it is in the log already (a re-proposal or re-delivery) or at
  // or below the checkpoint compacted behind. True iff it appended.
  bool Append(const Block& block, storage::SyncMode mode);
  // Reboot: rebuilds the dedup set from the log up to the first torn record, and adds the
  // blocks above `floor` (the restored checkpoint) and below `ceiling` to `store`,
  // returning them in append order.
  std::vector<BlockPtr> Replay(Height floor, BlockStore& store,
                               Height ceiling = std::numeric_limits<Height>::max());
  // Stable checkpoint at `height`: drops the record prefix that ends at the first record
  // above it, so a block appended out of height order (across an epoch or term change)
  // under-truncates and is never dropped, and forgets the dropped hashes.
  void CompactThrough(Height height);

  size_t logged() const { return logged_.size(); }  // Hashes in the dedup set.

 private:
  storage::WriteAheadLog* wal_;
  std::unordered_set<Hash256, Hash256Hasher> logged_;
  Height compacted_ = 0;  // Highest checkpoint compacted behind in this incarnation.
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_BLOCK_LOG_H_
