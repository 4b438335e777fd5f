#include "src/consensus/block_log.h"

#include <algorithm>

namespace achilles {

bool BlockLog::Append(const Block& block, storage::SyncMode mode) {
  if (block.height <= compacted_ || !logged_.insert(block.hash).second) {
    return false;
  }
  const Bytes record = EncodeBlockRecord(block);
  wal_->Append(ByteView(record.data(), record.size()), mode);
  return true;
}

std::vector<BlockPtr> BlockLog::Replay(Height floor, BlockStore& store, Height ceiling) {
  std::vector<BlockPtr> replayed;
  for (const Bytes& record : wal_->records()) {
    const BlockPtr block = DecodeBlockRecord(ByteView(record.data(), record.size()));
    if (block == nullptr) {
      break;  // Torn record: nothing after it was durable.
    }
    logged_.insert(block->hash);
    if (block->height > floor && block->height < ceiling) {
      store.Add(block);
      replayed.push_back(block);
    }
  }
  return replayed;
}

void BlockLog::CompactThrough(Height height) {
  size_t drop = 0;
  for (const Bytes& record : wal_->records()) {
    const BlockPtr block = DecodeBlockRecord(ByteView(record.data(), record.size()));
    if (block != nullptr) {
      if (block->height > height) {
        break;
      }
      logged_.erase(block->hash);
    }
    ++drop;
  }
  wal_->TruncateFront(drop);
  compacted_ = std::max(compacted_, height);
}

}  // namespace achilles
