#include "src/consensus/mempool.h"

#include <algorithm>
#include <bit>

namespace achilles {

namespace {

constexpr uint64_t kSeqLimit = uint64_t{1} << 32;  // One past the largest seq.

}  // namespace

bool TxIdSet::Insert(uint64_t id) {
  const auto client = static_cast<uint32_t>(id >> 32);
  const uint64_t seq = id & (kSeqLimit - 1);
  auto it = windows_.find(client);
  if (it == windows_.end()) {
    if (seq >= kWindowSeqs) {
      return spill_.Insert(id);
    }
    it = windows_.emplace(client, Window{}).first;
  }
  Window& w = it->second;
  if (seq < w.watermark) {
    return false;
  }
  if (!w.Covers(seq)) {
    return spill_.Insert(id);
  }
  uint64_t& word = w.Word(seq);
  const uint64_t bit = uint64_t{1} << (seq % 64);
  if ((word & bit) != 0) {
    return false;
  }
  // An id spilled before the window reached it moves into the bitmap.
  const bool fresh = !spill_.Erase(id);
  word |= bit;
  if (seq == w.watermark) {
    Advance(client, w);
  }
  return fresh;
}

void TxIdSet::Advance(uint32_t client, Window& w) {
  // Bits below the watermark are always clear, so a run of ones starting at the
  // watermark's bit can be consumed a word at a time.
  for (;;) {
    uint64_t& word = w.Word(w.watermark);
    const uint64_t off = w.watermark % 64;
    const uint64_t run = std::countr_one(word >> off);
    if (run > 0) {
      const uint64_t end = off + run;
      word = end == 64 ? 0 : word & (~uint64_t{0} << end);
      w.watermark += run;
      continue;
    }
    if (w.watermark < kSeqLimit &&
        spill_.Erase(Transaction::MakeId(client, static_cast<uint32_t>(w.watermark)))) {
      ++w.watermark;
      continue;
    }
    return;
  }
}

bool TxIdSet::Contains(uint64_t id) const {
  auto it = windows_.find(static_cast<uint32_t>(id >> 32));
  if (it == windows_.end()) {
    return spill_.Contains(id);
  }
  const Window& w = it->second;
  const uint64_t seq = id & (kSeqLimit - 1);
  return seq < w.watermark || (w.Covers(seq) && w.Bit(seq)) || spill_.Contains(id);
}

void Mempool::Add(const Transaction& tx) {
  if (!known_.Insert(tx.id)) {
    return;
  }
  queue_.push_back(tx);
}

void Mempool::AddBatch(const std::vector<Transaction>& txs) {
  for (const Transaction& tx : txs) {
    Add(tx);
  }
}

std::vector<Transaction> Mempool::TakeBatch(size_t max) {
  std::vector<Transaction> batch;
  batch.reserve(std::min(max, queue_.size()));
  while (batch.size() < max && !queue_.empty()) {
    Transaction tx = queue_.front();
    queue_.pop_front();
    if (committed_.Contains(tx.id)) {
      continue;  // Committed out of queue order (reordering, a rival leader's block).
    }
    batch.push_back(tx);
  }
  return batch;
}

void Mempool::MarkCommitted(const std::vector<Transaction>& txs) {
  for (const Transaction& tx : txs) {
    committed_.Insert(tx.id);
    known_.Insert(tx.id);
  }
  while (!queue_.empty() && committed_.Contains(queue_.front().id)) {
    queue_.pop_front();
  }
}

}  // namespace achilles
