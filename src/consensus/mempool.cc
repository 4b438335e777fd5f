#include "src/consensus/mempool.h"

#include <algorithm>
#include <bit>

namespace achilles {

namespace {

// Calls `fn(begin, end)` for each maximal stretch of `txs` whose ids are consecutive.
template <typename Fn>
void ForEachRun(const std::vector<Transaction>& txs, Fn fn) {
  for (size_t begin = 0, end = 0; begin < txs.size(); begin = end) {
    const uint64_t first = txs[begin].id;
    for (end = begin + 1; end < txs.size() && txs[end].id == first + (end - begin); ++end) {
    }
    fn(begin, end);
  }
}

// Inserts the ids of txs[begin, end), a run, into `set`: in one step when it is in order.
void InsertIds(TxIdSet& set, const std::vector<Transaction>& txs, size_t begin, size_t end) {
  if (end - begin > 1 && set.InsertRun(txs[begin].id, end - begin)) {
    return;
  }
  for (size_t i = begin; i < end; ++i) {
    set.Insert(txs[i].id);
  }
}

}  // namespace

TxIdSet::Window* TxIdSet::Lookup(uint32_t client) const {
  auto it = windows_.find(client);
  if (it == windows_.end()) {
    return nullptr;
  }
  cached_client_ = client;
  cached_ = const_cast<Window*>(&it->second);
  return cached_;
}

bool TxIdSet::InsertSlow(uint64_t id) {
  const auto client = static_cast<uint32_t>(id >> 32);
  const uint64_t seq = id & (kSeqLimit - 1);
  Window* w = Find(client);
  if (w == nullptr) {
    if (seq < kWindowSeqs) {
      w = &OpenWindow(client, 0);
    } else if (spill_.contains(id - 1)) {
      // The second in-sequence id of a client first seen past the window width, as a
      // replica that rebooted mid-run sees every client.
      w = &OpenWindow(client, seq - 1);
    } else {
      return spill_.insert(id).second;
    }
  }
  if (seq < w->floor) {
    return spill_.insert(id).second;
  }
  if (seq < w->watermark) {
    return false;
  }
  if (!w->Covers(seq)) {
    const bool fresh = spill_.insert(id).second;
    w->spilled += fresh ? 1 : 0;
    return fresh;
  }
  uint64_t& word = w->Word(seq);
  const uint64_t bit = uint64_t{1} << (seq % 64);
  if ((word & bit) != 0) {
    return false;
  }
  // An id spilled before the window reached it moves into the bitmap.
  const bool fresh = w->spilled == 0 || spill_.erase(id) == 0;
  w->spilled -= fresh ? 0 : 1;
  word |= bit;
  if (seq == w->watermark) {
    Advance(client, *w);
  }
  return fresh;
}

TxIdSet::Window& TxIdSet::OpenWindow(uint32_t client, uint64_t floor) {
  Window& w = windows_[client];
  w.floor = floor;
  w.watermark = floor;
  for (uint64_t id : spill_) {
    w.spilled += (id >> 32) == client && (id & (kSeqLimit - 1)) >= floor ? 1 : 0;
  }
  Advance(client, w);
  return w;
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
    if (w.spilled != 0 && w.watermark < kSeqLimit &&
        spill_.erase(Transaction::MakeId(client, static_cast<uint32_t>(w.watermark))) != 0) {
      --w.spilled;
      ++w.watermark;
      continue;
    }
    return;
  }
}

bool TxIdSet::InsertRun(uint64_t first, size_t count) {
  Window* w = Find(static_cast<uint32_t>(first >> 32));
  const uint64_t seq = first & (kSeqLimit - 1);
  const uint64_t end = seq + count;  // The new watermark: its bit must be clear as well.
  if (w == nullptr || seq != w->watermark || w->spilled != 0 || end >= kSeqLimit) {
    return false;
  }
  // Members at or above the watermark are set bits, so the run is fresh when the ring
  // bits of [seq, end] are clear. A run longer than the ring wraps onto bits already
  // checked or bits below the watermark, which are clear.
  for (uint64_t s = seq; s <= end; s = (s | 63) + 1) {
    const uint64_t hi = std::min(end, s | 63) % 64;
    if ((w->Word(s) & (~uint64_t{0} << (s % 64)) & (~uint64_t{0} >> (63 - hi))) != 0) {
      return false;
    }
  }
  w->watermark = end;
  return true;
}

bool TxIdSet::ContainsRun(uint64_t first, size_t count) const {
  const Window* w = Find(static_cast<uint32_t>(first >> 32));
  const uint64_t seq = first & (kSeqLimit - 1);
  if (w != nullptr && seq >= w->floor && seq + count <= w->watermark) {
    return true;
  }
  for (size_t i = 0; i < count; ++i) {
    if (!Contains(first + i)) {
      return false;
    }
  }
  return true;
}

void Mempool::Add(const Transaction& tx) {
  if (!known_.Insert(tx.id)) {
    return;
  }
  queue_.push_back(tx);
}

void Mempool::AddBatch(const std::vector<Transaction>& txs) {
  ForEachRun(txs, [&](size_t begin, size_t end) {
    if (end - begin > 1 && known_.InsertRun(txs[begin].id, end - begin)) {
      queue_.insert(queue_.end(), txs.begin() + begin, txs.begin() + end);
      return;
    }
    for (size_t i = begin; i < end; ++i) {
      Add(txs[i]);
    }
  });
}

std::vector<Transaction> Mempool::TakeBatch(size_t max) {
  std::vector<Transaction> batch;
  batch.reserve(std::min(max, queue_.size()));
  while (batch.size() < max && !queue_.empty()) {
    // Entries committed out of queue order (reordering, a rival leader's block) are
    // skipped.
    if (!committed_.Contains(queue_.front().id)) {
      batch.push_back(queue_.front());
    }
    queue_.pop_front();
  }
  return batch;
}

void Mempool::MarkCommitted(const std::vector<Transaction>& txs) {
  ForEachRun(txs, [&](size_t begin, size_t end) {
    InsertIds(committed_, txs, begin, end);
    // Committed ids are usually known already: a replica commits what it was sent.
    if (!known_.ContainsRun(txs[begin].id, end - begin)) {
      InsertIds(known_, txs, begin, end);
    }
  });
  while (!queue_.empty() && committed_.Contains(queue_.front().id)) {
    queue_.pop_front();
  }
}

}  // namespace achilles
