// Pending-transaction pool with duplicate suppression across submissions and commits.
#ifndef SRC_CONSENSUS_MEMPOOL_H_
#define SRC_CONSENSUS_MEMPOOL_H_

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/consensus/transaction.h"

namespace achilles {

// Set of tx ids (client << 32 | seq) whose retained state stays bounded while clients'
// sequence numbers advance. A client gets a window when one of its ids has seq <
// kWindowSeqs, or, past that, when two in-sequence ids of it have spilled (the window is
// then floored at the first of them: a replica that rebooted mid-run). A window is a
// watermark (every seq in [floor, watermark) is a member) and a kWindowSeqs-wide bitmap
// above it. The watermark advances over set bits and the bits it passes are recycled.
// Every other id lives in one sparse spill set: ids below a floor or beyond their
// client's bitmap, and ids of clients without a window, such as the random 64-bit ids a
// Byzantine spammer submits (a window each would cost far more than one spill slot). The
// watermark absorbs a spilled id when it reaches it. Membership is exactly that of a
// plain set of every id ever inserted.
//
// Traffic is mostly in order, so two invariants make the common cases cheap: the
// watermark's bit is always clear, and the watermark's id is never spilled. An insert at
// the watermark then only bumps it, and a run of fresh consecutive ids starting there
// moves it once. Each window counts its client's spilled ids at or above the floor, so
// both paths skip the spill probe whenever that count is zero, whatever else the spill
// holds. The last window used is cached, so in-order traffic skips the hash lookup.
class TxIdSet {
 public:
  static constexpr size_t kWindowWords = 64;
  static constexpr uint64_t kWindowSeqs = kWindowWords * 64;

  TxIdSet() = default;
  // Not copyable: the window cache points into this set's own map.
  TxIdSet(const TxIdSet&) = delete;
  TxIdSet& operator=(const TxIdSet&) = delete;

  // Inserts `id`; returns true when it was not already a member.
  bool Insert(uint64_t id) {
    Window* w = Find(static_cast<uint32_t>(id >> 32));
    const uint64_t seq = id & (kSeqLimit - 1);
    if (w != nullptr && seq == w->watermark && seq + 1 < kSeqLimit && !w->Bit(seq + 1) &&
        (w->spilled == 0 || !spill_.contains(id + 1))) {
      w->watermark = seq + 1;
      return true;
    }
    return InsertSlow(id);
  }

  bool Contains(uint64_t id) const {
    const Window* w = Find(static_cast<uint32_t>(id >> 32));
    const uint64_t seq = id & (kSeqLimit - 1);
    if (w == nullptr || seq < w->floor) {
      return spill_.contains(id);
    }
    return seq < w->watermark || (w->Covers(seq) && w->Bit(seq)) ||
           (w->spilled != 0 && spill_.contains(id));
  }

  // The `count` consecutive ids first, first + 1, ... of one client: when they start at
  // its watermark and none is a member, inserts them all in O(count / 64) and returns
  // true. Otherwise returns false and leaves the set unchanged; the caller then inserts
  // them one by one.
  bool InsertRun(uint64_t first, size_t count);
  // True when every one of the `count` consecutive ids from `first` is a member.
  bool ContainsRun(uint64_t first, size_t count) const;

  // Retained state in 64-bit words: window bitmaps plus spill entries.
  size_t tracked() const { return windows_.size() * kWindowWords + spill_.size(); }

 private:
  static constexpr uint64_t kSeqLimit = uint64_t{1} << 32;  // One past the largest seq.

  struct Window {
    uint64_t floor = 0;      // Seqs below are members only through the spill.
    uint64_t watermark = 0;  // Every seq in [floor, watermark) is a member.
    size_t spilled = 0;      // Spilled ids of this client with seq >= floor.
    std::array<uint64_t, kWindowWords> bits{};  // Ring: seq s at word (s / 64) % size.

    // The bitmap covers [watermark rounded down to 64, that + kWindowSeqs).
    bool Covers(uint64_t seq) const {
      return seq - (watermark & ~uint64_t{63}) < kWindowSeqs;
    }
    uint64_t& Word(uint64_t seq) { return bits[(seq / 64) % kWindowWords]; }
    bool Bit(uint64_t seq) const {
      return (bits[(seq / 64) % kWindowWords] >> (seq % 64)) & 1;
    }
  };

  // The client's window, or nullptr. Map references survive rehashing and windows are
  // never erased, so the last hit stays valid.
  Window* Find(uint32_t client) const {
    return cached_ != nullptr && cached_client_ == client ? cached_ : Lookup(client);
  }
  Window* Lookup(uint32_t client) const;

  bool InsertSlow(uint64_t id);
  // Opens `client`'s window at `floor`, counting its spilled ids from there on.
  Window& OpenWindow(uint32_t client, uint64_t floor);
  // Moves the watermark over every member at and above it, absorbing spilled ids.
  void Advance(uint32_t client, Window& w);

  std::unordered_map<uint32_t, Window> windows_;
  std::unordered_set<uint64_t> spill_;
  mutable uint32_t cached_client_ = 0;
  mutable Window* cached_ = nullptr;
};

class Mempool {
 public:
  // Adds a transaction; duplicates (by id) of pending or already-committed txs are dropped.
  void Add(const Transaction& tx);
  void AddBatch(const std::vector<Transaction>& txs);

  // Removes and returns up to `max` transactions, FIFO.
  std::vector<Transaction> TakeBatch(size_t max);

  // Marks transactions as committed so re-submissions / stale proposals don't re-enter,
  // and evicts the committed entries now at the front of the queue.
  void MarkCommitted(const std::vector<Transaction>& txs);

  size_t pending() const { return queue_.size(); }
  size_t ids_tracked() const { return known_.tracked() + committed_.tracked(); }

 private:
  std::deque<Transaction> queue_;
  TxIdSet known_;      // Pending or committed ids.
  TxIdSet committed_;  // Committed ids.
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_MEMPOOL_H_
