// Pending-transaction pool with duplicate suppression across submissions and commits.
#ifndef SRC_CONSENSUS_MEMPOOL_H_
#define SRC_CONSENSUS_MEMPOOL_H_

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/common/u64_set.h"
#include "src/consensus/transaction.h"

namespace achilles {

// Set of tx ids (client << 32 | seq) whose retained state stays bounded while clients'
// sequence numbers advance. A client gets a window when one of its ids has seq <
// kWindowSeqs: a watermark (every seq below it is a member) and a kWindowSeqs-wide bitmap
// above it. The watermark advances over set bits and the bits it passes are recycled.
// Every other id lives in one sparse spill set: ids beyond their client's bitmap, and ids
// of clients without a window, such as the random 64-bit ids a Byzantine spammer submits
// (a window each would cost far more than one spill slot). The watermark absorbs a
// spilled id when it reaches it. Membership is exactly that of a plain set of every id
// ever inserted.
class TxIdSet {
 public:
  static constexpr size_t kWindowWords = 64;
  static constexpr uint64_t kWindowSeqs = kWindowWords * 64;

  // Inserts `id`; returns true when it was not already a member.
  bool Insert(uint64_t id);
  bool Contains(uint64_t id) const;

  // Retained state in 64-bit words: window bitmaps plus spill entries.
  size_t tracked() const { return windows_.size() * kWindowWords + spill_.size(); }

 private:
  struct Window {
    uint64_t watermark = 0;  // Every seq below is a member.
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

  // Moves the watermark over every member at and above it, absorbing spilled ids.
  void Advance(uint32_t client, Window& w);

  std::unordered_map<uint32_t, Window> windows_;
  U64Set spill_;
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
