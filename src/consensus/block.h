// Blocks and the local block store (chain structure per §4.2 of the paper).
#ifndef SRC_CONSENSUS_BLOCK_H_
#define SRC_CONSENSUS_BLOCK_H_

#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/consensus/transaction.h"
#include "src/consensus/types.h"
#include "src/crypto/sha256.h"

namespace achilles {

struct Block;
using BlockPtr = std::shared_ptr<const Block>;

struct Block {
  Block() = default;
  // Copies drop the digest memos: a copy may be mutated (e.g. a forged variant in tests),
  // and the memos are only sound while the fields they were derived from stay fixed.
  Block(const Block& other)
      : view(other.view),
        height(other.height),
        parent(other.parent),
        txs(other.txs),
        exec_result(other.exec_result),
        hash(other.hash),
        propose_time(other.propose_time) {}
  Block& operator=(const Block& other) {
    view = other.view;
    height = other.height;
    parent = other.parent;
    txs = other.txs;
    exec_result = other.exec_result;
    hash = other.hash;
    propose_time = other.propose_time;
    tx_root_memo_set_ = false;
    valid_memo_set_ = false;
    wire_size_memo_ = 0;
    return *this;
  }

  View view = 0;
  Height height = 0;
  Hash256 parent = ZeroHash();
  std::vector<Transaction> txs;
  Hash256 exec_result = ZeroHash();  // Deterministic state-machine digest after this block.
  Hash256 hash = ZeroHash();         // H(view, height, parent, tx root, exec_result).

  // Bookkeeping (not part of the hash): when the leader proposed this block.
  SimTime propose_time = 0;

  // Header + certificate-free body size on the wire. Blocks built by Create, Genesis or
  // DecodeBlockRecord never change afterwards and answer from a memo taken at construction;
  // any other block recomputes it on every call.
  size_t WireSize() const;

  // The hard-coded genesis block G (height 0, view 0).
  static const BlockPtr& Genesis();

  // createLeaf(txs, op, h_p): builds and hashes a child of `parent` at `view`.
  static BlockPtr Create(View view, const BlockPtr& parent, std::vector<Transaction> txs,
                         SimTime propose_time);

  // executeTx(txs, h_p): the execution digest a correct node must obtain for this block.
  static Hash256 ComputeExecResult(const Hash256& parent_exec,
                                   const std::vector<Transaction>& txs);

  // Recomputes the header hash; true iff it matches the stored one and exec_result is the
  // correct fold over the parent's result (block validity, §4.2).
  //
  // Hot-path memo: txs are immutable once a block is shared, so the tx-root and the
  // verdict for a given parent digest are computed once and replayed for every later
  // verifier (each of n-1 receivers validates the same block). Pure wall-clock caching —
  // the recomputation is deterministic, so digests and verdicts are bit-identical.
  bool ValidUnder(const Hash256& parent_exec) const;

  // Merkle-style root over txs, computed on first use and memoized (see ValidUnder note).
  const Hash256& CachedTxRoot() const;

 private:
  friend BlockPtr DecodeBlockRecord(ByteView record);

  void MemoizeWireSize() { wire_size_memo_ = WireSize(); }

  size_t wire_size_memo_ = 0;  // 0 = not memoized (a real block is never that small).
  mutable Hash256 tx_root_memo_;
  mutable bool tx_root_memo_set_ = false;
  mutable Hash256 valid_memo_parent_;
  mutable bool valid_memo_set_ = false;
  mutable bool valid_memo_ok_ = false;
};

// Durable-log codec: the full block (bookkeeping fields included) as a host-WAL record.
Bytes EncodeBlockRecord(const Block& b);
// Decodes a WAL record back into a block; nullptr when it does not parse or its header
// hash does not recompute (defense in depth — the crash model never tears synced records).
BlockPtr DecodeBlockRecord(ByteView record);

struct Hash256Hasher {
  size_t operator()(const Hash256& h) const {
    size_t v;
    static_assert(sizeof(v) <= 32);
    std::memcpy(&v, h.data(), sizeof(v));
    return v;
  }
};

// Per-replica store of all received blocks, keyed by hash; genesis is always present.
class BlockStore {
 public:
  BlockStore();

  // Adds a block (idempotent). The parent need not be present yet (sync may backfill).
  void Add(const BlockPtr& block);
  BlockPtr Get(const Hash256& hash) const;
  bool Has(const Hash256& hash) const { return blocks_.count(hash) > 0; }

  // True iff every ancestor down to genesis is present.
  bool HasFullAncestry(const Hash256& hash) const;

  // True iff `descendant` extends (or equals) `ancestor` following parent links; requires
  // the chain between them to be present.
  bool Extends(const Hash256& descendant, const Hash256& ancestor) const;

  // Chain from (excluding) `from_exclusive` up to (including) `to`, oldest first. Empty if
  // the path is unknown or `to` does not extend `from_exclusive`.
  std::vector<BlockPtr> PathBetween(const Hash256& from_exclusive, const Hash256& to) const;

  size_t size() const { return blocks_.size(); }
  // Wire-size sum of every retained block: the in-memory log footprint this store
  // contributes to the `log.bytes_retained` gauge. Maintained incrementally.
  uint64_t ApproxBytes() const { return approx_bytes_; }

  // Drops blocks below `keep_from` height (genesis always retained). Committed history
  // below the retention window is not needed: catching-up nodes adopt certified
  // checkpoints instead of replaying from genesis.
  void PruneBelow(Height keep_from);

 private:
  std::unordered_map<Hash256, BlockPtr, Hash256Hasher> blocks_;
  uint64_t approx_bytes_ = 0;
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_BLOCK_H_
