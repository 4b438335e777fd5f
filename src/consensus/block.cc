#include "src/consensus/block.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/serde.h"

namespace achilles {

namespace {

Hash256 TxRoot(const std::vector<Transaction>& txs) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(txs.size()));
  for (const Transaction& tx : txs) {
    w.U64(tx.id);
    w.U64(tx.op);
    w.U32(tx.payload_size);
  }
  return Sha256Digest(ByteView(w.bytes().data(), w.bytes().size()));
}

Hash256 HeaderHash(View view, Height height, const Hash256& parent, const Hash256& tx_root,
                   const Hash256& exec_result) {
  ByteWriter w;
  w.Str("achilles-block");
  w.U64(view);
  w.U64(height);
  w.Raw(ByteView(parent.data(), parent.size()));
  w.Raw(ByteView(tx_root.data(), tx_root.size()));
  w.Raw(ByteView(exec_result.data(), exec_result.size()));
  return Sha256Digest(ByteView(w.bytes().data(), w.bytes().size()));
}

}  // namespace

size_t Block::WireSize() const {
  if (wire_size_memo_ != 0) {
    return wire_size_memo_;
  }
  // view + height + parent + exec_result + hash + tx batch.
  return 8 + 8 + 32 + 32 + 32 + TotalWireSize(txs);
}

const BlockPtr& Block::Genesis() {
  static const BlockPtr genesis = [] {
    auto g = std::make_shared<Block>();
    g->view = 0;
    g->height = 0;
    g->parent = ZeroHash();
    g->exec_result = Sha256Digest(AsBytes("genesis-state"));
    g->hash = HeaderHash(0, 0, g->parent, TxRoot({}), g->exec_result);
    g->MemoizeWireSize();
    return g;
  }();
  return genesis;
}

BlockPtr Block::Create(View view, const BlockPtr& parent, std::vector<Transaction> txs,
                       SimTime propose_time) {
  ACHILLES_CHECK(parent != nullptr);
  auto b = std::make_shared<Block>();
  b->view = view;
  b->height = parent->height + 1;
  b->parent = parent->hash;
  b->txs = std::move(txs);
  const Hash256& tx_root = b->CachedTxRoot();  // Seeds the memo for later verifiers.
  b->exec_result = HashPair(parent->exec_result, tx_root);
  b->hash = HeaderHash(b->view, b->height, b->parent, tx_root, b->exec_result);
  b->propose_time = propose_time;
  b->MemoizeWireSize();
  return b;
}

Hash256 Block::ComputeExecResult(const Hash256& parent_exec,
                                 const std::vector<Transaction>& txs) {
  return HashPair(parent_exec, TxRoot(txs));
}

const Hash256& Block::CachedTxRoot() const {
  if (!tx_root_memo_set_) {
    tx_root_memo_ = TxRoot(txs);
    tx_root_memo_set_ = true;
  }
  return tx_root_memo_;
}

bool Block::ValidUnder(const Hash256& parent_exec) const {
  if (valid_memo_set_ && valid_memo_parent_ == parent_exec) {
    return valid_memo_ok_;
  }
  const Hash256& tx_root = CachedTxRoot();
  const bool ok = exec_result == HashPair(parent_exec, tx_root) &&
                  hash == HeaderHash(view, height, parent, tx_root, exec_result);
  valid_memo_parent_ = parent_exec;
  valid_memo_ok_ = ok;
  valid_memo_set_ = true;
  return ok;
}

Bytes EncodeBlockRecord(const Block& b) {
  ByteWriter w;
  w.U64(b.view);
  w.U64(b.height);
  w.Raw(ByteView(b.parent.data(), b.parent.size()));
  w.Raw(ByteView(b.exec_result.data(), b.exec_result.size()));
  w.Raw(ByteView(b.hash.data(), b.hash.size()));
  w.I64(b.propose_time);
  w.U32(static_cast<uint32_t>(b.txs.size()));
  for (const Transaction& tx : b.txs) {
    w.U64(tx.id);
    w.I64(tx.submit_time);
    w.U32(tx.payload_size);
    w.U64(tx.op);
  }
  return w.Take();
}

BlockPtr DecodeBlockRecord(ByteView record) {
  ByteReader r(record);
  const auto view = r.U64();
  const auto height = r.U64();
  const auto parent = r.Raw(32);
  const auto exec_result = r.Raw(32);
  const auto hash = r.Raw(32);
  const auto propose_time = r.I64();
  const auto count = r.U32();
  if (!view || !height || !parent || !exec_result || !hash || !propose_time || !count) {
    return nullptr;
  }
  auto b = std::make_shared<Block>();
  b->view = *view;
  b->height = *height;
  std::copy(parent->begin(), parent->end(), b->parent.begin());
  std::copy(exec_result->begin(), exec_result->end(), b->exec_result.begin());
  std::copy(hash->begin(), hash->end(), b->hash.begin());
  b->propose_time = *propose_time;
  b->txs.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    const auto id = r.U64();
    const auto submit_time = r.I64();
    const auto payload_size = r.U32();
    const auto op = r.U64();
    if (!id || !submit_time || !payload_size || !op) {
      return nullptr;
    }
    b->txs.push_back(Transaction{*id, *submit_time, *payload_size, *op});
  }
  if (r.remaining() != 0 ||
      b->hash !=
          HeaderHash(b->view, b->height, b->parent, b->CachedTxRoot(), b->exec_result)) {
    return nullptr;
  }
  b->MemoizeWireSize();
  return b;
}

BlockStore::BlockStore() { Add(Block::Genesis()); }

void BlockStore::Add(const BlockPtr& block) {
  ACHILLES_CHECK(block != nullptr);
  if (blocks_.emplace(block->hash, block).second) {
    approx_bytes_ += block->WireSize();
  }
}

BlockPtr BlockStore::Get(const Hash256& hash) const {
  auto it = blocks_.find(hash);
  return it == blocks_.end() ? nullptr : it->second;
}

bool BlockStore::HasFullAncestry(const Hash256& hash) const {
  BlockPtr cur = Get(hash);
  while (cur != nullptr) {
    if (cur->height == 0) {
      return true;
    }
    cur = Get(cur->parent);
  }
  return false;
}

bool BlockStore::Extends(const Hash256& descendant, const Hash256& ancestor) const {
  BlockPtr cur = Get(descendant);
  const BlockPtr anc = Get(ancestor);
  if (anc == nullptr) {
    return false;
  }
  while (cur != nullptr) {
    if (cur->hash == ancestor) {
      return true;
    }
    if (cur->height <= anc->height) {
      return false;
    }
    cur = Get(cur->parent);
  }
  return false;
}

void BlockStore::PruneBelow(Height keep_from) {
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->second->height != 0 && it->second->height < keep_from) {
      approx_bytes_ -= it->second->WireSize();
      it = blocks_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<BlockPtr> BlockStore::PathBetween(const Hash256& from_exclusive,
                                              const Hash256& to) const {
  std::vector<BlockPtr> path;
  BlockPtr cur = Get(to);
  while (cur != nullptr && cur->hash != from_exclusive) {
    path.push_back(cur);
    if (cur->height == 0) {
      return {};  // Reached genesis without meeting `from_exclusive`.
    }
    cur = Get(cur->parent);
  }
  if (cur == nullptr) {
    return {};
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace achilles
