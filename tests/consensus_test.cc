#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/consensus/block.h"
#include "src/consensus/certificates.h"
#include "src/consensus/commit_tracker.h"
#include "src/consensus/mempool.h"
#include "src/consensus/messages.h"
#include "src/consensus/metrics.h"
#include "src/consensus/types.h"

namespace achilles {
namespace {

std::vector<Transaction> MakeTxs(uint32_t client, uint32_t count, SimTime t = 0) {
  std::vector<Transaction> txs;
  for (uint32_t i = 0; i < count; ++i) {
    txs.push_back(Transaction{Transaction::MakeId(client, i), t, 256});
  }
  return txs;
}

// --- Blocks ---

TEST(BlockTest, GenesisIsStable) {
  const BlockPtr& g = Block::Genesis();
  EXPECT_EQ(g->height, 0u);
  EXPECT_EQ(g->view, 0u);
  EXPECT_EQ(Block::Genesis()->hash, g->hash);
}

TEST(BlockTest, CreateLinksParentAndHeights) {
  const BlockPtr b1 = Block::Create(1, Block::Genesis(), MakeTxs(1, 3), Ms(5));
  EXPECT_EQ(b1->height, 1u);
  EXPECT_EQ(b1->parent, Block::Genesis()->hash);
  EXPECT_EQ(b1->propose_time, Ms(5));
  const BlockPtr b2 = Block::Create(2, b1, MakeTxs(1, 2), Ms(6));
  EXPECT_EQ(b2->height, 2u);
  EXPECT_EQ(b2->parent, b1->hash);
}

TEST(BlockTest, HashCoversContent) {
  const BlockPtr a = Block::Create(1, Block::Genesis(), MakeTxs(1, 3), 0);
  const BlockPtr b = Block::Create(1, Block::Genesis(), MakeTxs(2, 3), 0);
  const BlockPtr c = Block::Create(2, Block::Genesis(), MakeTxs(1, 3), 0);
  EXPECT_NE(a->hash, b->hash);  // Different txs.
  EXPECT_NE(a->hash, c->hash);  // Different view.
}

TEST(BlockTest, ProposeTimeNotPartOfHash) {
  const BlockPtr a = Block::Create(1, Block::Genesis(), MakeTxs(1, 3), Ms(1));
  const BlockPtr b = Block::Create(1, Block::Genesis(), MakeTxs(1, 3), Ms(99));
  EXPECT_EQ(a->hash, b->hash);
}

TEST(BlockTest, ValidUnderDetectsForgedExecResult) {
  const BlockPtr good = Block::Create(1, Block::Genesis(), MakeTxs(1, 3), 0);
  EXPECT_TRUE(good->ValidUnder(Block::Genesis()->exec_result));

  auto forged = std::make_shared<Block>(*good);
  forged->exec_result = Sha256Digest(AsBytes("wrong"));
  EXPECT_FALSE(forged->ValidUnder(Block::Genesis()->exec_result));
}

TEST(BlockTest, WireSizeScalesWithPayload) {
  const BlockPtr small = Block::Create(1, Block::Genesis(), MakeTxs(1, 10), 0);
  const BlockPtr big = Block::Create(1, Block::Genesis(), MakeTxs(1, 400), 0);
  EXPECT_GT(big->WireSize(), small->WireSize());
  // 400 txs * (8 + 256) bytes + header.
  EXPECT_EQ(big->WireSize(), 400u * 264u + 112u);
}

TEST(BlockTest, WireSizeMemoMatchesRecomputationAndDropsOnCopy) {
  const BlockPtr b = Block::Create(1, Block::Genesis(), MakeTxs(1, 7), 0);
  EXPECT_EQ(b->WireSize(), 112u + TotalWireSize(b->txs));
  EXPECT_EQ(Block::Genesis()->WireSize(), 112u);
  const BlockPtr decoded = DecodeBlockRecord(EncodeBlockRecord(*b));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->WireSize(), b->WireSize());
  // A copy may be mutated, so it must not inherit the memo.
  auto grown = std::make_shared<Block>(*b);
  grown->txs.push_back(Transaction{Transaction::MakeId(1, 99), 0, 1000});
  EXPECT_EQ(grown->WireSize(), b->WireSize() + 1008u);
  Block assigned;
  assigned = *b;
  assigned.txs.clear();
  EXPECT_EQ(assigned.WireSize(), 112u);
}

TEST(MessagesTest, ClientSubmitWireSizeMemoMatchesRecomputation) {
  ClientSubmitMsg msg;
  msg.txs = MakeTxs(3, 5);
  const size_t computed = msg.WireSize();
  EXPECT_EQ(computed, 8u + 5u * 264u);
  msg.MemoizeWireSize();
  EXPECT_EQ(msg.WireSize(), computed);
}

// --- BlockStore ---

TEST(BlockStoreTest, AncestryAndExtends) {
  BlockStore store;
  const BlockPtr b1 = Block::Create(1, Block::Genesis(), {}, 0);
  const BlockPtr b2 = Block::Create(2, b1, {}, 0);
  const BlockPtr b3 = Block::Create(3, b2, {}, 0);
  store.Add(b1);
  store.Add(b3);  // b2 missing.
  EXPECT_FALSE(store.HasFullAncestry(b3->hash));
  store.Add(b2);
  EXPECT_TRUE(store.HasFullAncestry(b3->hash));
  EXPECT_TRUE(store.Extends(b3->hash, b1->hash));
  EXPECT_TRUE(store.Extends(b3->hash, Block::Genesis()->hash));
  EXPECT_FALSE(store.Extends(b1->hash, b3->hash));
}

TEST(BlockStoreTest, ConflictingForksDoNotExtend) {
  BlockStore store;
  const BlockPtr left = Block::Create(1, Block::Genesis(), MakeTxs(1, 1), 0);
  const BlockPtr right = Block::Create(1, Block::Genesis(), MakeTxs(2, 1), 0);
  store.Add(left);
  store.Add(right);
  EXPECT_FALSE(store.Extends(left->hash, right->hash));
  EXPECT_FALSE(store.Extends(right->hash, left->hash));
}

TEST(BlockStoreTest, PathBetweenReturnsOrderedChain) {
  BlockStore store;
  const BlockPtr b1 = Block::Create(1, Block::Genesis(), {}, 0);
  const BlockPtr b2 = Block::Create(2, b1, {}, 0);
  const BlockPtr b3 = Block::Create(3, b2, {}, 0);
  store.Add(b1);
  store.Add(b2);
  store.Add(b3);
  const auto path = store.PathBetween(b1->hash, b3->hash);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0]->hash, b2->hash);
  EXPECT_EQ(path[1]->hash, b3->hash);
  // Non-extending target yields empty path.
  const BlockPtr fork = Block::Create(1, Block::Genesis(), MakeTxs(9, 1), 0);
  store.Add(fork);
  EXPECT_TRUE(store.PathBetween(b1->hash, fork->hash).empty());
}

// --- Mempool ---

TEST(MempoolTest, FifoBatching) {
  Mempool pool;
  pool.AddBatch(MakeTxs(1, 10));
  const auto batch = pool.TakeBatch(4);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].id, Transaction::MakeId(1, 0));
  EXPECT_EQ(batch[3].id, Transaction::MakeId(1, 3));
  EXPECT_EQ(pool.pending(), 6u);
}

TEST(MempoolTest, DuplicatesDropped) {
  Mempool pool;
  pool.AddBatch(MakeTxs(1, 5));
  pool.AddBatch(MakeTxs(1, 5));  // Same ids again.
  EXPECT_EQ(pool.pending(), 5u);
}

TEST(MempoolTest, CommittedTxsNeverReenterOrLeave) {
  Mempool pool;
  const auto txs = MakeTxs(1, 5);
  pool.AddBatch(txs);
  pool.MarkCommitted({txs[0], txs[1]});
  const auto batch = pool.TakeBatch(10);
  ASSERT_EQ(batch.size(), 3u);  // Committed ones skipped.
  EXPECT_EQ(batch[0].id, txs[2].id);
  pool.AddBatch({txs[0]});  // Resubmission of committed tx.
  EXPECT_EQ(pool.pending(), 0u);
  const auto late = MakeTxs(2, 5);  // Committed before this replica saw them submitted.
  pool.MarkCommitted(late);
  pool.AddBatch(late);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(MempoolTest, CommitEvictsCommittedQueueFront) {
  Mempool pool;
  const auto txs = MakeTxs(1, 6);
  pool.AddBatch(txs);
  pool.MarkCommitted({txs[0], txs[1], txs[3]});
  EXPECT_EQ(pool.pending(), 4u);  // Eviction stops at the first uncommitted entry.
  pool.MarkCommitted({txs[2]});
  EXPECT_EQ(pool.pending(), 2u);  // txs[2] and the already committed txs[3] leave.
  const auto batch = pool.TakeBatch(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, txs[4].id);
}

// Today's-semantics reference: two ever-growing id sets in front of a FIFO queue. The
// bounded Mempool must give the same dedup verdicts and the same TakeBatch output.
class ReferenceMempool {
 public:
  void AddBatch(const std::vector<Transaction>& txs) {
    for (const Transaction& tx : txs) {
      if (known_.insert(tx.id).second) {
        queue_.push_back(tx);
      }
    }
  }
  std::vector<Transaction> TakeBatch(size_t max) {
    std::vector<Transaction> batch;
    while (batch.size() < max && !queue_.empty()) {
      Transaction tx = queue_.front();
      queue_.pop_front();
      if (!committed_.contains(tx.id)) {
        batch.push_back(tx);
      }
    }
    return batch;
  }
  void MarkCommitted(const std::vector<Transaction>& txs) {
    for (const Transaction& tx : txs) {
      committed_.insert(tx.id);
      known_.insert(tx.id);
    }
  }

 private:
  std::deque<Transaction> queue_;
  std::unordered_set<uint64_t> known_;
  std::unordered_set<uint64_t> committed_;
};

// Draws tx ids in the shapes the id set has to absorb. Each client streams every seq
// exactly once through a reorder buffer whose depth changes over time (in order, local
// reordering, or deeper than the window so ids spill and the watermark later sweeps over
// them). On top come duplicates and stragglers up to three windows behind, ids far ahead
// of the stream (gaps wider than the window, filled in later), permanent gaps in one
// client's stream (its watermark stalls for good), uniformly random 64-bit ids (the
// Byzantine spammer's), and the extreme ids 0, seq 0xffffffff and client 0xffffffff.
class IdSource {
 public:
  explicit IdSource(uint64_t seed) : rng_(seed) {}

  uint64_t Next() {
    const uint64_t roll = rng_.UniformU64(1000);
    if (roll < 30) {
      return rng_.NextU64();
    }
    if (roll < 45) {
      const uint64_t kEdges[] = {0,
                                 Transaction::MakeId(0, 0xffffffff),
                                 Transaction::MakeId(0xffffffff, 0),
                                 Transaction::MakeId(0xffffffff, 0xffffffff),
                                 Transaction::MakeId(1, 0xffffffff),
                                 Transaction::MakeId(0xffffffff, 1)};
      return kEdges[rng_.UniformU64(std::size(kEdges))];
    }
    const size_t c = rng_.UniformU64(kClients);
    Stream& s = streams_[c];
    constexpr uint64_t kW = TxIdSet::kWindowSeqs;
    uint64_t seq;
    if (roll < 145) {
      seq = s.next - std::min<uint64_t>(s.next, 1 + rng_.UniformU64(3 * kW));
    } else if (roll < 175) {
      seq = s.next + kW + rng_.UniformU64(kW);
    } else {
      if (roll < 180) {
        const uint64_t depths[] = {1, 16, 64, kW / 2, kW * 3 / 2};
        s.depth = depths[rng_.UniformU64(std::size(depths))];
      }
      if (c == kClients - 1 && rng_.Chance(0.0002)) {
        s.next += kW + rng_.UniformU64(kW);  // Never sent: a permanent gap.
      }
      while (s.buffer.size() < s.depth) {
        s.buffer.push_back(s.next++);
      }
      // Oldest first half the time, so every buffered seq leaves within a bounded lag.
      if (rng_.Chance(0.5)) {
        seq = s.buffer.front();
        s.buffer.pop_front();
      } else {
        const size_t pick = rng_.UniformU64(s.buffer.size());
        seq = s.buffer[pick];
        s.buffer[pick] = s.buffer.back();
        s.buffer.pop_back();
      }
    }
    return Transaction::MakeId(kClientIds[c], static_cast<uint32_t>(seq));
  }

  Rng& rng() { return rng_; }

 private:
  struct Stream {
    uint64_t next = 0;
    uint64_t depth = 1;
    std::deque<uint64_t> buffer;  // Roughly oldest first.
  };
  static constexpr size_t kClients = 4;
  static constexpr uint32_t kClientIds[kClients] = {0, 1, 7, 0xffffffff};
  Rng rng_;
  Stream streams_[kClients];
};

// Draws id batches in the shapes clients and FIFO-cut blocks produce: runs of consecutive
// seqs, some carrying one duplicate, one gap (the seq comes later, or never), one swapped
// pair or one id far ahead (sent again in order later), some longer than the window, and
// re-sent old runs, which may reach below where the stream started. One stream starts at
// seq 0, one just below seq 2^32 - 1 (its runs straddle into the next client id), and one
// far past the window width, as a replica that rebooted mid-run sees a client (its window
// gets a floor). A last client sends isolated ids that never follow one another, so it
// never gets a window.
class BatchSource {
 public:
  explicit BatchSource(Rng& rng) : rng_(rng) {}

  std::vector<uint64_t> Next() {
    const size_t c = rng_.UniformU64(kStreams);
    Stream& s = streams_[c];
    std::vector<uint64_t> ids;
    if (c == kStreams - 1) {
      for (uint64_t n = 1 + rng_.UniformU64(4); n > 0; --n) {
        ids.push_back(s.next);
        s.next += 2 + rng_.UniformU64(8);
      }
      return ids;
    }
    if (!s.held.empty() && rng_.Chance(0.2)) {
      ids.push_back(s.held.back());  // A gap filled late.
      s.held.pop_back();
      return ids;
    }
    constexpr uint64_t kW = TxIdSet::kWindowSeqs;
    const uint64_t len = 1 + rng_.UniformU64(rng_.Chance(0.03) ? 2 * kW : 400);
    const uint64_t from = rng_.Chance(0.05) ? s.next - len : s.next;  // Re-sent.
    for (uint64_t id = from; id < from + len; ++id) {
      ids.push_back(id);
    }
    s.next = std::max(s.next, from + len);
    const size_t k = rng_.UniformU64(ids.size());
    switch (rng_.UniformU64(16)) {
      case 0:
        ids.insert(ids.begin() + static_cast<std::ptrdiff_t>(k), ids[rng_.UniformU64(k + 1)]);
        break;
      case 1:
        if (rng_.Chance(0.97)) {
          s.held.push_back(ids[k]);
        }
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      case 2:
        if (k + 1 < ids.size()) {
          std::swap(ids[k], ids[k + 1]);
        }
        break;
      case 3:
        ids.push_back(s.next + kW + rng_.UniformU64(kW));
        break;
      default:
        break;
    }
    return ids;
  }

 private:
  struct Stream {
    uint64_t next;
    std::vector<uint64_t> held;  // Gapped ids still to come.
  };
  static constexpr size_t kStreams = 4;
  static constexpr uint64_t StartOf(uint32_t client, uint64_t seq) {
    return (uint64_t{client} << 32) + seq;
  }
  Rng& rng_;
  Stream streams_[kStreams] = {
      {StartOf(2, 0), {}},
      {StartOf(3, 0xffffffff - 3000), {}},
      {StartOf(5, 10 * TxIdSet::kWindowSeqs), {}},
      {StartOf(9, 5 * TxIdSet::kWindowSeqs), {}},
  };
};

std::vector<Transaction> TxsOf(const std::vector<uint64_t>& ids, SimTime t) {
  std::vector<Transaction> txs;
  for (const uint64_t id : ids) {
    txs.push_back(Transaction{id, t, 8});
  }
  return txs;
}

TEST(MempoolTest, IdSetMembershipDifferentialVsPlainSet) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    IdSource source(seed);
    TxIdSet set;
    std::unordered_set<uint64_t> reference;
    for (int i = 0; i < 100'000; ++i) {
      const uint64_t id = source.Next();
      if (source.rng().Chance(0.3)) {
        ASSERT_EQ(set.Contains(id), reference.count(id) != 0) << "seed " << seed << " op " << i;
      } else {
        ASSERT_EQ(set.Insert(id), reference.insert(id).second) << "seed " << seed << " op " << i;
      }
    }
    for (const uint64_t id : reference) {
      ASSERT_TRUE(set.Contains(id)) << "seed " << seed;
    }
  }
}

// InsertRun/ContainsRun against per-id Insert/Contains on a twin set fed the same ids:
// same verdicts, same membership, same retained state, and the per-id verdicts are a
// plain set's. InsertRun takes only fresh in-order runs; a refused run changes nothing
// and goes in id by id, as the mempool does.
TEST(MempoolTest, IdSetRunOpsAgreeWithPerIdOps) {
  {
    TxIdSet set;
    EXPECT_FALSE(set.InsertRun(Transaction::MakeId(1, 0), 10));  // No window yet.
    EXPECT_TRUE(set.Insert(Transaction::MakeId(1, 0)));
    EXPECT_TRUE(set.InsertRun(Transaction::MakeId(1, 1), 400));
    EXPECT_TRUE(set.ContainsRun(Transaction::MakeId(1, 0), 401));
    EXPECT_FALSE(set.ContainsRun(Transaction::MakeId(1, 0), 402));
    EXPECT_FALSE(set.InsertRun(Transaction::MakeId(1, 400), 2));  // Starts below.
    EXPECT_TRUE(set.Insert(Transaction::MakeId(1, 402)));
    EXPECT_FALSE(set.InsertRun(Transaction::MakeId(1, 401), 5));  // Overlaps 402.
    EXPECT_FALSE(set.InsertRun(Transaction::MakeId(1, 401), 1));  // Next bit set.
    EXPECT_TRUE(set.Insert(Transaction::MakeId(1, 401)));
    EXPECT_TRUE(set.InsertRun(Transaction::MakeId(1, 403), 2 * TxIdSet::kWindowSeqs));
    EXPECT_EQ(set.tracked(), TxIdSet::kWindowWords);
  }
  {
    // An id spilled far ahead stays a member when the in-order stream reaches it.
    TxIdSet set;
    const uint64_t ahead = Transaction::MakeId(1, 5000);
    EXPECT_TRUE(set.Insert(Transaction::MakeId(1, 0)));
    EXPECT_TRUE(set.Insert(ahead));
    EXPECT_FALSE(set.InsertRun(Transaction::MakeId(1, 1), 5000));
    for (uint32_t seq = 1; seq < 5000; ++seq) {
      EXPECT_TRUE(set.Insert(Transaction::MakeId(1, seq)));
    }
    EXPECT_FALSE(set.Insert(ahead));
    EXPECT_EQ(set.tracked(), TxIdSet::kWindowWords);  // The watermark absorbed it.
    // A run ending right below a set bit on a word boundary leaves the watermark there.
    EXPECT_TRUE(set.Insert(Transaction::MakeId(1, 5056)));
    EXPECT_FALSE(set.InsertRun(Transaction::MakeId(1, 5001), 55));
  }
  {
    // A client first seen past the window width: its second in-sequence id opens a window
    // floored at the first, and below the floor only the spill answers.
    TxIdSet set;
    EXPECT_TRUE(set.Insert(Transaction::MakeId(1, 10'000)));
    EXPECT_TRUE(set.Insert(Transaction::MakeId(1, 10'001)));
    EXPECT_EQ(set.tracked(), TxIdSet::kWindowWords);
    EXPECT_TRUE(set.ContainsRun(Transaction::MakeId(1, 10'000), 2));
    EXPECT_FALSE(set.ContainsRun(Transaction::MakeId(1, 9'990), 12));
    EXPECT_TRUE(set.Insert(Transaction::MakeId(1, 9'995)));
    EXPECT_FALSE(set.Insert(Transaction::MakeId(1, 9'995)));
    EXPECT_TRUE(set.ContainsRun(Transaction::MakeId(1, 9'995), 1));
    // A run that wraps past seq 2^32 - 1 into the next client goes in id by id.
    EXPECT_TRUE(set.Insert(Transaction::MakeId(3, 0xffffffff - 10)));
    EXPECT_TRUE(set.Insert(Transaction::MakeId(3, 0xffffffff - 9)));
    EXPECT_FALSE(set.InsertRun(Transaction::MakeId(3, 0xffffffff - 8), 20));
  }
  size_t in_one_step = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    IdSource source(seed);
    BatchSource batches(source.rng());
    TxIdSet by_run;
    TxIdSet by_id;
    std::unordered_set<uint64_t> reference;
    for (int i = 0; i < 2'000; ++i) {
      if (source.rng().Chance(0.2)) {
        const uint64_t id = source.Next();  // Spammer ids, stragglers, edge ids.
        const bool fresh = reference.insert(id).second;
        ASSERT_EQ(by_id.Insert(id), fresh) << "seed " << seed << " op " << i;
        ASSERT_EQ(by_run.Insert(id), fresh) << "seed " << seed << " op " << i;
        continue;
      }
      // Like the mempool, take the batch one maximal run of consecutive ids at a time.
      const std::vector<uint64_t> ids = batches.Next();
      for (size_t begin = 0, count = 0; begin < ids.size(); begin += count) {
        const uint64_t first = ids[begin];
        for (count = 1; begin + count < ids.size() && ids[begin + count] == first + count;
             ++count) {
        }
        bool all_members = true;
        for (size_t k = 0; k < count; ++k) {
          all_members = all_members && by_id.Contains(first + k);
        }
        ASSERT_EQ(by_run.ContainsRun(first, count), all_members) << "seed " << seed;
        std::vector<bool> fresh(count);
        for (size_t k = 0; k < count; ++k) {
          fresh[k] = by_id.Insert(first + k);
          ASSERT_EQ(fresh[k], reference.insert(first + k).second) << "seed " << seed;
        }
        const size_t tracked_before = by_run.tracked();
        if (by_run.InsertRun(first, count)) {
          ASSERT_TRUE(std::all_of(fresh.begin(), fresh.end(), [](bool b) { return b; }));
          ++in_one_step;
        } else {
          ASSERT_EQ(by_run.tracked(), tracked_before) << "seed " << seed;
          for (size_t k = 0; k < count; ++k) {
            ASSERT_EQ(by_run.Insert(first + k), fresh[k]) << "seed " << seed;
          }
        }
        ASSERT_EQ(by_run.tracked(), by_id.tracked()) << "seed " << seed;
        for (uint64_t id = first - 2; id != first + count + 2; ++id) {
          ASSERT_EQ(by_run.Contains(id), by_id.Contains(id)) << "seed " << seed;
        }
      }
    }
  }
  EXPECT_GT(in_one_step, 1000u);  // The in-order path is exercised, not just refused.
}

TEST(MempoolTest, DifferentialFuzzAgainstTwoSetReference) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    IdSource source(seed * 7919);
    Rng& rng = source.rng();
    BatchSource batches(rng);
    Mempool pool;
    ReferenceMempool reference;
    std::deque<Transaction> seen;  // Candidates for commits: recent submissions, in order.
    for (int step = 0; step < 3'000; ++step) {
      const uint64_t roll = rng.UniformU64(10);
      if (roll < 5) {
        std::vector<Transaction> txs(1 + rng.UniformU64(40));
        if (rng.Chance(0.5)) {
          txs = TxsOf(batches.Next(), step);
          if (rng.Chance(0.3)) {  // Runs of several clients back to back.
            const std::vector<Transaction> more = TxsOf(batches.Next(), step);
            txs.insert(txs.end(), more.begin(), more.end());
          }
        } else {
          for (Transaction& tx : txs) {
            tx = Transaction{source.Next(), step, static_cast<uint32_t>(rng.UniformU64(512))};
          }
        }
        seen.insert(seen.end(), txs.begin(), txs.end());
        while (seen.size() > 2 * TxIdSet::kWindowSeqs) {
          seen.pop_front();
        }
        pool.AddBatch(txs);
        reference.AddBatch(txs);
      } else if (roll < 7) {
        const size_t max = rng.UniformU64(60);
        const auto got = pool.TakeBatch(max);
        const auto want = reference.TakeBatch(max);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " step " << step;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].id, want[i].id) << "seed " << seed << " step " << step;
          ASSERT_EQ(got[i].submit_time, want[i].submit_time);
        }
      } else if (!seen.empty()) {
        // Commit a block: mostly a run from the oldest uncommitted submissions (commit
        // order tracks FIFO order), sometimes scattered picks or ids never submitted here,
        // or a whole batch-shaped block this pool never saw submitted.
        std::vector<Transaction> block;
        const size_t len = 1 + rng.UniformU64(rng.Chance(0.2) ? 400 : 50);
        const size_t start = rng.Chance(0.7) ? rng.UniformU64(std::min<size_t>(seen.size(), 64))
                                             : rng.UniformU64(seen.size());
        for (size_t i = 0; i < len; ++i) {
          if (rng.Chance(0.1)) {
            block.push_back(Transaction{source.Next(), step, 0});
          } else if (rng.Chance(0.2)) {
            block.push_back(seen[rng.UniformU64(seen.size())]);
          } else if (start + i < seen.size()) {
            block.push_back(seen[start + i]);
          }
        }
        if (rng.Chance(0.1)) {
          block = TxsOf(batches.Next(), step);
        }
        pool.MarkCommitted(block);
        reference.MarkCommitted(block);
        const size_t drop = std::min(seen.size(), rng.UniformU64(len + 1));
        seen.erase(seen.begin(), seen.begin() + static_cast<std::ptrdiff_t>(drop));
      }
    }
    const auto got = pool.TakeBatch(SIZE_MAX);
    const auto want = reference.TakeBatch(SIZE_MAX);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id) << "seed " << seed;
    }
  }
}

TEST(MempoolTest, InOrderStreamsKeepRetainedStateConstant) {
  // Submit-then-commit in FIFO order, as a backup sees a saturating client: the queue
  // drains through eviction and the id sets stop at one window per client and set.
  Mempool pool;
  for (uint32_t chunk = 0; chunk < 500; ++chunk) {
    for (uint32_t client : {1u, 2u, 3u}) {
      std::vector<Transaction> txs;
      for (uint32_t i = 0; i < 200; ++i) {
        txs.push_back(Transaction{Transaction::MakeId(client, chunk * 200 + i), 0, 8});
      }
      pool.AddBatch(txs);
      pool.MarkCommitted(txs);
    }
  }
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(pool.ids_tracked(), 2 * 3 * TxIdSet::kWindowWords);
}

// --- Certificates ---

TEST(CertificatesTest, SignedCertDigestDomainSeparated) {
  const Hash256 h = Sha256Digest(AsBytes("x"));
  SignedCert cert;
  cert.hash = h;
  cert.view = 3;
  EXPECT_NE(cert.Digest("achilles/PROP"), cert.Digest("achilles/COMMIT"));
}

TEST(CertificatesTest, QuorumCertVerify) {
  CryptoSuite suite(SignatureScheme::kFastHmac, 5, 7);
  QuorumCert qc;
  qc.hash = Sha256Digest(AsBytes("block"));
  qc.view = 9;
  const Bytes digest = qc.Digest("proto/DECIDE");
  for (uint32_t i = 0; i < 3; ++i) {
    qc.sigs.push_back(suite.Sign(i, ByteView(digest.data(), digest.size())));
  }
  EXPECT_TRUE(qc.Verify(suite, "proto/DECIDE", 3));
  EXPECT_FALSE(qc.Verify(suite, "proto/DECIDE", 4));
  EXPECT_FALSE(qc.Verify(suite, "proto/OTHER", 3));  // Wrong domain.

  QuorumCert dup = qc;
  dup.sigs[2] = dup.sigs[0];
  EXPECT_FALSE(dup.Verify(suite, "proto/DECIDE", 3));  // Duplicate signer.
}

TEST(CertificatesTest, AccumulatorDigestBindsEverything) {
  AccumulatorCert a;
  a.hash = Sha256Digest(AsBytes("parent"));
  a.block_view = 4;
  a.current_view = 7;
  a.ids = {0, 1, 2};
  AccumulatorCert b = a;
  b.current_view = 8;  // Replay in a later view must change the digest.
  EXPECT_NE(a.Digest("achilles/ACC"), b.Digest("achilles/ACC"));
  AccumulatorCert c = a;
  c.ids = {0, 1, 3};
  EXPECT_NE(a.Digest("achilles/ACC"), c.Digest("achilles/ACC"));
}

// --- LatencyRecorder ---

TEST(MetricsTest, PercentilesAndMean) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.Record(Ms(i));
  }
  EXPECT_NEAR(rec.MeanMs(), 50.5, 0.01);
  EXPECT_NEAR(rec.PercentileMs(50), 50.5, 1.0);
  EXPECT_NEAR(rec.PercentileMs(99), 99.0, 1.1);
  EXPECT_DOUBLE_EQ(rec.MaxMs(), 100.0);
  EXPECT_EQ(rec.count(), 100u);
}

TEST(MetricsTest, EmptyRecorderIsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.MeanMs(), 0.0);
  EXPECT_EQ(rec.PercentileMs(50), 0.0);
}

// --- CommitTracker ---

TEST(CommitTrackerTest, ThroughputAndCommitLatency) {
  CommitTracker tracker(3);
  tracker.StartMeasurement(0);
  auto b1 = Block::Create(1, Block::Genesis(), MakeTxs(1, 100), Ms(10));
  tracker.OnPropose(0, b1);
  tracker.OnCommit(0, b1, Ms(30));
  tracker.OnCommit(1, b1, Ms(31));  // Later commits of the same block don't re-count.
  tracker.EndMeasurement(Sec(1));
  EXPECT_DOUBLE_EQ(tracker.ThroughputTps(), 100.0);
  EXPECT_EQ(tracker.commit_latency().count(), 1u);
  EXPECT_NEAR(tracker.commit_latency().MeanMs(), 20.0, 0.01);
}

TEST(CommitTrackerTest, SafetyViolationDetected) {
  CommitTracker tracker(3);
  auto a = Block::Create(1, Block::Genesis(), MakeTxs(1, 1), 0);
  auto b = Block::Create(1, Block::Genesis(), MakeTxs(2, 1), 0);
  ASSERT_NE(a->hash, b->hash);
  tracker.OnCommit(0, a, Ms(1));
  EXPECT_FALSE(tracker.safety_violated());
  tracker.OnCommit(1, b, Ms(2));  // Same height, different hash.
  EXPECT_TRUE(tracker.safety_violated());
}

TEST(CommitTrackerTest, ByzantineCommitsIgnoredByAudit) {
  CommitTracker tracker(3);
  tracker.MarkByzantine(2);
  auto a = Block::Create(1, Block::Genesis(), MakeTxs(1, 1), 0);
  auto b = Block::Create(1, Block::Genesis(), MakeTxs(2, 1), 0);
  tracker.OnCommit(0, a, Ms(1));
  tracker.OnCommit(2, b, Ms(2));  // Byzantine replica "commits" a conflicting block.
  EXPECT_FALSE(tracker.safety_violated());
}

TEST(CommitTrackerTest, EndToEndLatencyFromClientConfirm) {
  CommitTracker tracker(3);
  tracker.StartMeasurement(0);
  auto b1 = Block::Create(1, Block::Genesis(), MakeTxs(1, 2, /*t=*/Ms(5)), Ms(10));
  tracker.OnPropose(0, b1);
  tracker.OnClientConfirm(b1, Ms(45));
  tracker.OnClientConfirm(b1, Ms(60));  // Second reply ignored.
  tracker.EndMeasurement(Sec(1));
  EXPECT_EQ(tracker.e2e_latency().count(), 2u);  // Two txs.
  EXPECT_NEAR(tracker.e2e_latency().MeanMs(), 40.0, 0.01);
}

TEST(CommitTrackerTest, HeightsTracked) {
  CommitTracker tracker(2);
  auto b1 = Block::Create(1, Block::Genesis(), {}, 0);
  auto b2 = Block::Create(2, b1, {}, 0);
  tracker.OnCommit(0, b1, Ms(1));
  tracker.OnCommit(0, b2, Ms(2));
  tracker.OnCommit(1, b1, Ms(3));
  EXPECT_EQ(tracker.committed_height(0), 2u);
  EXPECT_EQ(tracker.committed_height(1), 1u);
  EXPECT_EQ(tracker.max_committed_height(), 2u);
  EXPECT_EQ(tracker.committed_hash_at(2), b2->hash);
}

TEST(CommitTrackerTest, MeasurementWindowFiltersEarlyCommits) {
  CommitTracker tracker(1);
  auto warmup = Block::Create(1, Block::Genesis(), MakeTxs(1, 50), 0);
  tracker.OnPropose(0, warmup);
  tracker.OnCommit(0, warmup, Ms(1));  // Before the window starts.
  tracker.StartMeasurement(Ms(100));
  auto measured = Block::Create(2, warmup, MakeTxs(2, 70), Ms(150));
  tracker.OnPropose(0, measured);
  tracker.OnCommit(0, measured, Ms(160));
  tracker.EndMeasurement(Ms(1100));
  EXPECT_DOUBLE_EQ(tracker.ThroughputTps(), 70.0);
}

TEST(LeaderScheduleTest, RoundRobin) {
  EXPECT_EQ(LeaderOfView(0, 5), 0u);
  EXPECT_EQ(LeaderOfView(7, 5), 2u);
  EXPECT_EQ(LeaderOfView(10, 5), 0u);
}

}  // namespace
}  // namespace achilles
