#include "src/consensus/commit_tracker.h"

#include <cstdio>

namespace achilles {

CommitTracker::CommitTracker(uint32_t num_replicas)
    : num_replicas_(num_replicas),
      replica_height_(num_replicas, 0),
      replica_committed_(num_replicas) {}

void CommitTracker::OnPropose(NodeId proposer, const BlockPtr& block) {
  proposals_.emplace(block->hash, Proposal{proposer, block->propose_time});
  for (const ProposeListener& listener : propose_listeners_) {
    listener(proposer, block);
  }
}

NodeId CommitTracker::ProposerOf(const Hash256& hash) const {
  auto it = proposals_.find(hash);
  return it == proposals_.end() ? kNoProposer : it->second.proposer;
}

void CommitTracker::OnCommit(NodeId replica, const BlockPtr& block, SimTime now) {
  if (replica >= num_replicas_ || byzantine_.count(replica) > 0) {
    return;
  }
  if (!replica_committed_[replica].insert(block->hash).second) {
    return;  // This replica already committed this block.
  }
  replica_height_[replica] = std::max(replica_height_[replica], block->height);
  for (const CommitListener& listener : listeners_) {
    listener(replica, block, now);
  }

  // Safety audit: two correct replicas must never commit different blocks at one height.
  auto [it, inserted] = height_to_hash_.emplace(block->height, block->hash);
  if (!inserted && it->second != block->hash && violation_.empty()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "safety violation at height %llu: replica %u committed %s, earlier commit was %s",
                  static_cast<unsigned long long>(block->height), replica,
                  HashAbbrev(block->hash).c_str(), HashAbbrev(it->second).c_str());
    violation_ = buf;
  }

  if (first_committed_.insert(block->hash).second) {
    ++blocks_committed_;
    txs_committed_total_ += block->txs.size();
    auto proposal = proposals_.find(block->hash);
    const bool in_window = measuring_ && (window_end_ < 0 || now <= window_end_);
    if (in_window && now >= window_start_) {
      txs_in_window_ += block->txs.size();
      if (proposal != proposals_.end()) {
        commit_latency_.Record(now - proposal->second.propose_time);
      }
    }
  }
}

void CommitTracker::OnClientConfirm(const BlockPtr& block, SimTime now,
                                    const obs::Path* path) {
  if (!client_confirmed_.insert(block->hash).second) {
    return;
  }
  const bool in_window = measuring_ && now >= window_start_ && (window_end_ < 0 || now <= window_end_);
  if (!in_window) {
    return;
  }
  int64_t submit_sum = 0;
  for (const Transaction& tx : block->txs) {
    e2e_latency_.Record(now - tx.submit_time);
    submit_sum += tx.submit_time;
  }
  // Attribution mirrors the e2e recorder exactly (same gating, same per-tx weighting), so
  // component means sum to the reported mean e2e latency.
  if (breakdown_ != nullptr && path != nullptr) {
    breakdown_->OnConfirm(*path, now, submit_sum, block->txs.size());
  }
  if (recorder_ != nullptr && path != nullptr) {
    recorder_->Confirm(*path, block->height, now, submit_sum, block->txs.size());
  }
}

void CommitTracker::StartMeasurement(SimTime now) {
  measuring_ = true;
  window_start_ = now;
  window_end_ = -1;
  txs_in_window_ = 0;
  commit_latency_.Reset();
  e2e_latency_.Reset();
  if (breakdown_ != nullptr) {
    breakdown_->Reset();
  }
  if (recorder_ != nullptr) {
    recorder_->ResetWindow();
  }
}

void CommitTracker::EndMeasurement(SimTime now) {
  window_end_ = now;
  measuring_ = false;
}

double CommitTracker::ThroughputTps() const {
  if (window_end_ <= window_start_) {
    return 0.0;
  }
  return static_cast<double>(txs_in_window_) /
         (static_cast<double>(window_end_ - window_start_) / kSecond);
}

Height CommitTracker::committed_height(NodeId replica) const {
  return replica < num_replicas_ ? replica_height_[replica] : 0;
}

Height CommitTracker::max_committed_height() const {
  Height best = 0;
  for (Height h : replica_height_) {
    best = std::max(best, h);
  }
  return best;
}

Hash256 CommitTracker::committed_hash_at(Height h) const {
  auto it = height_to_hash_.find(h);
  return it == height_to_hash_.end() ? ZeroHash() : it->second;
}

}  // namespace achilles
