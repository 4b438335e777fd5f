// Robustness edges: fuzzed deserialization, NIC egress queueing, block-store pruning,
// pacemaker behaviour under pathological timeouts, and bounded mempool and block-log state.
#include <gtest/gtest.h>

#include "src/achilles/replica.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/consensus/mempool.h"
#include "src/harness/cluster.h"

namespace achilles {
namespace {

// --- Serde fuzz: random bytes through every reader path must never crash or overflow ---

TEST(SerdeFuzzTest, RandomBytesNeverCrashReaders) {
  Rng rng(0xfadefade);
  for (int round = 0; round < 2000; ++round) {
    Bytes data;
    rng.Fill(data, rng.UniformU64(64));
    ByteReader r(ByteView(data.data(), data.size()));
    // Drive a random sequence of reads; all failures must be clean nullopts.
    for (int op = 0; op < 8; ++op) {
      switch (rng.UniformU64(7)) {
        case 0:
          (void)r.U8();
          break;
        case 1:
          (void)r.U16();
          break;
        case 2:
          (void)r.U32();
          break;
        case 3:
          (void)r.U64();
          break;
        case 4:
          (void)r.Blob();
          break;
        case 5:
          (void)r.Str();
          break;
        case 6:
          (void)r.Raw(rng.UniformU64(16));
          break;
      }
    }
    EXPECT_LE(r.remaining(), data.size());
  }
}

TEST(SerdeFuzzTest, TruncatedWriterOutputFailsCleanly) {
  ByteWriter w;
  w.Str("hello");
  w.U64(42);
  w.Blob(AsBytes("world"));
  const Bytes& full = w.bytes();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader r(ByteView(full.data(), cut));
    const auto s = r.Str();
    const auto v = r.U64();
    const auto b = r.Blob();
    // Whatever parsed must match the original prefix semantics; after any failure the
    // reader stays failed.
    if (!r.ok()) {
      EXPECT_TRUE(!s || !v || !b);
    }
  }
}

TEST(HexFuzzTest, FromHexToHexRoundTripsOnValidInput) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Bytes data;
    rng.Fill(data, rng.UniformU64(40));
    EXPECT_EQ(FromHex(ToHex(ByteView(data.data(), data.size()))), data);
  }
}

// --- NIC egress queueing ---

TEST(NicQueueTest, BroadcastCopiesSerializeOnSenderLink) {
  Simulation sim(1);
  NetworkConfig config;
  config.one_way_base = 0;
  config.one_way_jitter = 0;
  config.bandwidth_bps = 8e6;  // 1 MB/s: a 1 KB message takes 1 ms on the wire.
  Network net(&sim, config);
  struct Sink : IProcess {
    void OnMessage(uint32_t, const MessageRef&) override { ++count; }
    int count = 0;
  };
  struct Big : SimMessage {
    size_t WireSize() const override { return 1000; }
  };
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<SimTime> arrivals;
  for (uint32_t i = 0; i < 4; ++i) {
    hosts.push_back(std::make_unique<Host>(&sim, i));
    net.AddHost(hosts.back().get());
    hosts.back()->BindProcess(std::make_unique<Sink>());
  }
  // Host 0 broadcasts to 1..3: the 3 copies leave back-to-back at 1 ms spacing.
  for (uint32_t to = 1; to <= 3; ++to) {
    const SimTime arrival = net.Send(0, to, std::make_shared<Big>());
    arrivals.push_back(arrival);
  }
  EXPECT_NEAR(static_cast<double>(arrivals[0]), static_cast<double>(Ms(1)), 1e4);
  EXPECT_NEAR(static_cast<double>(arrivals[1]), static_cast<double>(Ms(2)), 1e4);
  EXPECT_NEAR(static_cast<double>(arrivals[2]), static_cast<double>(Ms(3)), 1e4);
}

TEST(NicQueueTest, SharedMachineNicContends) {
  Simulation sim(1);
  NetworkConfig config;
  config.one_way_base = 0;
  config.one_way_jitter = 0;
  config.bandwidth_bps = 8e6;
  Network net(&sim, config);
  struct Big : SimMessage {
    size_t WireSize() const override { return 1000; }
  };
  std::vector<std::unique_ptr<Host>> hosts;
  for (uint32_t i = 0; i < 3; ++i) {
    hosts.push_back(std::make_unique<Host>(&sim, i));
    net.AddHost(hosts.back().get());
  }
  net.SetMachine(1, 0);  // Hosts 0 and 1 share machine 0's NIC.
  const SimTime a = net.Send(0, 2, std::make_shared<Big>());
  const SimTime b = net.Send(1, 2, std::make_shared<Big>());
  EXPECT_GE(b, a + Ms(1) - Us(10));  // Second send queues behind the first.
}

// --- BlockStore pruning ---

TEST(PruneTest, PruneKeepsGenesisAndWindow) {
  BlockStore store;
  BlockPtr cur = Block::Genesis();
  std::vector<BlockPtr> chain;
  for (int i = 1; i <= 50; ++i) {
    cur = Block::Create(static_cast<View>(i), cur, {}, 0);
    store.Add(cur);
    chain.push_back(cur);
  }
  store.PruneBelow(40);
  EXPECT_TRUE(store.Has(Block::Genesis()->hash));
  EXPECT_FALSE(store.Has(chain[10]->hash));  // Height 11 < 40.
  EXPECT_TRUE(store.Has(chain[45]->hash));   // Height 46.
  // Ancestry above the prune line still walks (down to the pruned gap).
  EXPECT_TRUE(store.Extends(chain[49]->hash, chain[40]->hash));
}

// --- Pathological pacemaker settings ---

TEST(TimeoutStormTest, TinyTimeoutsStillMakeProgressViaBackoff) {
  // Base timeout far below the WAN RTT: every view initially times out; exponential
  // back-off must still reach a working timeout and commit.
  ClusterConfig config;
  config.protocol = Protocol::kAchilles;
  config.f = 1;
  config.batch_size = 50;
  config.payload_size = 16;
  config.net = NetworkConfig::Wan();
  config.base_timeout = Ms(5);  // RTT is 40 ms!
  config.seed = 77;
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Sec(20));
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
  EXPECT_GT(cluster.tracker().max_committed_height(), 3u);
}

TEST(TimeoutStormTest, AllProtocolsSurviveJitteryLinks) {
  // Heavy jitter (stddev = half the base delay) reorders messages aggressively.
  for (Protocol protocol : {Protocol::kAchilles, Protocol::kDamysus, Protocol::kOneShot}) {
    ClusterConfig config;
    config.protocol = protocol;
    config.f = 1;
    config.batch_size = 50;
    config.payload_size = 16;
    config.net.one_way_base = Ms(2);
    config.net.one_way_jitter = Ms(1);
    config.base_timeout = Ms(200);
    config.seed = 78;
    Cluster cluster(config);
    cluster.Start();
    cluster.sim().RunFor(Sec(3));
    EXPECT_FALSE(cluster.tracker().safety_violated())
        << ProtocolName(protocol) << ": " << cluster.tracker().violation();
    EXPECT_GT(cluster.tracker().max_committed_height(), 3u) << ProtocolName(protocol);
  }
}

// --- Retained-state soak ---

std::vector<double> SampleGauge(Cluster& cluster, const char* name) {
  cluster.RefreshFootprintGauges();
  std::vector<double> values;
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    values.push_back(cluster.metrics().GetGauge(name, {{"node", std::to_string(i)}})->value());
  }
  return values;
}

ClusterConfig SaturatedConfig(Protocol protocol) {
  ClusterConfig config;
  config.protocol = protocol;
  config.f = 1;
  config.payload_size = 64;
  config.base_timeout = Ms(100);
  return config;
}

// Under a saturating client every replica's mempool state must plateau. With two
// ever-growing id sets, every replica's id count grew by one per committed tx; without
// commit-time eviction, a stable leader's backups (Raft) queued every tx ever submitted.
// Achilles rotates leaders, so there the queue is drained by each replica's own turns.
TEST(RetainedStateSoakTest, SaturatedMempoolStateStaysBounded) {
  for (const Protocol protocol : {Protocol::kAchilles, Protocol::kRaft}) {
    SCOPED_TRACE(ProtocolName(protocol));
    const ClusterConfig config = SaturatedConfig(protocol);
    Cluster cluster(config);
    cluster.Start();
    cluster.sim().RunFor(Sec(2));
    const uint64_t committed_early = cluster.tracker().total_committed_txs();
    const std::vector<double> pending_early = SampleGauge(cluster, "mempool.pending");
    const std::vector<double> ids_early = SampleGauge(cluster, "mempool.ids_tracked");
    cluster.sim().RunFor(Sec(6));
    const std::vector<double> pending_late = SampleGauge(cluster, "mempool.pending");
    const std::vector<double> ids_late = SampleGauge(cluster, "mempool.ids_tracked");

    // Far more txs flow through than the slack below, so linear growth cannot hide in it.
    const double outstanding = 10.0 * static_cast<double>(config.batch_size);
    EXPECT_GT(cluster.tracker().total_committed_txs() - committed_early, 20 * outstanding);
    for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
      EXPECT_GT(ids_early[i], 0.0) << "replica " << i;
      EXPECT_LE(pending_late[i], pending_early[i] + outstanding) << "replica " << i;
      EXPECT_LE(ids_late[i], ids_early[i] + 2.0 * TxIdSet::kWindowWords) << "replica " << i;
    }
  }
}

// A replica rebooted mid-run first sees every client id far past the window width. Its id
// sets must still open windows, floored where its streams resume, instead of spilling
// every id for the rest of the run.
TEST(RetainedStateSoakTest, RebootedReplicaMempoolStateStaysBounded) {
  const ClusterConfig config = SaturatedConfig(Protocol::kAchilles);
  Cluster cluster(config);
  cluster.Start();
  constexpr uint32_t kVictim = 1;
  cluster.sim().RunFor(Sec(2));
  cluster.CrashReplica(kVictim);
  cluster.RebootReplica(kVictim);
  cluster.sim().RunFor(Sec(2));
  const auto* rebooted = dynamic_cast<const AchillesReplica*>(cluster.replica(kVictim));
  ASSERT_NE(rebooted, nullptr);
  ASSERT_GE(rebooted->recovery_completed_at(), 0);
  const uint64_t committed_early = cluster.tracker().committed_height(kVictim);
  const std::vector<double> ids_early = SampleGauge(cluster, "mempool.ids_tracked");
  cluster.sim().RunFor(Sec(6));
  const std::vector<double> ids_late = SampleGauge(cluster, "mempool.ids_tracked");

  // The rebooted replica keeps committing, so its streams keep flowing through its sets.
  EXPECT_GT(cluster.tracker().committed_height(kVictim), committed_early + 100);
  // Slack for ids of txs submitted before the reboot but committed after it: they sit
  // below a floor, in the spill.
  const double floor_slack = static_cast<double>(config.batch_size);
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    EXPECT_LE(ids_late[i], ids_early[i] + 2.0 * TxIdSet::kWindowWords + floor_slack)
        << "replica " << i;
  }
}

// The durable block logs' dedup sets must plateau once stable checkpoints compact the
// logs: a hash leaves the set together with its record. Without that, MinBFT's and Raft's
// sets grew by one hash per block for the whole run.
TEST(RetainedStateSoakTest, BlockLogDedupSetStaysBounded) {
  for (const Protocol protocol : {Protocol::kMinBft, Protocol::kRaft}) {
    SCOPED_TRACE(ProtocolName(protocol));
    ClusterConfig config = SaturatedConfig(protocol);
    config.ckpt.enabled = true;
    config.ckpt.interval = 8;  // MinBFT's two counter writes per block make it slow.
    Cluster cluster(config);
    cluster.Start();
    auto logged = [&cluster] {
      std::vector<size_t> sizes;
      for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
        sizes.push_back(cluster.replica(i)->block_log()->logged());
      }
      return sizes;
    };
    cluster.sim().RunFor(Sec(2));
    const Height height_early = cluster.tracker().max_committed_height();
    const std::vector<size_t> logged_early = logged();
    cluster.sim().RunFor(Sec(6));
    const std::vector<size_t> logged_late = logged();

    // Many checkpoint intervals commit in between, so linear growth cannot hide in the
    // slack below: between two compactions a log holds about one interval of blocks.
    const Height interval = config.ckpt.interval;
    EXPECT_GT(cluster.tracker().max_committed_height(), height_early + 10 * interval);
    for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
      EXPECT_GT(logged_early[i], 0u) << "replica " << i;
      EXPECT_LE(logged_late[i], logged_early[i] + 2 * interval) << "replica " << i;
    }
  }
}

}  // namespace
}  // namespace achilles
