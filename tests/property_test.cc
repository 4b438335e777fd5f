// Property-based suites: protocol-independent invariants checked over a parameter grid of
// (protocol, f, network, seed), plus chain-structure properties enforced through the
// commit stream.
#include <gtest/gtest.h>

#include <tuple>

#include "src/common/rng.h"
#include "src/harness/cluster.h"
#include "src/harness/fault_script.h"

namespace achilles {
namespace {

enum class NetKind { kLan, kWan };

using GridParam = std::tuple<Protocol, uint32_t /*f*/, NetKind, uint64_t /*seed*/>;

ClusterConfig ConfigFor(const GridParam& param) {
  ClusterConfig config;
  config.protocol = std::get<0>(param);
  config.f = std::get<1>(param);
  config.batch_size = 50;
  config.payload_size = 32;
  if (std::get<2>(param) == NetKind::kLan) {
    config.net = NetworkConfig::Lan();
    config.base_timeout = Ms(100);
  } else {
    // Scaled-down WAN (RTT 8 ms) keeps the grid fast while preserving asynchrony.
    config.net = NetworkConfig::Wan();
    config.net.one_way_base = Ms(4);
    config.base_timeout = Ms(400);
  }
  config.seed = std::get<3>(param);
  return config;
}

SimDuration RunFor(const GridParam& param) {
  return std::get<2>(param) == NetKind::kLan ? Sec(2) : Sec(4);
}

class InvariantGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(InvariantGrid, SafetyLivenessAndChainStructure) {
  Cluster cluster(ConfigFor(GetParam()));

  // Chain-structure audit via the commit stream: per replica, committed heights are
  // strictly increasing and (absent state transfer) parent-linked.
  std::vector<Height> last_height(cluster.num_replicas(), 0);
  std::vector<Hash256> last_hash(cluster.num_replicas(), Block::Genesis()->hash);
  bool heights_monotone = true;
  bool parents_linked = true;
  cluster.tracker().AddCommitListener(
      [&](NodeId replica, const BlockPtr& block, SimTime /*now*/) {
        if (block->height <= last_height[replica]) {
          heights_monotone = false;
        }
        if (block->height == last_height[replica] + 1 &&
            block->parent != last_hash[replica]) {
          parents_linked = false;
        }
        last_height[replica] = block->height;
        last_hash[replica] = block->hash;
      });

  cluster.Start();
  cluster.sim().RunFor(RunFor(GetParam()));

  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
  EXPECT_GT(cluster.tracker().max_committed_height(), 3u) << "liveness";
  EXPECT_TRUE(heights_monotone);
  EXPECT_TRUE(parents_linked);
  // All correct replicas converge to within a small window of the max height.
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    EXPECT_GE(cluster.tracker().committed_height(i) + 10,
              cluster.tracker().max_committed_height())
        << "replica " << i << " lagging";
  }
}

std::string GridName(const ::testing::TestParamInfo<GridParam>& info) {
  std::string name = ProtocolName(std::get<0>(info.param));
  std::erase(name, '-');
  name += "_f" + std::to_string(std::get<1>(info.param));
  name += std::get<2>(info.param) == NetKind::kLan ? "_lan" : "_wan";
  name += "_s" + std::to_string(std::get<3>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InvariantGrid,
    ::testing::Combine(::testing::Values(Protocol::kAchilles, Protocol::kDamysus,
                                         Protocol::kOneShot, Protocol::kFlexiBft,
                                         Protocol::kRaft),
                       ::testing::Values(1u, 2u), ::testing::Values(NetKind::kLan, NetKind::kWan),
                       ::testing::Values(101u, 202u)),
    GridName);

// --- Determinism across the grid ---

class DeterminismGrid : public ::testing::TestWithParam<Protocol> {};

TEST_P(DeterminismGrid, IdenticalSeedsIdenticalHistories) {
  auto run = [&](uint64_t seed) {
    GridParam param{GetParam(), 1, NetKind::kLan, seed};
    Cluster cluster(ConfigFor(param));
    std::vector<Hash256> commits;
    cluster.tracker().AddCommitListener(
        [&](NodeId replica, const BlockPtr& block, SimTime now) {
          if (replica == 0) {
            commits.push_back(block->hash);
            (void)now;
          }
        });
    cluster.Start();
    cluster.sim().RunFor(Sec(1));
    return commits;
  };
  const auto a = run(77);
  const auto b = run(77);
  const auto c = run(78);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a, c);  // Different seed, different jitter, different history.
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, DeterminismGrid,
                         ::testing::Values(Protocol::kAchilles, Protocol::kDamysus,
                                           Protocol::kOneShot, Protocol::kFlexiBft,
                                           Protocol::kRaft),
                         [](const auto& param_info) {
                           std::string name = ProtocolName(param_info.param);
                           std::erase(name, '-');
                           return name;
                         });

// --- Crash-churn property: random crash/reboot schedules never break safety ---

class CrashChurn : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashChurn, AchillesSurvivesRandomCrashRebootSchedules) {
  ClusterConfig config;
  config.protocol = Protocol::kAchilles;
  config.f = 2;
  config.batch_size = 50;
  config.payload_size = 32;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(100);
  config.seed = GetParam();
  Cluster cluster(config);
  cluster.Start();

  Rng rng(GetParam() ^ 0xc4a5);
  // Repeatedly: run a bit, crash a random victim (at most f down at once), maybe roll back
  // its storage, reboot it later.
  std::vector<bool> down(cluster.num_replicas(), false);
  uint32_t num_down = 0;
  for (int round = 0; round < 6; ++round) {
    cluster.sim().RunFor(Ms(300 + rng.UniformU64(300)));
    if (num_down < config.f && rng.Chance(0.8)) {
      uint32_t victim = static_cast<uint32_t>(rng.UniformU64(cluster.num_replicas()));
      if (!down[victim]) {
        cluster.CrashReplica(victim);
        down[victim] = true;
        ++num_down;
        if (rng.Chance(0.5)) {
          cluster.platform(victim).storage().SetRollbackMode(
              rng.Chance(0.5) ? RollbackMode::kOldest : RollbackMode::kErase);
        }
        cluster.RebootReplica(victim);
      }
    }
    // Reboots complete within the init delay + recovery; count them back up.
    cluster.sim().RunFor(Ms(600));
    for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
      if (down[i]) {
        down[i] = false;
        --num_down;
      }
    }
  }
  cluster.sim().RunFor(Sec(2));
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
  EXPECT_GT(cluster.tracker().max_committed_height(), 50u);
  // Everyone (including all reboot survivors) converges.
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    EXPECT_GE(cluster.tracker().committed_height(i) + 20,
              cluster.tracker().max_committed_height())
        << "replica " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashChurn, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- Partition healing ---

TEST(PartitionTest, AchillesHealsAfterPartition) {
  ClusterConfig config;
  config.protocol = Protocol::kAchilles;
  config.f = 1;
  config.batch_size = 50;
  config.payload_size = 32;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(100);
  config.seed = 31;
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Ms(500));
  const Height before = cluster.tracker().max_committed_height();
  // Isolate replica 0 from {1, 2}: the majority side keeps going.
  cluster.net().Partition({{0}, {1, 2}});
  cluster.sim().RunFor(Sec(1));
  const Height during = cluster.tracker().max_committed_height();
  EXPECT_GT(during, before);
  // Heal; replica 0 catches up.
  cluster.net().ClearPartition();
  cluster.sim().RunFor(Sec(2));
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
  EXPECT_GE(cluster.tracker().committed_height(0) + 10,
            cluster.tracker().max_committed_height());
}

TEST(PartitionTest, MinoritySideCannotCommit) {
  ClusterConfig config;
  config.protocol = Protocol::kAchilles;
  config.f = 2;
  config.batch_size = 50;
  config.payload_size = 32;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(100);
  config.seed = 32;
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Ms(500));
  // Split 2 vs 3 (quorum = 3): only the majority side advances.
  cluster.net().Partition({{0, 1}, {2, 3, 4}});
  const Height h0 = cluster.tracker().committed_height(0);
  cluster.sim().RunFor(Sec(2));
  EXPECT_LE(cluster.tracker().committed_height(0), h0 + 1);
  EXPECT_GT(cluster.tracker().committed_height(3), h0 + 5);
  EXPECT_FALSE(cluster.tracker().safety_violated());
}

// Pacemaker journal property: every view a replica enters is journaled, so a live
// replica's latest view-enter record names the view it is in. Checked at the end of a few
// sampled chaos scripts (crashes, reboots, partitions, stalls, Byzantine peers) per
// back-off family, with the flight recorder on. Raft keeps its own term and is not one.
TEST(PacemakerJournalTest, LatestViewEnterIsTheCurrentView) {
  for (Protocol protocol : {Protocol::kAchilles, Protocol::kDamysus, Protocol::kOneShot,
                            Protocol::kHotStuff, Protocol::kFlexiBft, Protocol::kMinBft}) {
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
      Rng rng(seed);
      ScriptParams params;
      params.protocol = protocol;
      params.heal_at = Ms(1400);
      params.liveness_window = Sec(3);
      const FaultScript script = SampleFaultScript(params, rng);
      ClusterConfig config;
      config.protocol = protocol;
      config.batch_size = 20;
      config.payload_size = 16;
      config.base_timeout = Ms(100);
      config.client_rate_tps = 500.0;
      config.seed = seed;
      config.journaling = true;
      config.ckpt.enabled = true;
      config.ckpt.interval = 8;
      Cluster cluster(config);
      cluster.InstallFaultScript(script);
      cluster.Start();
      cluster.sim().RunUntil(script.horizon);
      const obs::Journal& journal = *cluster.recorder().journal();
      for (uint32_t id = 0; id < cluster.num_replicas(); ++id) {
        const ReplicaBase* replica = cluster.replica(id);
        if (replica == nullptr) {
          continue;  // Crashed and not rebooted.
        }
        // Records of the current incarnation only; none yet means the view is still 0
        // (an Achilles replica whose recovery has not finished).
        uint64_t latest = 0;
        for (const obs::JournalRecord& record : journal.NodeEvents(id)) {
          if (record.kind == obs::JournalKind::kViewEnter &&
              record.incarnation == journal.incarnation(id)) {
            latest = record.a;
          }
        }
        EXPECT_EQ(latest, replica->view())
            << ProtocolName(protocol) << " seed " << seed << " node " << id;
      }
    }
  }
}

}  // namespace
}  // namespace achilles
