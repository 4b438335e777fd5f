// Tests for the baseline protocols: Damysus(-R), OneShot(-R), FlexiBFT, Raft — plus the
// cross-protocol ordering the paper's evaluation depends on.
#include <gtest/gtest.h>

#include "src/damysus/replica.h"
#include "src/harness/cluster.h"
#include "src/oneshot/replica.h"
#include "src/raft/replica.h"

namespace achilles {
namespace {

ClusterConfig Config(Protocol protocol, uint32_t f = 1, uint64_t seed = 21) {
  ClusterConfig config;
  config.protocol = protocol;
  config.f = f;
  config.batch_size = 100;
  config.payload_size = 64;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(200);
  config.seed = seed;
  return config;
}

class ProtocolLiveness : public ::testing::TestWithParam<Protocol> {};

TEST_P(ProtocolLiveness, CommitsAndStaysSafe) {
  Cluster cluster(Config(GetParam()));
  cluster.Start();
  cluster.sim().RunFor(Sec(3));
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
  EXPECT_GT(cluster.tracker().max_committed_height(), 5u);
  EXPECT_GT(cluster.tracker().total_committed_txs(), 400u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolLiveness,
                         ::testing::Values(Protocol::kAchilles, Protocol::kAchillesC,
                                           Protocol::kDamysus, Protocol::kDamysusR,
                                           Protocol::kOneShot, Protocol::kOneShotR,
                                           Protocol::kFlexiBft, Protocol::kRaft),
                         [](const auto& param_info) {
                           std::string name = ProtocolName(param_info.param);
                           std::erase(name, '-');
                           return name;
                         });

TEST(DamysusTest, CounterWritesOnlyInRVariant) {
  Cluster plain(Config(Protocol::kDamysus));
  plain.Start();
  plain.sim().RunFor(Sec(1));
  EXPECT_EQ(plain.TotalCounterWrites(), 0u);

  Cluster with_r(Config(Protocol::kDamysusR));
  with_r.Start();
  with_r.sim().RunFor(Sec(1));
  EXPECT_GT(with_r.TotalCounterWrites(), 10u);
}

TEST(DamysusTest, DamysusRCounterMakesItSlow) {
  // The 20 ms counter write dominates the LAN view time: Damysus-R commits far fewer
  // blocks than plain Damysus in the same interval.
  Cluster plain(Config(Protocol::kDamysus, 1, 3));
  const RunStats fast = plain.RunMeasured(Ms(500), Sec(3));
  Cluster with_r(Config(Protocol::kDamysusR, 1, 3));
  const RunStats slow = with_r.RunMeasured(Ms(500), Sec(3));
  EXPECT_GT(fast.throughput_tps, 4.0 * slow.throughput_tps);
  EXPECT_GT(slow.commit_latency_ms, 40.0);  // >= 2 serialized counter writes.
}

TEST(DamysusTest, RollbackDetectedByCounterHaltsNode) {
  // Damysus-R: adversary serves a stale seal at reboot; the version/counter mismatch is
  // detected and the node crash-stops instead of equivocating.
  Cluster cluster(Config(Protocol::kDamysusR));
  cluster.Start();
  cluster.sim().RunFor(Sec(2));
  cluster.CrashReplica(2);
  cluster.platform(2).storage().SetRollbackMode(RollbackMode::kOldest);
  cluster.RebootReplica(2);
  cluster.sim().RunFor(Sec(1));
  auto* rebooted = dynamic_cast<DamysusReplica*>(cluster.replica(2));
  ASSERT_NE(rebooted, nullptr);
  EXPECT_TRUE(rebooted->halted());
  EXPECT_FALSE(cluster.tracker().safety_violated());
}

TEST(DamysusTest, HonestRebootRestoresFromSeal) {
  Cluster cluster(Config(Protocol::kDamysusR));
  cluster.Start();
  cluster.sim().RunFor(Sec(2));
  cluster.CrashReplica(2);
  cluster.RebootReplica(2);  // Honest OS: latest seal matches the counter.
  cluster.sim().RunFor(Sec(2));
  auto* rebooted = dynamic_cast<DamysusReplica*>(cluster.replica(2));
  ASSERT_NE(rebooted, nullptr);
  EXPECT_FALSE(rebooted->halted());
  EXPECT_GT(rebooted->view(), 0u);
  EXPECT_FALSE(cluster.tracker().safety_violated());
}

TEST(DamysusTest, PlainDamysusAcceptsRolledBackState) {
  // Without the counter, the rolled-back seal restores silently — the unprotected node
  // resumes from a stale trusted view. This is the §2.1 vulnerability Achilles avoids
  // without paying for a counter.
  Cluster cluster(Config(Protocol::kDamysus));
  cluster.Start();
  cluster.sim().RunFor(Sec(2));
  auto* before = dynamic_cast<DamysusReplica*>(cluster.replica(2));
  ASSERT_NE(before, nullptr);
  const View view_before_crash = before->checker()->vi();
  ASSERT_GT(view_before_crash, 4u);
  cluster.CrashReplica(2);
  cluster.platform(2).storage().SetRollbackMode(RollbackMode::kOldest);
  // Isolate the victim so we can observe the restored state before live traffic fast-
  // forwards its (untrusted-view-driven) checker again.
  cluster.net().Partition({{2}, {0, 1}});
  cluster.RebootReplica(2);
  cluster.sim().RunFor(Ms(500));
  auto* rebooted = dynamic_cast<DamysusReplica*>(cluster.replica(2));
  ASSERT_NE(rebooted, nullptr);
  ASSERT_FALSE(rebooted->halted());
  // The stale state was accepted: the trusted view regressed far below the crash view,
  // re-arming certificates the node may already have issued.
  EXPECT_LT(rebooted->checker()->vi(), view_before_crash);
}

TEST(OneShotTest, SteadyStateUsesFastPath) {
  Cluster cluster(Config(Protocol::kOneShot));
  cluster.Start();
  cluster.sim().RunFor(Sec(2));
  uint64_t fast = 0;
  uint64_t slow = 0;
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    auto* replica = dynamic_cast<OneShotReplica*>(cluster.replica(i));
    ASSERT_NE(replica, nullptr);
    fast += replica->fast_views();
    slow += replica->slow_views();
  }
  EXPECT_GT(fast, 10u);
  EXPECT_LT(slow, fast / 5 + 2);  // The slow path only bootstraps / recovers from timeouts.
}

TEST(OneShotTest, OneShotRFasterThanDamysusR) {
  // One counter write per node per view (fast path) vs two.
  Cluster oneshot(Config(Protocol::kOneShotR, 1, 4));
  const RunStats os = oneshot.RunMeasured(Ms(500), Sec(3));
  Cluster damysus(Config(Protocol::kDamysusR, 1, 4));
  const RunStats dam = damysus.RunMeasured(Ms(500), Sec(3));
  EXPECT_GT(os.throughput_tps, dam.throughput_tps);
  EXPECT_LT(os.commit_latency_ms, dam.commit_latency_ms);
}

TEST(FlexiBftTest, UsesThreeFPlusOneReplicas) {
  Cluster cluster(Config(Protocol::kFlexiBft, /*f=*/2));
  EXPECT_EQ(cluster.num_replicas(), 7u);
}

TEST(FlexiBftTest, QuadraticMessageComplexity) {
  // Messages per committed block grow ~quadratically for FlexiBFT, linearly for Achilles.
  auto msgs_per_block = [](Protocol protocol, uint32_t f) {
    Cluster cluster(Config(protocol, f, 6));
    RunStats stats = cluster.RunMeasured(Ms(500), Sec(2));
    return stats.committed_blocks > 0
               ? static_cast<double>(stats.messages) / static_cast<double>(stats.committed_blocks)
               : 0.0;
  };
  const double flexi_small = msgs_per_block(Protocol::kFlexiBft, 1);   // n = 4.
  const double flexi_large = msgs_per_block(Protocol::kFlexiBft, 3);   // n = 10.
  const double ach_small = msgs_per_block(Protocol::kAchilles, 1);     // n = 3.
  const double ach_large = msgs_per_block(Protocol::kAchilles, 4);     // n = 9 (3x).
  ASSERT_GT(flexi_small, 0.0);
  ASSERT_GT(ach_small, 0.0);
  // 2.5x nodes: vote traffic alone grows ~6.25x for FlexiBFT; Achilles stays linear.
  EXPECT_GT(flexi_large / flexi_small, 3.0);
  EXPECT_LT(ach_large / ach_small, 4.5);
}

TEST(FlexiBftTest, LeaderOnlyCounterAccess) {
  Cluster cluster(Config(Protocol::kFlexiBft, 1, 8));
  cluster.Start();
  cluster.sim().RunFor(Sec(2));
  // All counter writes happen on the (stable) leader, node 0.
  EXPECT_GT(cluster.platform(0).counter().writes(), 5u);
  for (uint32_t i = 1; i < cluster.num_replicas(); ++i) {
    EXPECT_EQ(cluster.platform(i).counter().writes(), 0u) << "node " << i;
  }
}

TEST(FlexiBftTest, SurvivesLeaderCrash) {
  Cluster cluster(Config(Protocol::kFlexiBft, 1, 9));
  cluster.Start();
  cluster.sim().RunFor(Sec(1));
  const Height before = cluster.tracker().max_committed_height();
  ASSERT_GT(before, 0u);
  cluster.CrashReplica(0);  // The stable leader.
  cluster.sim().RunFor(Sec(4));
  EXPECT_GT(cluster.tracker().max_committed_height(), before);
  EXPECT_FALSE(cluster.tracker().safety_violated());
}

TEST(RaftTest, LeaderElectionAfterCrash) {
  Cluster cluster(Config(Protocol::kRaft, 1, 10));
  cluster.Start();
  cluster.sim().RunFor(Sec(1));
  const Height before = cluster.tracker().max_committed_height();
  ASSERT_GT(before, 0u);
  cluster.CrashReplica(0);  // Initial leader.
  cluster.sim().RunFor(Sec(4));
  EXPECT_GT(cluster.tracker().max_committed_height(), before + 5);
  // Exactly one of the survivors is leader.
  int leaders = 0;
  for (uint32_t i = 1; i < cluster.num_replicas(); ++i) {
    auto* replica = dynamic_cast<RaftReplica*>(cluster.replica(i));
    ASSERT_NE(replica, nullptr);
    if (replica->role() == RaftReplica::Role::kLeader) {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1);
}

TEST(RaftTest, NoCryptoNoCounters) {
  Cluster cluster(Config(Protocol::kRaft));
  cluster.Start();
  cluster.sim().RunFor(Sec(1));
  EXPECT_EQ(cluster.TotalCounterWrites(), 0u);
}

TEST(CrossProtocolTest, LanThroughputOrderingMatchesPaper) {
  // Fig. 3c's ordering: Achilles >> FlexiBFT > OneShot-R > Damysus-R in LAN with the
  // paper's 20 ms counter.
  auto tput = [](Protocol protocol) {
    Cluster cluster(Config(protocol, 1, 12));
    return cluster.RunMeasured(Ms(500), Sec(3)).throughput_tps;
  };
  const double achilles = tput(Protocol::kAchilles);
  const double flexi = tput(Protocol::kFlexiBft);
  const double oneshot = tput(Protocol::kOneShotR);
  const double damysus = tput(Protocol::kDamysusR);
  EXPECT_GT(achilles, flexi);
  EXPECT_GT(flexi, oneshot);
  EXPECT_GT(oneshot, damysus);
  EXPECT_GT(achilles, 5.0 * damysus);
}

}  // namespace
}  // namespace achilles
