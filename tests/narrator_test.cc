// Tests for the Narrator software-counter service (emergent Table 4 latencies).
#include <gtest/gtest.h>

#include <memory>

#include "src/damysus/replica.h"
#include "src/tee/enclave.h"
#include "src/tee/narrator.h"
#include "src/tee/platform.h"

namespace achilles {
namespace {

// Restores Damysus' checker (n = 4, f = 1) from the sealed state on `enclave`'s platform.
std::unique_ptr<SealedVoteChecker> RestoreDamysus(EnclaveRuntime* enclave) {
  return SealedVoteChecker::Restore(enclave, 4, 1, kDamysusSealSlot, kDamysusWire.domains);
}

TEST(NarratorTest, LanLatenciesMatchTable4) {
  const NarratorResult result =
      MeasureNarrator(NetworkConfig::Lan(), NarratorParams{}, /*ops=*/50, /*seed=*/3);
  EXPECT_EQ(result.increments, 50u);
  // Paper's Table 4: Narrator-LAN write 8-10 ms, read 4-5 ms.
  EXPECT_GT(result.write_ms, 7.0);
  EXPECT_LT(result.write_ms, 11.0);
  EXPECT_GT(result.read_ms, 3.0);
  EXPECT_LT(result.read_ms, 6.0);
}

TEST(NarratorTest, WanLatencyIsRttDominated) {
  const NarratorResult result =
      MeasureNarrator(NetworkConfig::Wan(), NarratorParams{}, /*ops=*/20, /*seed=*/4);
  // Paper's Table 4: Narrator-WAN write 40-50 ms (one broadcast round trip + processing).
  EXPECT_GT(result.write_ms, 40.0);
  EXPECT_LT(result.write_ms, 55.0);
  // The paper's 25 ms WAN read is below one 40 ms RTT — impossible for a quorum read in
  // this deployment (their number comes from Narrator's own, lower-RTT WAN); ours pays the
  // full round trip.
  EXPECT_GT(result.read_ms, 40.0);
}

TEST(NarratorTest, QuorumToleratesSlowMinority) {
  // Completion needs only a majority of monitors: doubling the processing cost on the
  // slowest (simulated by raising global processing) raises latency proportionally.
  NarratorParams slow;
  slow.write_processing = FromMs(16.0);
  const NarratorResult fast =
      MeasureNarrator(NetworkConfig::Lan(), NarratorParams{}, 20, 5);
  const NarratorResult slower = MeasureNarrator(NetworkConfig::Lan(), slow, 20, 5);
  EXPECT_GT(slower.write_ms, fast.write_ms + 3.0);
}

TEST(NarratorTest, MonitorCountChangesQuorumDepth) {
  NarratorParams small;
  small.num_monitors = 4;
  const NarratorResult result = MeasureNarrator(NetworkConfig::Lan(), small, 20, 6);
  EXPECT_GT(result.write_ms, 0.0);
  EXPECT_EQ(result.increments, 20u);
}

// A Narrator-backed persistent counter is a drop-in rollback detector: a checker bound to
// it refuses any rolled-back sealed blob at reboot, exactly like a hardware counter —
// just with the software service's (higher) write latency charged per mutation.
TEST(NarratorTest, NarratorCounterDetectsSealRollback) {
  Simulation sim(31);
  Host host(&sim, 0);
  CryptoSuite suite(SignatureScheme::kFastHmac, 4, 17);
  TeeConfig tee;
  tee.components_in_tee = true;
  tee.counter = CounterSpec::For(CounterKind::kNarratorLan);
  NodePlatform platform(&host, &suite, CostModel::Default(), tee, 9);
  auto enclave = std::make_unique<EnclaveRuntime>(&platform);
  {
    SealedVoteChecker checker(enclave.get(), 4, 1, kDamysusSealSlot,
                              kDamysusWire.domains);
    ASSERT_TRUE(checker.NewView(1).has_value());
    ASSERT_TRUE(checker.NewView(2).has_value());
  }
  // Each persisted mutation paid the Narrator write path on the host clock.
  EXPECT_GE(host.cpu_time_used(), 2 * tee.counter.write_latency);
  // Reboot against the oldest sealed blob: version < counter, the checker refuses to run.
  platform.storage().SetRollbackMode(RollbackMode::kOldest);
  enclave = std::make_unique<EnclaveRuntime>(&platform);
  EXPECT_EQ(RestoreDamysus(enclave.get()), nullptr);
  // The honest latest blob restores.
  platform.storage().SetRollbackMode(RollbackMode::kLatest);
  enclave = std::make_unique<EnclaveRuntime>(&platform);
  auto restored = RestoreDamysus(enclave.get());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->vi(), 2u);
}

TEST(NarratorTest, Deterministic) {
  const NarratorResult a = MeasureNarrator(NetworkConfig::Lan(), NarratorParams{}, 10, 7);
  const NarratorResult b = MeasureNarrator(NetworkConfig::Lan(), NarratorParams{}, 10, 7);
  EXPECT_DOUBLE_EQ(a.write_ms, b.write_ms);
  EXPECT_DOUBLE_EQ(a.read_ms, b.read_ms);
}

}  // namespace
}  // namespace achilles
