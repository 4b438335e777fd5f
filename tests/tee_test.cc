#include <gtest/gtest.h>

#include <memory>

#include "src/damysus/replica.h"
#include "src/tee/enclave.h"
#include "src/tee/monotonic_counter.h"
#include "src/tee/platform.h"
#include "src/tee/sealed_storage.h"

namespace achilles {
namespace {

// Restores Damysus' checker (n = 4, f = 1) from the sealed state on `enclave`'s platform.
std::unique_ptr<SealedVoteChecker> RestoreDamysus(EnclaveRuntime* enclave,
                                                  bool break_restore_verify = false) {
  return SealedVoteChecker::Restore(enclave, 4, 1, kDamysusSealSlot, kDamysusWire.domains,
                                    break_restore_verify);
}

struct TeeFixture {
  TeeFixture(bool in_tee = true, CounterSpec counter = CounterSpec::None())
      : sim(11), host(&sim, 0), suite(SignatureScheme::kFastHmac, 4, 99) {
    TeeConfig tee;
    tee.components_in_tee = in_tee;
    tee.counter = counter;
    platform = std::make_unique<NodePlatform>(&host, &suite, CostModel::Default(), tee, 7);
  }
  Simulation sim;
  Host host;
  CryptoSuite suite;
  std::unique_ptr<NodePlatform> platform;
};

// --- SealedStorage (raw, no crypto) ---

TEST(SealedStorageTest, HonestModeServesLatest) {
  SealedStorage s;
  s.Put("k", Bytes{1});
  s.Put("k", Bytes{2});
  s.Put("k", Bytes{3});
  EXPECT_EQ(s.Get("k").value(), Bytes{3});
  EXPECT_EQ(s.NumVersions("k"), 3u);
}

TEST(SealedStorageTest, OldestModeRollsBack) {
  SealedStorage s;
  s.Put("k", Bytes{1});
  s.Put("k", Bytes{2});
  s.SetRollbackMode(RollbackMode::kOldest);
  EXPECT_EQ(s.Get("k").value(), Bytes{1});
}

TEST(SealedStorageTest, PinnedModeServesChosenVersion) {
  SealedStorage s;
  s.Put("k", Bytes{1});
  s.Put("k", Bytes{2});
  s.Put("k", Bytes{3});
  s.SetRollbackMode(RollbackMode::kPinned);
  s.PinServedVersion("k", 1);
  EXPECT_EQ(s.Get("k").value(), Bytes{2});
}

TEST(SealedStorageTest, EraseModeHidesEverything) {
  SealedStorage s;
  s.Put("k", Bytes{1});
  s.SetRollbackMode(RollbackMode::kErase);
  EXPECT_FALSE(s.Get("k").has_value());
}

TEST(SealedStorageTest, MissingKeyIsEmpty) {
  SealedStorage s;
  EXPECT_FALSE(s.Get("nope").has_value());
  EXPECT_EQ(s.NumVersions("nope"), 0u);
}

// --- MonotonicCounter ---

TEST(MonotonicCounterTest, IncrementChargesWriteLatency) {
  TeeFixture f(true, CounterSpec::Custom(Ms(20), Ms(5)));
  MonotonicCounter& counter = f.platform->counter();
  EXPECT_EQ(counter.IncrementBlocking(), 1u);
  EXPECT_EQ(counter.IncrementBlocking(), 2u);
  EXPECT_EQ(f.host.cpu_time_used(), Ms(40));
  EXPECT_EQ(counter.writes(), 2u);
}

TEST(MonotonicCounterTest, ReadChargesReadLatency) {
  TeeFixture f(true, CounterSpec::Custom(Ms(20), Ms(5)));
  MonotonicCounter& counter = f.platform->counter();
  counter.IncrementBlocking();
  EXPECT_EQ(counter.ReadBlocking(), 1u);
  EXPECT_EQ(f.host.cpu_time_used(), Ms(25));
}

TEST(MonotonicCounterTest, DisabledCounterIsFree) {
  TeeFixture f(true, CounterSpec::None());
  f.platform->counter().IncrementBlocking();
  EXPECT_EQ(f.host.cpu_time_used(), 0);
}

TEST(MonotonicCounterTest, SpecPresetsMatchTable4) {
  EXPECT_EQ(CounterSpec::For(CounterKind::kTpm).write_latency, Ms(97));
  EXPECT_EQ(CounterSpec::For(CounterKind::kTpm).read_latency, Ms(35));
  EXPECT_EQ(CounterSpec::For(CounterKind::kSgx).write_latency, Ms(160));
  EXPECT_EQ(CounterSpec::For(CounterKind::kNarratorLan).write_latency, FromMs(9.0));
  EXPECT_EQ(CounterSpec::For(CounterKind::kNarratorWan).write_latency, Ms(45));
  EXPECT_FALSE(CounterSpec::None().enabled());
}

// --- EnclaveRuntime: sealing ---

TEST(EnclaveTest, SealUnsealRoundTrip) {
  TeeFixture f;
  EnclaveRuntime enclave(f.platform.get());
  const Bytes state = {9, 8, 7, 6, 5};
  enclave.sealed_store().Put("checker", ByteView(state.data(), state.size()));
  EXPECT_EQ(enclave.sealed_store().Get("checker").value(), state);
}

TEST(EnclaveTest, SealedBlobIsEncrypted) {
  TeeFixture f;
  EnclaveRuntime enclave(f.platform.get());
  const Bytes state = {'s', 'e', 'c', 'r', 'e', 't'};
  enclave.sealed_store().Put("slot", ByteView(state.data(), state.size()));
  const Bytes blob = f.platform->storage().Get("slot").value();
  // The plaintext must not appear in the stored blob.
  const std::string blob_str(blob.begin(), blob.end());
  EXPECT_EQ(blob_str.find("secret"), std::string::npos);
}

TEST(EnclaveTest, TamperedBlobRejected) {
  TeeFixture f;
  EnclaveRuntime enclave(f.platform.get());
  const Bytes state = {1, 2, 3};
  enclave.sealed_store().Put("slot", ByteView(state.data(), state.size()));
  Bytes blob = f.platform->storage().Get("slot").value();
  blob[blob.size() / 2] ^= 0xff;
  f.platform->storage().Put("slot", blob);  // Adversary writes a forged version.
  EXPECT_FALSE(enclave.sealed_store().Get("slot").has_value());
}

TEST(EnclaveTest, RollbackServesStaleButAuthenticState) {
  // The essence of the rollback attack: the old blob still unseals fine.
  TeeFixture f;
  EnclaveRuntime enclave(f.platform.get());
  const Bytes v1 = {1};
  const Bytes v2 = {2};
  enclave.sealed_store().Put("slot", ByteView(v1.data(), v1.size()));
  enclave.sealed_store().Put("slot", ByteView(v2.data(), v2.size()));
  f.platform->storage().SetRollbackMode(RollbackMode::kOldest);
  EXPECT_EQ(enclave.sealed_store().Get("slot").value(), v1);  // Stale state accepted!
}

TEST(EnclaveTest, BlobBoundToSlotName) {
  TeeFixture f;
  EnclaveRuntime enclave(f.platform.get());
  const Bytes state = {1, 2, 3};
  enclave.sealed_store().Put("slot-a", ByteView(state.data(), state.size()));
  // Adversary copies slot-a's blob into slot-b.
  f.platform->storage().Put("slot-b", f.platform->storage().Get("slot-a").value());
  EXPECT_FALSE(enclave.sealed_store().Get("slot-b").has_value());
}

TEST(EnclaveTest, UnsealSurvivesEnclaveRestart) {
  // A fresh enclave incarnation on the same platform derives the same sealing key.
  TeeFixture f;
  {
    EnclaveRuntime first(f.platform.get());
    const Bytes state = {4, 2};
    first.sealed_store().Put("slot", ByteView(state.data(), state.size()));
  }
  EnclaveRuntime second(f.platform.get());
  EXPECT_EQ(second.sealed_store().Get("slot").value(), (Bytes{4, 2}));
}

// --- EnclaveRuntime: cost accounting ---

TEST(EnclaveTest, EcallChargedOnlyInsideTee) {
  TeeFixture inside(true);
  EnclaveRuntime e1(inside.platform.get());
  e1.ChargeEcall();
  EXPECT_EQ(inside.host.cpu_time_used(), CostModel::Default().ecall_round_trip);
  EXPECT_EQ(e1.ecalls(), 1u);

  TeeFixture outside(false);
  EnclaveRuntime e2(outside.platform.get());
  e2.ChargeEcall();
  EXPECT_EQ(outside.host.cpu_time_used(), 0);
  EXPECT_EQ(e2.ecalls(), 0u);
}

TEST(EnclaveTest, InEnclaveCryptoCostsMore) {
  TeeFixture inside(true);
  EnclaveRuntime e1(inside.platform.get());
  e1.ChargeSign();
  const SimDuration in_cost = inside.host.cpu_time_used();

  TeeFixture outside(false);
  EnclaveRuntime e2(outside.platform.get());
  e2.ChargeSign();
  const SimDuration out_cost = outside.host.cpu_time_used();
  EXPECT_GT(in_cost, out_cost);
  EXPECT_EQ(out_cost, CostModel::Default().sign);
}

TEST(EnclaveTest, SignVerifyUsesNodeKey) {
  TeeFixture f;
  EnclaveRuntime enclave(f.platform.get());
  const Signature sig = enclave.Sign(AsBytes("digest"));
  EXPECT_EQ(sig.signer, 0u);
  EXPECT_TRUE(enclave.Verify(sig, AsBytes("digest")));
  EXPECT_FALSE(enclave.Verify(sig, AsBytes("other")));
}

TEST(EnclaveTest, FreshNoncesAreUnique) {
  TeeFixture f;
  EnclaveRuntime enclave(f.platform.get());
  const uint64_t a = enclave.FreshNonce();
  const uint64_t b = enclave.FreshNonce();
  EXPECT_NE(a, b);
}

// --- Rollback attack: every historical sealed blob, replayed at reboot ---

// Drives a counter-bound Damysus-R checker through several persisted mutations, then
// reboots it against *each* historical sealed blob in turn (kPinned serves version i).
// Every stale blob must be refused; only the latest one restores.
TEST(RollbackSweepTest, DamysusRRejectsEveryHistoricalBlob) {
  TeeFixture f(true, CounterSpec::Custom(Ms(1), Ms(1)));
  auto enclave = std::make_unique<EnclaveRuntime>(f.platform.get());
  {
    SealedVoteChecker checker(enclave.get(), 4, 1, kDamysusSealSlot,
                              kDamysusWire.domains);
    for (View v = 1; v <= 4; ++v) {
      ASSERT_TRUE(checker.NewView(v).has_value());  // One sealed version per mutation.
    }
  }
  SealedStorage& storage = f.platform->storage();
  const size_t versions = storage.NumVersions(kDamysusSealSlot);
  ASSERT_GE(versions, 5u);  // Genesis seal + 4 NEW-VIEW mutations.
  storage.SetRollbackMode(RollbackMode::kPinned);
  for (size_t i = 0; i + 1 < versions; ++i) {
    storage.PinServedVersion(kDamysusSealSlot, i);
    enclave = std::make_unique<EnclaveRuntime>(f.platform.get());
    EXPECT_EQ(RestoreDamysus(enclave.get()), nullptr)
        << "stale sealed blob #" << i << " was accepted";
  }
  // The genuine latest blob still restores (the counter matches its bound version).
  storage.PinServedVersion(kDamysusSealSlot, versions - 1);
  enclave = std::make_unique<EnclaveRuntime>(f.platform.get());
  auto restored = RestoreDamysus(enclave.get());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->vi(), 4u);
}

// The deliberately-broken variant (counter compare skipped) accepts the same stale blobs
// silently — the exact gap the chaos harness's counter-lockstep oracle exists to catch.
TEST(RollbackSweepTest, BrokenCounterCompareAcceptsStaleBlob) {
  TeeFixture f(true, CounterSpec::Custom(Ms(1), Ms(1)));
  auto enclave = std::make_unique<EnclaveRuntime>(f.platform.get());
  {
    SealedVoteChecker checker(enclave.get(), 4, 1, kDamysusSealSlot,
                              kDamysusWire.domains);
    for (View v = 1; v <= 3; ++v) {
      ASSERT_TRUE(checker.NewView(v).has_value());
    }
  }
  SealedStorage& storage = f.platform->storage();
  storage.SetRollbackMode(RollbackMode::kOldest);
  enclave = std::make_unique<EnclaveRuntime>(f.platform.get());
  ASSERT_EQ(RestoreDamysus(enclave.get()), nullptr);  // -R refuses...
  auto broken = RestoreDamysus(enclave.get(), /*break_restore_verify=*/true);
  ASSERT_NE(broken, nullptr);  // ...the broken build runs on rolled-back state.
  const uint64_t counter = f.platform->counter().ReadBlocking();
  EXPECT_LT(broken->version(), counter);  // Divergence the lockstep oracle flags.
}

}  // namespace
}  // namespace achilles
