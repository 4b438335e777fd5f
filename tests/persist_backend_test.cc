// Conformance suite for the pluggable rollback-defense backends (src/storage/defense.h).
// Every backend is driven through the same persistence lifecycle a checker sees —
// Persist during steady state, Open at the next incarnation's boot — under the storage
// fates the chaos harness plants (rollback to oldest, erase, peer-holder attacks), and
// must produce exactly the verdicts of its row in the capability matrix (kMatrix below):
//
//   local        detects rollback iff a counter device is present; never repairs.
//   rollbaccine  repairs rollback AND erasure from peer copies.
//   healer       detects both from the certified floor but cannot repair.
//
// The suite is parameterized over DefenseKind so every shared contract (version
// monotonicity, reboot round trips, the `verify=false` broken-variant hooks, version
// resumption past the freshness floor) is asserted once and run against all three.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/storage/defense.h"
#include "src/tee/enclave.h"
#include "src/tee/monotonic_counter.h"
#include "src/tee/platform.h"
#include "src/tee/sealed_storage.h"

namespace achilles {
namespace {

using persist::DefenseCosts;
using persist::DefenseFate;
using persist::DefenseKind;
using persist::DefenseService;
using persist::OpenResult;
using persist::OpenStatus;

Bytes B(std::initializer_list<uint8_t> bytes) { return Bytes(bytes); }

// One node's platform plus the cluster-owned DefenseService (n = 3 holders), with
// reboot = tear down the EnclaveRuntime and build a fresh one over the same platform —
// the same incarnation model the Cluster uses.
struct BackendFixture {
  explicit BackendFixture(DefenseKind kind,
                          CounterSpec counter = CounterSpec::Custom(Ms(1), Ms(1)),
                          DefenseCosts costs = DefenseCosts{})
      : sim(11), host(&sim, 0), suite(SignatureScheme::kFastHmac, 4, 99),
        service(3, costs) {
    TeeConfig tee;
    tee.components_in_tee = true;
    tee.counter = counter;
    platform = std::make_unique<NodePlatform>(&host, &suite, CostModel::Default(), tee,
                                              /*seed=*/7, /*node_id=*/0);
    platform->ConfigureDefense(kind, &service);
    Reboot();
  }

  void Reboot() {
    enclave.reset();
    enclave = std::make_unique<EnclaveRuntime>(platform.get());
  }

  persist::Backend& backend() { return enclave->defense(); }
  SealedStorage& device() { return platform->storage(); }

  Simulation sim;
  Host host;
  CryptoSuite suite;
  DefenseService service;
  std::unique_ptr<NodePlatform> platform;
  std::unique_ptr<EnclaveRuntime> enclave;
};

class DefenseBackendTest : public ::testing::TestWithParam<DefenseKind> {};

// --- Capability matrix (DESIGN.md §2.23) ---

// One backend's row: the verdicts it must reach after a device attack, with the counter
// device of the default fixture present.
struct MatrixRow {
  DefenseKind kind;
  OpenStatus rolled_back;  // Open verdict when the device serves the oldest blob.
  OpenStatus erased;       // Open verdict when the device hides every blob.
  bool repairs;            // Attacked opens install the freshest peer copy.
  bool quorum_dependent;   // Persist waits on the peer holders.
};

constexpr MatrixRow kMatrix[] = {  // In DefenseKind order.
    {DefenseKind::kLocal, OpenStatus::kRolledBack, OpenStatus::kEmpty, false, false},
    {DefenseKind::kRollbaccine, OpenStatus::kFresh, OpenStatus::kFresh, true, true},
    {DefenseKind::kHealer, OpenStatus::kRolledBack, OpenStatus::kRolledBack, false, true},
};

const MatrixRow& RowFor(DefenseKind kind) {
  const MatrixRow& row = kMatrix[static_cast<int>(kind)];
  EXPECT_EQ(row.kind, kind);
  return row;
}

TEST_P(DefenseBackendTest, QuorumDependenceMatchesMatrix) {
  BackendFixture f(GetParam());
  f.backend().Persist("ck", ByteView(B({1})));
  const uint64_t peer_ops = f.service.replications() + f.service.certifications();
  EXPECT_EQ(peer_ops > 0, RowFor(GetParam()).quorum_dependent);
}

TEST(DefenseBackendMatrixTest, LocalWithoutCounterOpensRolledBackBlobAsFresh) {
  BackendFixture f(DefenseKind::kLocal, CounterSpec::None());
  f.backend().Persist("ck", ByteView(B({1})));
  f.backend().Persist("ck", ByteView(B({2})));
  f.Reboot();
  f.device().SetRollbackMode(RollbackMode::kOldest);
  const OpenResult r = f.backend().Open("ck", /*verify=*/true);
  f.device().SetRollbackMode(RollbackMode::kLatest);
  // Nothing to compare the sealed version against: the stale blob is installed.
  EXPECT_EQ(r.status, OpenStatus::kFresh);
  ASSERT_TRUE(r.record.has_value());
  EXPECT_EQ(*r.record, B({1}));
  EXPECT_EQ(r.version, 1u);
  EXPECT_EQ(r.expected_version, 0u);
  EXPECT_EQ(f.platform->counter().writes(), 0u);  // No device, no counter write.
}

// --- Durability semantics: versioned round trips across incarnations ---

TEST_P(DefenseBackendTest, PersistAssignsMonotoneVersions) {
  BackendFixture f(GetParam());
  EXPECT_EQ(f.backend().Persist("ck", ByteView(B({1}))), 1u);
  EXPECT_EQ(f.backend().Persist("ck", ByteView(B({2}))), 2u);
  EXPECT_EQ(f.backend().Persist("ck", ByteView(B({3}))), 3u);
}

TEST_P(DefenseBackendTest, OpenAfterRebootServesLatestRecord) {
  BackendFixture f(GetParam());
  f.backend().Persist("ck", ByteView(B({10})));
  f.backend().Persist("ck", ByteView(B({20})));
  f.Reboot();
  const OpenResult r = f.backend().Open("ck", /*verify=*/true);
  EXPECT_EQ(r.status, OpenStatus::kFresh);
  ASSERT_TRUE(r.record.has_value());
  EXPECT_EQ(*r.record, B({20}));
  EXPECT_EQ(r.version, 2u);
  EXPECT_FALSE(r.repaired);  // Nothing was attacked; the local blob is the freshest.
}

TEST_P(DefenseBackendTest, OpenUnknownKeyIsEmpty) {
  BackendFixture f(GetParam());
  const OpenResult r = f.backend().Open("never-written", /*verify=*/true);
  EXPECT_EQ(r.status, OpenStatus::kEmpty);
  EXPECT_FALSE(r.record.has_value());
  EXPECT_EQ(r.version, 0u);
}

// --- The rollback attack (StorageFate wal=kOldest): detection vs repair ---

TEST_P(DefenseBackendTest, RolledBackDeviceVerdictMatchesMatrix) {
  const MatrixRow& row = RowFor(GetParam());
  BackendFixture f(GetParam());
  f.backend().Persist("ck", ByteView(B({1})));
  f.backend().Persist("ck", ByteView(B({2})));
  f.Reboot();
  f.device().SetRollbackMode(RollbackMode::kOldest);  // Adversary serves version 1.
  const OpenResult r = f.backend().Open("ck", /*verify=*/true);
  f.device().SetRollbackMode(RollbackMode::kLatest);
  EXPECT_EQ(r.expected_version, 2u);  // Every backend proves the real freshness floor.
  EXPECT_EQ(r.status, row.rolled_back);
  ASSERT_TRUE(r.record.has_value());
  if (row.repairs) {
    // Herd immunity: the freshest peer copy replaces the stale blob.
    EXPECT_EQ(*r.record, B({2}));
    EXPECT_EQ(r.version, 2u);
    EXPECT_TRUE(r.repaired);
  } else {
    // Detection without repair: refuse the stale record but surface it (a
    // network-recovering caller wants the version numbers, not the bytes).
    EXPECT_EQ(*r.record, B({1}));
    EXPECT_EQ(r.version, 1u);
    EXPECT_FALSE(r.repaired);
  }
}

// --- The erase attack (StorageFate wal=kErase): the gap local cannot see ---

TEST_P(DefenseBackendTest, ErasedDeviceVerdictMatchesMatrix) {
  const MatrixRow& row = RowFor(GetParam());
  BackendFixture f(GetParam());
  f.backend().Persist("ck", ByteView(B({1})));
  f.backend().Persist("ck", ByteView(B({2})));
  f.Reboot();
  f.device().SetRollbackMode(RollbackMode::kErase);  // Adversary hides every version.
  const OpenResult r = f.backend().Open("ck", /*verify=*/true);
  f.device().SetRollbackMode(RollbackMode::kLatest);
  EXPECT_EQ(r.status, row.erased);
  if (row.repairs) {
    ASSERT_TRUE(r.record.has_value());
    EXPECT_EQ(*r.record, B({2}));
    EXPECT_EQ(r.version, 2u);
    EXPECT_TRUE(r.repaired);
  } else {
    // Local's documented gap reads the erasure as a first boot (the counter compare never
    // runs without a blob; README threat-model row). Healer's certificates prove state
    // existed but cannot resurrect the bytes.
    EXPECT_FALSE(r.record.has_value());
  }
  if (row.erased != OpenStatus::kEmpty) {
    EXPECT_EQ(r.expected_version, 2u);
  }
}

// --- verify=false is the broken-variant hook: detection must NOT fire ---

TEST_P(DefenseBackendTest, UnverifiedOpenInstallsStaleState) {
  BackendFixture f(GetParam());
  f.backend().Persist("ck", ByteView(B({1})));
  f.backend().Persist("ck", ByteView(B({2})));
  f.Reboot();
  f.device().SetRollbackMode(RollbackMode::kOldest);
  const OpenResult r = f.backend().Open("ck", /*verify=*/false);
  f.device().SetRollbackMode(RollbackMode::kLatest);
  // All three skip their freshness check and serve the rolled-back record as fresh —
  // exactly the silent stale install the chaos version-monotonic oracle exists to catch
  // (BrokenVariant kQuorumRestoreSkip / kCertFloorSkip in src/consensus/replica_base.h).
  EXPECT_EQ(r.status, OpenStatus::kFresh);
  ASSERT_TRUE(r.record.has_value());
  EXPECT_EQ(*r.record, B({1}));
  EXPECT_EQ(r.version, 1u);
  EXPECT_EQ(r.expected_version, 0u);  // No freshness claim was even computed.
}

// --- Version resumption: a post-attack Persist must clear the proven floor ---

TEST_P(DefenseBackendTest, PersistAfterAttackResumesPastFreshnessFloor) {
  BackendFixture f(GetParam());
  f.backend().Persist("ck", ByteView(B({1})));
  f.backend().Persist("ck", ByteView(B({2})));
  f.Reboot();
  f.device().SetRollbackMode(RollbackMode::kOldest);
  (void)f.backend().Open("ck", /*verify=*/true);
  f.device().SetRollbackMode(RollbackMode::kLatest);
  // Whether the open detected (local/healer) or repaired (rollbaccine), the incarnation
  // learned the floor is 2 — re-persisting must not mint a version the defense already
  // certified for different bytes.
  EXPECT_EQ(f.backend().Persist("ck", ByteView(B({3}))), 3u);
  f.Reboot();
  const OpenResult r = f.backend().Open("ck", /*verify=*/true);
  EXPECT_EQ(r.status, OpenStatus::kFresh);
  EXPECT_EQ(r.version, 3u);
}

// --- Keys are independent surfaces ---

TEST_P(DefenseBackendTest, KeysVersionIndependently) {
  // Local's counter binds to a single persistence stream, so this contract is asserted
  // only for the quorum backends (the -R checkers persist exactly one key under local).
  if (GetParam() == DefenseKind::kLocal) {
    GTEST_SKIP() << "local counter binds one stream";
  }
  BackendFixture f(GetParam());
  EXPECT_EQ(f.backend().Persist("a", ByteView(B({1}))), 1u);
  EXPECT_EQ(f.backend().Persist("b", ByteView(B({9}))), 1u);
  EXPECT_EQ(f.backend().Persist("a", ByteView(B({2}))), 2u);
  f.Reboot();
  const OpenResult ra = f.backend().Open("a", /*verify=*/true);
  const OpenResult rb = f.backend().Open("b", /*verify=*/true);
  EXPECT_EQ(ra.version, 2u);
  EXPECT_EQ(rb.version, 1u);
  ASSERT_TRUE(rb.record.has_value());
  EXPECT_EQ(*rb.record, B({9}));
}

// --- Cost hooks: defended waits are charged as blocking anti-rollback I/O ---

TEST(DefenseBackendCostTest, QuorumPersistChargesRoundTrip) {
  DefenseCosts costs;
  costs.one_way = Ms(3);
  costs.replica_write = Ms(4);
  BackendFixture f(DefenseKind::kRollbaccine, CounterSpec::None(), costs);
  const SimDuration before = f.host.cpu_time_used();
  f.backend().Persist("ck", ByteView(B({1})));
  // 2 * one_way + peer write = 10 ms, on top of whatever sealing itself cost.
  EXPECT_GE(f.host.cpu_time_used() - before, Ms(10));
}

TEST(DefenseBackendCostTest, HealerOpenChargesCertificateLookup) {
  DefenseCosts costs;
  costs.one_way = Ms(2);
  costs.cert_op = Ms(1);
  BackendFixture f(DefenseKind::kHealer, CounterSpec::None(), costs);
  f.backend().Persist("ck", ByteView(B({1})));
  f.Reboot();
  const SimDuration before = f.host.cpu_time_used();
  (void)f.backend().Open("ck", /*verify=*/true);
  EXPECT_GE(f.host.cpu_time_used() - before, Ms(5));  // 2 * one_way + cert_op.
}

TEST(DefenseBackendCostTest, LocalPersistChargesCounterWrite) {
  BackendFixture f(DefenseKind::kLocal, CounterSpec::Custom(Ms(20), Ms(5)));
  const SimDuration before = f.host.cpu_time_used();
  f.backend().Persist("ck", ByteView(B({1})));
  EXPECT_GE(f.host.cpu_time_used() - before, Ms(20));
}

// --- DefenseFate attacks: a single attacked holder never defeats the quorum ---

TEST(DefenseFateTest, RollbaccineRepairsThroughOneErasedHolder) {
  BackendFixture f(DefenseKind::kRollbaccine, CounterSpec::None());
  f.backend().Persist("ck", ByteView(B({1})));
  f.backend().Persist("ck", ByteView(B({2})));
  // Adversary wipes holder (0 + 1) % 3's copies of node 0 AND erases the local device.
  f.service.ApplyPeerFate(/*owner=*/0, DefenseFate::kPeerErased);
  f.Reboot();
  f.device().SetRollbackMode(RollbackMode::kErase);
  const OpenResult r = f.backend().Open("ck", /*verify=*/true);
  f.device().SetRollbackMode(RollbackMode::kLatest);
  EXPECT_EQ(r.status, OpenStatus::kFresh);  // Holder 2 still has version 2.
  EXPECT_EQ(r.version, 2u);
  EXPECT_TRUE(r.repaired);
}

TEST(DefenseFateTest, RollbaccineStaleHolderCannotLowerTheFreshestCopy) {
  BackendFixture f(DefenseKind::kRollbaccine, CounterSpec::None());
  f.backend().Persist("ck", ByteView(B({1})));
  f.backend().Persist("ck", ByteView(B({2})));
  f.service.ApplyPeerFate(/*owner=*/0, DefenseFate::kPeerStale);
  f.Reboot();
  f.device().SetRollbackMode(RollbackMode::kOldest);
  const OpenResult r = f.backend().Open("ck", /*verify=*/true);
  f.device().SetRollbackMode(RollbackMode::kLatest);
  EXPECT_EQ(r.status, OpenStatus::kFresh);
  EXPECT_EQ(r.version, 2u);  // FreshestPeerCopy takes the max across holders.
}

TEST(DefenseFateTest, HealerFloorSurvivesOneStaleHolder) {
  BackendFixture f(DefenseKind::kHealer, CounterSpec::None());
  f.backend().Persist("ck", ByteView(B({1})));
  f.backend().Persist("ck", ByteView(B({2})));
  f.service.ApplyPeerFate(/*owner=*/0, DefenseFate::kPeerStale);
  f.Reboot();
  f.device().SetRollbackMode(RollbackMode::kOldest);
  const OpenResult r = f.backend().Open("ck", /*verify=*/true);
  f.device().SetRollbackMode(RollbackMode::kLatest);
  // The untouched holder still certifies version 2, so the rollback is still detected.
  EXPECT_EQ(r.status, OpenStatus::kRolledBack);
  EXPECT_EQ(r.expected_version, 2u);
}

TEST(DefenseFateTest, IntactFateIsANoOp) {
  BackendFixture f(DefenseKind::kHealer, CounterSpec::None());
  f.backend().Persist("ck", ByteView(B({1})));
  f.service.ApplyPeerFate(/*owner=*/0, DefenseFate::kIntact);
  f.Reboot();
  EXPECT_EQ(f.backend().Open("ck", /*verify=*/true).status, OpenStatus::kFresh);
}

// --- The Store facet: Get refuses what Open would not certify ---

TEST_P(DefenseBackendTest, StoreFacetRoundTrips) {
  BackendFixture f(GetParam());
  const Bytes cert = B({0xCE, 0x27});
  f.backend().store().Put("ckpt-cert", ByteView(cert));
  const std::optional<Bytes> got = f.backend().store().Get("ckpt-cert");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, cert);
}

TEST(DefenseStoreFacetTest, HealerGetRefusesRolledBackRecord) {
  BackendFixture f(DefenseKind::kHealer, CounterSpec::None());
  f.backend().store().Put("ckpt-cert", ByteView(B({1})));
  f.backend().store().Put("ckpt-cert", ByteView(B({2})));
  f.Reboot();
  f.device().SetRollbackMode(RollbackMode::kOldest);
  // A rolled-back checkpoint certificate reads as missing — the floor stays conservative
  // rather than trusting a stale cert.
  EXPECT_FALSE(f.backend().store().Get("ckpt-cert").has_value());
  f.device().SetRollbackMode(RollbackMode::kLatest);
}

TEST(DefenseStoreFacetTest, RollbaccineGetRepairsRolledBackRecord) {
  BackendFixture f(DefenseKind::kRollbaccine, CounterSpec::None());
  f.backend().store().Put("ckpt-cert", ByteView(B({1})));
  f.backend().store().Put("ckpt-cert", ByteView(B({2})));
  f.Reboot();
  f.device().SetRollbackMode(RollbackMode::kOldest);
  const std::optional<Bytes> got = f.backend().store().Get("ckpt-cert");
  f.device().SetRollbackMode(RollbackMode::kLatest);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, B({2}));
}

// --- Service bookkeeping feeding bench_defense's defense-write columns ---

TEST(DefenseServiceTest, StatsCountReplicationsAndCertifications) {
  DefenseService service(3, DefenseCosts{});
  const Bytes rec = B({1});
  service.Replicate(0, "k", 1, ByteView(rec));
  service.Replicate(0, "k", 2, ByteView(rec));
  service.Certify(1, "k", 1);
  EXPECT_EQ(service.replications(), 2u);
  EXPECT_EQ(service.certifications(), 1u);
  ASSERT_TRUE(service.FreshestPeerCopy(0, "k").has_value());
  EXPECT_EQ(service.FreshestPeerCopy(0, "k")->version, 2u);
  EXPECT_EQ(service.CertifiedFloor(1, "k"), 1u);
  EXPECT_EQ(service.CertifiedFloor(2, "k"), 0u);  // Nothing certified for node 2.
}

INSTANTIATE_TEST_SUITE_P(AllBackends, DefenseBackendTest,
                         ::testing::Values(DefenseKind::kLocal, DefenseKind::kRollbaccine,
                                           DefenseKind::kHealer),
                         [](const ::testing::TestParamInfo<DefenseKind>& param_info) {
                           return std::string(persist::DefenseKindName(param_info.param));
                         });

}  // namespace
}  // namespace achilles
