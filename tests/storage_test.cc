// Tests for the host stable-storage subsystem (src/storage): WAL + record-store crash
// semantics, the block log on top of a WAL, the persist::Store record surfaces, the
// per-surface StorageFate reboot encoding, and full reboot-recovery through the cluster
// for every protocol.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/chaos/runner.h"
#include "src/consensus/block_log.h"
#include "src/harness/cluster.h"
#include "src/harness/fault_script.h"
#include "src/storage/host_storage.h"
#include "src/storage/persist.h"
#include "src/tee/enclave.h"
#include "src/tee/platform.h"

namespace achilles {
namespace {

ByteView View(const char* s) {
  return ByteView(reinterpret_cast<const uint8_t*>(s), std::strlen(s));
}

// --- WriteAheadLog + sync domain ---

struct DiskFixture {
  DiskFixture() : sim(3), host(&sim, 0), disk(&host, Ms(1)) {}
  Simulation sim;
  Host host;
  storage::HostStableStorage disk;
};

TEST(WalTest, AsyncAppendIsNotDurableUntilSync) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  wal.Append(View("a"), storage::SyncMode::kAsync);
  wal.Append(View("b"), storage::SyncMode::kAsync);
  EXPECT_EQ(wal.NumRecords(), 2u);
  EXPECT_EQ(wal.DurableRecords(), 0u);
  EXPECT_EQ(f.disk.fsyncs(), 0u);
  wal.Sync();
  EXPECT_EQ(wal.DurableRecords(), 2u);
  EXPECT_EQ(f.disk.fsyncs(), 1u);
  EXPECT_EQ(f.host.cpu_time_used(), Ms(1));  // One barrier, one kFsync charge.
}

TEST(WalTest, SyncAppendIsDurableOnReturn) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  wal.Append(View("a"), storage::SyncMode::kSync);
  EXPECT_EQ(wal.DurableRecords(), 1u);
  EXPECT_EQ(f.disk.fsyncs(), 1u);
}

TEST(WalTest, CleanBarrierIsFree) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  wal.Append(View("a"), storage::SyncMode::kSync);
  const SimDuration spent = f.host.cpu_time_used();
  wal.Sync();  // Nothing dirty: no fsync, no charge.
  f.disk.SyncAll();
  EXPECT_EQ(f.disk.fsyncs(), 1u);
  EXPECT_EQ(f.host.cpu_time_used(), spent);
}

TEST(WalTest, OneSyncDomainCoversAllSurfaces) {
  // A sync on any surface is a device-wide barrier: one fsync makes the other log's
  // appends and the record store's puts durable too (one disk, one flush).
  DiskFixture f;
  f.disk.Wal("a").Append(View("x"), storage::SyncMode::kAsync);
  f.disk.Wal("b").Append(View("y"), storage::SyncMode::kAsync);
  f.disk.records().Put("k", View("v"), storage::SyncMode::kAsync);
  f.disk.Wal("a").Sync();
  EXPECT_EQ(f.disk.fsyncs(), 1u);
  EXPECT_EQ(f.disk.Wal("a").DurableRecords(), 1u);
  EXPECT_EQ(f.disk.Wal("b").DurableRecords(), 1u);
  f.disk.ApplyCrashFate(storage::WalFate::kLostUnsynced);
  EXPECT_EQ(f.disk.records().Get("k").value(), Bytes{'v'});
}

TEST(WalTest, LostUnsyncedDropsEverythingPastTheDurableFrontier) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  wal.Append(View("a"), storage::SyncMode::kAsync);
  wal.Append(View("b"), storage::SyncMode::kSync);
  wal.Append(View("c"), storage::SyncMode::kAsync);
  wal.Append(View("d"), storage::SyncMode::kAsync);
  f.disk.ApplyCrashFate(storage::WalFate::kLostUnsynced);
  ASSERT_EQ(wal.NumRecords(), 2u);
  EXPECT_EQ(wal.records()[0], Bytes{'a'});
  EXPECT_EQ(wal.records()[1], Bytes{'b'});
  EXPECT_EQ(wal.DurableRecords(), 2u);  // Everything surviving is durable.
}

TEST(WalTest, TornTailDropsOnlyTheLastUnsyncedRecord) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  wal.Append(View("a"), storage::SyncMode::kSync);
  wal.Append(View("b"), storage::SyncMode::kAsync);
  wal.Append(View("c"), storage::SyncMode::kAsync);
  f.disk.ApplyCrashFate(storage::WalFate::kTornTail);
  ASSERT_EQ(wal.NumRecords(), 2u);  // The in-flight tail write ("c") tore; "b" flushed.
  EXPECT_EQ(wal.records()[1], Bytes{'b'});
  EXPECT_EQ(wal.DurableRecords(), 2u);
}

TEST(WalTest, IntactKeepsEverythingIncludingUnsynced) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  wal.Append(View("a"), storage::SyncMode::kAsync);
  f.disk.ApplyCrashFate(storage::WalFate::kIntact);
  EXPECT_EQ(wal.NumRecords(), 1u);
  EXPECT_EQ(wal.DurableRecords(), 1u);
}

// --- TruncateFront (log compaction barrier) ---

TEST(WalTest, TruncateFrontDropsThePrefixAtomically) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  wal.Append(View("a"), storage::SyncMode::kAsync);
  wal.Append(View("b"), storage::SyncMode::kAsync);
  wal.Append(View("c"), storage::SyncMode::kAsync);
  wal.TruncateFront(2);
  // Barrier 1 flushed the dirty domain, barrier 2 committed the new log head: the
  // truncated image is fully durable the moment TruncateFront returns.
  EXPECT_EQ(f.disk.fsyncs(), 2u);
  EXPECT_EQ(f.host.cpu_time_used(), Ms(2));
  ASSERT_EQ(wal.NumRecords(), 1u);
  EXPECT_EQ(wal.records()[0], Bytes{'c'});
  EXPECT_EQ(wal.DurableRecords(), 1u);
  EXPECT_EQ(wal.TotalBytes(), 1u);
}

TEST(WalTest, TruncateFrontOnCleanDomainChargesOneBarrier) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  wal.Append(View("a"), storage::SyncMode::kSync);
  wal.Append(View("b"), storage::SyncMode::kSync);
  const uint64_t before = f.disk.fsyncs();
  wal.TruncateFront(1);
  // Barrier 1 was clean (free); only the metadata commit is charged.
  EXPECT_EQ(f.disk.fsyncs(), before + 1);
  wal.TruncateFront(0);  // No-op: neither barrier runs.
  EXPECT_EQ(f.disk.fsyncs(), before + 1);
}

TEST(WalTest, CrashFatesAfterTruncationReplayOverTheCompactedImage) {
  for (const storage::WalFate fate :
       {storage::WalFate::kLostUnsynced, storage::WalFate::kTornTail}) {
    DiskFixture f;
    storage::WriteAheadLog& wal = f.disk.Wal("log");
    wal.Append(View("a"), storage::SyncMode::kAsync);
    wal.Append(View("b"), storage::SyncMode::kAsync);
    wal.TruncateFront(1);
    wal.Append(View("c"), storage::SyncMode::kAsync);  // Unsynced tail past the barrier.
    f.disk.ApplyCrashFate(fate);
    // Either fate may eat the unsynced "c", but never resurrects the dropped "a" and
    // never touches the truncated durable image ("b").
    ASSERT_EQ(wal.NumRecords(), 1u) << storage::WalFateName(fate);
    EXPECT_EQ(wal.records()[0], Bytes{'b'}) << storage::WalFateName(fate);
    EXPECT_EQ(wal.DurableRecords(), 1u);
  }
}

TEST(WalTest, SyncedButNotTruncatedPrefixSurvivesEveryFate) {
  for (const storage::WalFate fate :
       {storage::WalFate::kIntact, storage::WalFate::kLostUnsynced,
        storage::WalFate::kTornTail}) {
    DiskFixture f;
    storage::WriteAheadLog& wal = f.disk.Wal("log");
    wal.Append(View("a"), storage::SyncMode::kSync);
    wal.Append(View("b"), storage::SyncMode::kSync);
    wal.TruncateFront(1);  // Drops "a"; "b" stays synced but untruncated.
    f.disk.ApplyCrashFate(fate);
    ASSERT_GE(wal.NumRecords(), 1u) << storage::WalFateName(fate);
    EXPECT_EQ(wal.records()[0], Bytes{'b'}) << storage::WalFateName(fate);
  }
}

TEST(WalTest, TruncateFrontClampsToTheLogSize) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  wal.Append(View("a"), storage::SyncMode::kSync);
  wal.TruncateFront(100);
  EXPECT_EQ(wal.NumRecords(), 0u);
  EXPECT_EQ(wal.TotalBytes(), 0u);
  f.disk.ApplyCrashFate(storage::WalFate::kTornTail);  // Empty log: fates are no-ops.
  EXPECT_EQ(wal.NumRecords(), 0u);
}

TEST(RecordStoreTest, CrashFallsBackToTheDurableValueNeverATornOne) {
  DiskFixture f;
  storage::RecordStore& records = f.disk.records();
  records.Put("k", View("v1"), storage::SyncMode::kSync);
  records.Put("k", View("v2"), storage::SyncMode::kAsync);
  f.disk.ApplyCrashFate(storage::WalFate::kLostUnsynced);
  // The unsynced overwrite is gone, but the record is whole — the previous value, not a
  // torn mix of the two.
  EXPECT_EQ(records.Get("k").value(), (Bytes{'v', '1'}));
}

TEST(RecordStoreTest, TornTailRevertsOnlyTheLastUnsyncedPut) {
  DiskFixture f;
  storage::RecordStore& records = f.disk.records();
  records.Put("a", View("old"), storage::SyncMode::kSync);
  records.Put("a", View("new"), storage::SyncMode::kAsync);
  records.Put("b", View("fresh"), storage::SyncMode::kAsync);  // The in-flight tail put.
  f.disk.ApplyCrashFate(storage::WalFate::kTornTail);
  EXPECT_EQ(records.Get("a").value(), (Bytes{'n', 'e', 'w'}));
  EXPECT_FALSE(records.Get("b").has_value());
}

// --- BlockLog (the durable block log of FlexiBFT, MinBFT and Raft) ---

// A chain of `length` blocks above genesis, all proposed in `view`.
std::vector<BlockPtr> Chain(size_t length, achilles::View view,
                            const BlockPtr& from = Block::Genesis()) {
  std::vector<BlockPtr> chain;
  BlockPtr parent = from;
  for (size_t i = 0; i < length; ++i) {
    parent = Block::Create(view, parent, {}, /*propose_time=*/0);
    chain.push_back(parent);
  }
  return chain;
}

std::vector<Height> Heights(const std::vector<BlockPtr>& blocks) {
  std::vector<Height> heights;
  for (const BlockPtr& block : blocks) {
    heights.push_back(block->height);
  }
  return heights;
}

TEST(BlockLogTest, TornRecordStopsTheReplay) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  BlockLog log(&wal);
  const std::vector<BlockPtr> chain = Chain(3, 1);
  log.Append(*chain[0], storage::SyncMode::kAsync);
  log.Append(*chain[1], storage::SyncMode::kAsync);
  wal.Append(View("torn"), storage::SyncMode::kAsync);
  log.Append(*chain[2], storage::SyncMode::kAsync);  // Never durable behind the tear.

  BlockLog rebooted(&wal);
  BlockStore store;
  EXPECT_EQ(Heights(rebooted.Replay(/*floor=*/0, store)), (std::vector<Height>{1, 2}));
  EXPECT_FALSE(store.Has(chain[2]->hash));
  EXPECT_EQ(rebooted.logged(), 2u);
}

TEST(BlockLogTest, ReproposedBlockIsAppendedOnce) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  BlockLog log(&wal);
  const std::vector<BlockPtr> chain = Chain(1, 1);
  EXPECT_TRUE(log.Append(*chain[0], storage::SyncMode::kAsync));
  EXPECT_FALSE(log.Append(*chain[0], storage::SyncMode::kSync));  // Re-proposed next epoch.
  EXPECT_EQ(wal.NumRecords(), 1u);
  EXPECT_EQ(f.disk.fsyncs(), 0u);  // The skipped append runs no barrier either.
}

TEST(BlockLogTest, CompactionUnderTruncatesOutOfOrderAppendsAndForgetsWhatItDrops) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  BlockLog log(&wal);
  // Epoch 1 logs heights 1..5; epoch 2's leader resumes from height 2 and logs 3' and 4'
  // behind them.
  const std::vector<BlockPtr> first = Chain(5, 1);
  const std::vector<BlockPtr> second = Chain(2, 2, first[1]);
  for (const BlockPtr& block : first) {
    log.Append(*block, storage::SyncMode::kAsync);
  }
  for (const BlockPtr& block : second) {
    log.Append(*block, storage::SyncMode::kAsync);
  }
  ASSERT_EQ(log.logged(), 7u);

  log.CompactThrough(3);
  // The scan stops at height 4: heights 4, 5, 3' and 4' stay, 3' under the checkpoint.
  EXPECT_EQ(wal.NumRecords(), 4u);
  EXPECT_EQ(log.logged(), 4u);
  BlockLog rebooted(&wal);
  BlockStore store;
  EXPECT_EQ(Heights(rebooted.Replay(/*floor=*/0, store)), (std::vector<Height>{4, 5, 3, 4}));

  log.CompactThrough(5);  // Now every record is at or below the checkpoint.
  EXPECT_EQ(wal.NumRecords(), 0u);
  EXPECT_EQ(log.logged(), 0u);
  // A dropped block delivered again is still not re-logged: the checkpoint covers it.
  EXPECT_FALSE(log.Append(*first[2], storage::SyncMode::kSync));
  EXPECT_EQ(wal.NumRecords(), 0u);
}

TEST(BlockLogTest, RecordsAtOrBelowTheRestoredCheckpointAreDedupedNotStored) {
  DiskFixture f;
  storage::WriteAheadLog& wal = f.disk.Wal("log");
  const std::vector<BlockPtr> chain = Chain(4, 1);
  {
    BlockLog log(&wal);
    for (const BlockPtr& block : chain) {
      log.Append(*block, storage::SyncMode::kSync);
    }
  }
  BlockLog rebooted(&wal);
  BlockStore store;
  EXPECT_EQ(Heights(rebooted.Replay(/*floor=*/2, store)), (std::vector<Height>{3, 4}));
  EXPECT_FALSE(store.Has(chain[0]->hash));
  EXPECT_FALSE(store.Has(chain[1]->hash));
  EXPECT_TRUE(store.Has(chain[3]->hash));
  EXPECT_EQ(rebooted.logged(), 4u);
  EXPECT_FALSE(rebooted.Append(*chain[0], storage::SyncMode::kSync));
  EXPECT_EQ(wal.NumRecords(), 4u);
}

// --- persist::Store surfaces: host records vs sealed blobs ---

TEST(PersistTest, HostDurableStorePutIsDurableOnReturn) {
  DiskFixture f;
  persist::Store& store = f.disk.record_store();
  store.Put("k", View("v"));
  EXPECT_EQ(f.disk.fsyncs(), 1u);  // The interface contract: Put syncs before returning.
  f.disk.ApplyCrashFate(storage::WalFate::kLostUnsynced);
  EXPECT_EQ(store.Get("k").value(), Bytes{'v'});
}

struct TeeFixture {
  TeeFixture() : sim(11), host(&sim, 0), suite(SignatureScheme::kFastHmac, 4, 99) {
    TeeConfig tee;
    platform = std::make_unique<NodePlatform>(&host, &suite, CostModel::Default(), tee, 7);
    enclave = std::make_unique<EnclaveRuntime>(platform.get());
  }
  Simulation sim;
  Host host;
  CryptoSuite suite;
  std::unique_ptr<NodePlatform> platform;
  std::unique_ptr<EnclaveRuntime> enclave;
};

TEST(PersistTest, SealedStoreIsTheRollbackProneSurface) {
  TeeFixture f;
  persist::Store& store = f.enclave->sealed_store();
  store.Put("k", View("v1"));
  store.Put("k", View("v2"));
  EXPECT_EQ(store.Get("k").value(), (Bytes{'v', '2'}));
  // The adversarial OS replays the old blob — exactly what the host record store can
  // never do.
  f.platform->storage().SetRollbackMode(RollbackMode::kOldest);
  EXPECT_EQ(store.Get("k").value(), (Bytes{'v', '1'}));
}

// --- StorageFate encoding + protocol traits ---

TEST(StorageFateTest, EncodeDecodeRoundTripsAllCombinations) {
  for (const storage::WalFate wal :
       {storage::WalFate::kIntact, storage::WalFate::kLostUnsynced,
        storage::WalFate::kTornTail}) {
    for (const SealedFate sealed :
         {SealedFate::kFresh, SealedFate::kStale, SealedFate::kErased}) {
      for (const checkpoint::SnapshotFate snapshot :
           {checkpoint::SnapshotFate::kIntact, checkpoint::SnapshotFate::kStale,
            checkpoint::SnapshotFate::kErased, checkpoint::SnapshotFate::kCorrupt}) {
        const StorageFate fate{wal, sealed, snapshot};
        const StorageFate back = DecodeStorageFate(EncodeStorageFate(fate));
        EXPECT_EQ(back.wal, wal);
        EXPECT_EQ(back.sealed, sealed);
        EXPECT_EQ(back.snapshot, snapshot);
      }
    }
  }
  // The honest fate encodes to 0, so an all-honest reboot event carries arg 0.
  EXPECT_EQ(EncodeStorageFate(StorageFate{}), 0u);
}

TEST(StorageFateTest, V3ScriptsRoundTripSnapshotFates) {
  StorageFate fate;
  fate.wal = storage::WalFate::kLostUnsynced;
  fate.sealed = SealedFate::kErased;
  fate.snapshot = checkpoint::SnapshotFate::kStale;
  ScriptArtifact artifact;
  artifact.protocol = "BRaft";
  artifact.f = 1;
  artifact.seed = 4;
  artifact.script.events.push_back(
      {Ms(1), FaultKind::kCrash, 2, 0, 0});
  artifact.script.events.push_back(
      {Ms(2), FaultKind::kReboot, 2, 0, EncodeStorageFate(fate)});
  artifact.script.heal_at = Ms(10);
  artifact.script.horizon = Ms(20);
  const std::string text = artifact.ToText();
  ScriptArtifact parsed;
  ASSERT_TRUE(ScriptArtifact::FromText(text, &parsed));
  ASSERT_EQ(parsed.script.events.size(), 2u);
  const StorageFate back = DecodeStorageFate(parsed.script.events[1].arg);
  EXPECT_EQ(back.wal, fate.wal);
  EXPECT_EQ(back.sealed, fate.sealed);
  EXPECT_EQ(back.snapshot, fate.snapshot);
  EXPECT_EQ(parsed.ToText(), text);  // The canonical form is a fixed point.
}

// --- Reboot recovery through the cluster ---

ClusterConfig Config(Protocol protocol, uint64_t seed = 21) {
  ClusterConfig config;
  config.protocol = protocol;
  config.f = 1;
  config.batch_size = 100;
  config.payload_size = 64;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(200);
  config.seed = seed;
  return config;
}

class RebootRecovery : public ::testing::TestWithParam<Protocol> {};

// Every protocol survives a full crash+reboot of one replica: the cluster keeps (or
// regains) liveness and no safety violation surfaces — the restored state never lets the
// node equivocate against its pre-crash self.
TEST_P(RebootRecovery, CrashedReplicaRejoinsAndClusterStaysSafe) {
  Cluster cluster(Config(GetParam()));
  cluster.Start();
  cluster.sim().RunFor(Sec(2));
  const Height before = cluster.tracker().max_committed_height();
  ASSERT_GT(before, 5u);
  cluster.CrashReplica(2);
  cluster.sim().RunFor(Ms(300));
  cluster.RebootReplica(2);
  cluster.sim().RunFor(Sec(4));
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
  EXPECT_GT(cluster.tracker().max_committed_height(), before + 5)
      << "no progress after reboot";
  EXPECT_NE(cluster.replica(2), nullptr);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, RebootRecovery,
                         ::testing::Values(Protocol::kAchilles, Protocol::kAchillesC,
                                           Protocol::kDamysus, Protocol::kDamysusR,
                                           Protocol::kOneShot, Protocol::kOneShotR,
                                           Protocol::kFlexiBft, Protocol::kRaft,
                                           Protocol::kMinBft, Protocol::kHotStuff),
                         [](const auto& param_info) {
                           std::string name = ProtocolName(param_info.param);
                           std::erase(name, '-');
                           return name;
                         });

TEST(RebootRecoveryTest, HostDiskUsageMatchesTheTrait) {
  for (int i = 0; i < kNumProtocols; ++i) {
    const Protocol protocol = static_cast<Protocol>(i);
    Cluster cluster(Config(protocol));
    cluster.Start();
    cluster.sim().RunFor(Sec(1));
    // Node 0 leads at genesis in every leader-based protocol here, so it writes whenever
    // the protocol uses the host disk at all.
    EXPECT_EQ(cluster.platform(0).host_storage().ever_written(),
              Traits(protocol).host_storage)
        << ProtocolName(protocol);
  }
}

TEST(RebootRecoveryTest, HotStuffRestoresItsViewFromDisk) {
  Cluster cluster(Config(Protocol::kHotStuff));
  cluster.Start();
  cluster.sim().RunFor(Sec(2));
  const uint64_t view_before = cluster.replica(2)->Invariants().view;
  ASSERT_GT(view_before, 5u);
  cluster.CrashReplica(2);
  // Isolate the victim so the restored view is observable before live traffic
  // fast-forwards it again.
  cluster.net().Partition({{2}, {0, 1, 3}});
  cluster.RebootReplica(2);
  cluster.sim().RunFor(Ms(400));
  ASSERT_NE(cluster.replica(2), nullptr);
  // Persisted view survived (a volatile restart would re-enter view 1 and, isolated,
  // only reach low single digits on timeouts).
  EXPECT_GE(cluster.replica(2)->Invariants().view, view_before);
}

TEST(RebootRecoveryTest, FlexiBftLeaderRebootDoesNotReissueSequenceNumbers) {
  // The sequencer frontier is the one FlexiBFT state that must survive: a rebooted leader
  // that reissued an (epoch, seq) for a different block would fork the backups.
  Cluster cluster(Config(Protocol::kFlexiBft));
  cluster.Start();
  cluster.sim().RunFor(Sec(2));
  const Height before = cluster.tracker().max_committed_height();
  ASSERT_GT(before, 5u);
  cluster.CrashReplica(0);  // The epoch-0 leader.
  cluster.sim().RunFor(Ms(300));
  cluster.RebootReplica(0);
  cluster.sim().RunFor(Sec(4));
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
  EXPECT_GT(cluster.tracker().max_committed_height(), before);
}

TEST(RebootRecoveryTest, FsyncShowsInTheBreakdownOnlyForStableStorageProtocols) {
  Cluster raft(Config(Protocol::kRaft));
  const RunStats raft_stats = raft.RunMeasured(Ms(500), Sec(2));
  EXPECT_GT(raft_stats.breakdown.part(obs::Component::kFsync), 0.0);

  Cluster achilles(Config(Protocol::kAchilles));
  const RunStats ach_stats = achilles.RunMeasured(Ms(500), Sec(2));
  EXPECT_EQ(ach_stats.breakdown.part(obs::Component::kFsync), 0.0);
  EXPECT_FALSE(achilles.platform(0).host_storage().ever_written());
}

// --- Honest chaos sweep with reboots everywhere ---

TEST(RebootChaosTest, HonestSweepWithForcedRebootsStaysClean) {
  chaos::ChaosOptions options;
  options.reboot_prob = 1.0;  // Every sampled script carries crash+reboot cycles.
  for (uint64_t seed = 100; seed < 120; ++seed) {  // Two full protocol round-robins.
    const chaos::ChaosResult result = chaos::RunChaosSeed(options, seed);
    EXPECT_TRUE(result.ok) << "seed " << seed << " (" << ProtocolName(result.protocol)
                           << "): " << result.violation;
  }
}

}  // namespace
}  // namespace achilles
