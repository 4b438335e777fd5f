// Tests for the checkpoint subsystem (src/checkpoint): certificate primitives and codecs,
// stable-checkpoint formation + log compaction through a live cluster, snapshot-based
// state transfer for lagging rejoiners, and the sealed-certificate rollback floor across
// adversarial snapshot fates.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/checkpoint/checkpoint.h"
#include "src/checkpoint/manager.h"
#include "src/harness/cluster.h"
#include "src/obs/journal.h"
#include "src/raft/replica.h"

namespace achilles {
namespace {

using checkpoint::CheckpointCert;
using checkpoint::CheckpointDigest;
using checkpoint::SnapshotFate;

BlockPtr MakeChain(Height height) {
  BlockPtr block = Block::Genesis();
  for (Height h = 1; h <= height; ++h) {
    block = Block::Create(1, block, {Transaction{h, 0, 16, 0}}, 0);
  }
  return block;
}

CheckpointCert MakeCert(const CryptoSuite& suite, const BlockPtr& block, size_t signers) {
  CheckpointCert cert;
  cert.height = block->height;
  cert.block_hash = block->hash;
  cert.digest = CheckpointDigest(*block);
  const Bytes msg = cert.SigningDigest();
  for (uint32_t i = 0; i < signers; ++i) {
    cert.sigs.push_back(suite.Sign(i, ByteView(msg.data(), msg.size())));
  }
  return cert;
}

// --- Certificate primitives ---

TEST(CheckpointCertTest, DigestIsDeterministicAndSensitive) {
  const BlockPtr a = MakeChain(4);
  EXPECT_EQ(CheckpointDigest(*a), CheckpointDigest(*a));
  const BlockPtr b = MakeChain(5);
  EXPECT_NE(CheckpointDigest(*a), CheckpointDigest(*b));
}

TEST(CheckpointCertTest, VerifyNeedsAQuorumOfDistinctValidSigners) {
  const CryptoSuite suite(SignatureScheme::kFastHmac, 5, 42);
  const BlockPtr block = MakeChain(8);
  const CheckpointCert cert = MakeCert(suite, block, 3);
  EXPECT_TRUE(cert.Verify(suite, 3));
  EXPECT_FALSE(cert.Verify(suite, 4));  // Quorum short by one.
  CheckpointCert dup = cert;
  dup.sigs[2] = dup.sigs[0];  // Duplicate signer: still only 2 distinct.
  EXPECT_FALSE(dup.Verify(suite, 3));
  CheckpointCert forged = cert;
  forged.height += 1;  // Signatures no longer cover the claimed height.
  EXPECT_FALSE(forged.Verify(suite, 3));
}

TEST(CheckpointCertTest, EncodeDecodeRoundTrips) {
  const CryptoSuite suite(SignatureScheme::kFastHmac, 5, 42);
  const CheckpointCert cert = MakeCert(suite, MakeChain(16), 3);
  const Bytes wire = cert.Encode();
  const std::optional<CheckpointCert> back =
      CheckpointCert::Decode(ByteView(wire.data(), wire.size()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->height, cert.height);
  EXPECT_EQ(back->block_hash, cert.block_hash);
  EXPECT_EQ(back->digest, cert.digest);
  ASSERT_EQ(back->sigs.size(), cert.sigs.size());
  EXPECT_TRUE(back->Verify(suite, 3));
  EXPECT_FALSE(CheckpointCert::Decode(ByteView(wire.data(), wire.size() / 2)).has_value());
}

TEST(CheckpointCertTest, SnapshotRecordRoundTripsAndRejectsCorruption) {
  const CryptoSuite suite(SignatureScheme::kFastHmac, 5, 42);
  const BlockPtr block = MakeChain(8);
  const CheckpointCert cert = MakeCert(suite, block, 3);
  const Bytes record = checkpoint::EncodeSnapshotRecord(cert, *block);
  CheckpointCert back_cert;
  BlockPtr back_block;
  ASSERT_TRUE(checkpoint::DecodeSnapshotRecord(ByteView(record.data(), record.size()),
                                               &back_cert, &back_block));
  ASSERT_NE(back_block, nullptr);
  EXPECT_EQ(back_block->hash, block->hash);
  EXPECT_EQ(back_cert.height, cert.height);
  EXPECT_EQ(CheckpointDigest(*back_block), back_cert.digest);
  // Flip one byte anywhere in the record: the full acceptance predicate (codec, digest
  // binding, and quorum verification) must reject it — no matter whether the flip landed
  // in the cert header, a signature, or the block body.
  for (const size_t pos : {size_t{4}, record.size() / 2, record.size() - 4}) {
    Bytes mangled = record;
    mangled[pos] ^= 0x5a;
    const bool decoded = checkpoint::DecodeSnapshotRecord(
        ByteView(mangled.data(), mangled.size()), &back_cert, &back_block);
    const bool accepted = decoded && back_block != nullptr &&
                          back_block->hash == back_cert.block_hash &&
                          CheckpointDigest(*back_block) == back_cert.digest &&
                          back_cert.Verify(suite, 3);
    EXPECT_FALSE(accepted) << "flip at byte " << pos << " survived every check";
  }
}

// --- Cluster integration ---

ClusterConfig CkptConfig(Protocol protocol, Height interval, uint64_t seed) {
  ClusterConfig config;
  config.protocol = protocol;
  config.f = 1;
  config.batch_size = 100;
  config.payload_size = 32;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(250);
  config.client_rate_tps = 2000.0;
  config.seed = seed;
  config.ckpt.enabled = true;
  config.ckpt.interval = interval;
  return config;
}

TEST(CheckpointClusterTest, ManagerIsNullUnlessEnabled) {
  ClusterConfig config;
  config.protocol = Protocol::kRaft;
  Cluster cluster(config);
  EXPECT_EQ(cluster.checkpoint_manager(), nullptr);
}

TEST(CheckpointClusterTest, StableCheckpointsFormAndCompactTheLog) {
  // Twin runs, same seed: checkpointing must bound the retained log well below the
  // no-compaction baseline at the same virtual time.
  uint64_t retained_on = 0;
  uint64_t retained_off = 0;
  for (const bool enabled : {false, true}) {
    ClusterConfig config = CkptConfig(Protocol::kRaft, 8, 77);
    config.ckpt.enabled = enabled;
    Cluster cluster(config);
    cluster.RunMeasured(Ms(500), Sec(2));
    uint64_t retained = 0;
    for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
      retained += cluster.platform(i).host_storage().TotalWalRecords();
    }
    if (enabled) {
      retained_on = retained;
      checkpoint::CheckpointManager* mgr = cluster.checkpoint_manager();
      ASSERT_NE(mgr, nullptr);
      EXPECT_GT(mgr->checkpoints_assembled(), 0u);
      EXPECT_GT(mgr->votes_cast(), 0u);
      EXPECT_GT(mgr->latest_stable(), 0u);
      for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
        EXPECT_GT(mgr->last_stable(i), 0u) << "replica " << i << " never went stable";
      }
    } else {
      retained_off = retained;
    }
  }
  EXPECT_LT(retained_on, retained_off / 2)
      << "compaction retained " << retained_on << " records vs " << retained_off
      << " without";
}

TEST(CheckpointClusterTest, LaggardRejoinsViaSnapshotTransfer) {
  ClusterConfig config = CkptConfig(Protocol::kRaft, 8, 78);
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Ms(500));
  const uint32_t victim = cluster.num_replicas() - 1;
  cluster.CrashReplica(victim);
  cluster.sim().RunFor(Ms(1500));  // Far past kCatchupIntervals * interval = 16 heights.
  const Height frontier = cluster.replica(0)->last_committed_height();
  ASSERT_GT(frontier, 16u);
  cluster.RebootReplica(victim);
  cluster.sim().RunFor(Sec(2));
  EXPECT_GE(cluster.checkpoint_manager()->snapshot_adopts(), 1u);
  const ReplicaBase* rep = cluster.replica(victim);
  ASSERT_NE(rep, nullptr);
  EXPECT_GE(rep->last_committed_height(), frontier);
  EXPECT_GT(rep->checkpoint_floor(), 0u);  // The adopted cert raised the rollback floor.
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
}

// A Raft follower takes no append at or below its committed height: it sends no ack, and a
// block its stable checkpoint already pruned from the store does not come back.
TEST(CheckpointClusterTest, RaftFollowerIgnoresAppendsAtOrBelowItsCommit) {
  constexpr NodeId kLeader = 0;  // Raft's bootstrap leader.
  constexpr NodeId kFollower = 1;
  Cluster cluster(CkptConfig(Protocol::kRaft, 8, 77));
  BlockPtr early;  // The first block the leader replicated to the follower.
  std::vector<Hash256> acked;
  cluster.net().SetDeliveryTap(
      [&](uint32_t from, uint32_t to, const MessageRef& msg, SimTime /*arrival*/) {
        if (from == kLeader && to == kFollower && early == nullptr) {
          if (const auto* append = dynamic_cast<const RaftAppendMsg*>(msg.get())) {
            early = append->block;
          }
        }
        if (from == kFollower && to == kLeader) {
          if (const auto* ack = dynamic_cast<const RaftAckMsg*>(msg.get())) {
            acked.push_back(ack->hash);
          }
        }
      });
  cluster.Start();
  cluster.sim().RunFor(Sec(1));
  ASSERT_NE(early, nullptr);
  const auto* leader = dynamic_cast<const RaftReplica*>(cluster.replica(kLeader));
  const ReplicaBase* follower = cluster.replica(kFollower);
  ASSERT_NE(leader, nullptr);
  ASSERT_EQ(leader->role(), RaftReplica::Role::kLeader);
  ASSERT_GT(follower->last_committed_height(), early->height + 2 * 8);
  ASSERT_FALSE(follower->store().Has(early->hash));  // Pruned behind a checkpoint.

  acked.clear();
  auto stale = std::make_shared<RaftAppendMsg>();
  stale->term = leader->term();
  stale->block = early;
  cluster.net().Send(kLeader, kFollower, stale);
  cluster.sim().RunFor(Ms(1));  // Delivered, and before the next checkpoint prunes again.
  EXPECT_FALSE(follower->store().Has(early->hash));
  cluster.sim().RunFor(Ms(20));
  EXPECT_EQ(std::count(acked.begin(), acked.end(), early->hash), 0);
}

TEST(CheckpointClusterTest, CorruptSnapshotIsRejectedOnReboot) {
  // MinBFT keeps trusted components in a TEE, so the certificate is sealed and the
  // corrupted host snapshot must be detected and dropped (network transfer instead).
  ClusterConfig config = CkptConfig(Protocol::kMinBft, 8, 79);
  config.journaling = true;
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Sec(2));
  const uint32_t victim = cluster.num_replicas() - 1;
  ASSERT_GT(cluster.checkpoint_manager()->last_stable(victim), 0u);
  cluster.CrashReplica(victim);
  cluster.checkpoint_manager()->ApplySnapshotFate(victim, SnapshotFate::kCorrupt);
  cluster.RebootReplica(victim);
  cluster.sim().RunFor(Sec(2));
  bool rejected = false;
  for (const obs::JournalRecord& r : cluster.recorder().journal()->NodeEvents(victim)) {
    if (r.kind == obs::JournalKind::kRollbackReject && r.detail == "ckpt/corrupt-snapshot") {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected) << "corrupt snapshot was not rejected";
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
}

TEST(CheckpointClusterTest, StaleSnapshotUnderASealedCertIsRejected) {
  ClusterConfig config = CkptConfig(Protocol::kMinBft, 8, 80);
  config.journaling = true;
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Sec(3));  // Long enough to retain several boundary snapshots.
  const uint32_t victim = cluster.num_replicas() - 1;
  ASSERT_GT(cluster.checkpoint_manager()->last_stable(victim), 8u);
  cluster.CrashReplica(victim);
  // The adversarial host resurrects the oldest retained snapshot; the sealed certificate
  // still names the newer one, so the replica must refuse the rollback.
  cluster.checkpoint_manager()->ApplySnapshotFate(victim, SnapshotFate::kStale);
  cluster.RebootReplica(victim);
  cluster.sim().RunFor(Sec(2));
  bool rejected = false;
  for (const obs::JournalRecord& r : cluster.recorder().journal()->NodeEvents(victim)) {
    if (r.kind == obs::JournalKind::kRollbackReject && r.detail == "ckpt/stale-snapshot") {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected) << "stale snapshot was accepted under a fresher sealed cert";
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
}

TEST(CheckpointClusterTest, ErasedSnapshotFallsBackToNetworkTransfer) {
  ClusterConfig config = CkptConfig(Protocol::kRaft, 8, 81);
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Sec(1));
  const uint32_t victim = cluster.num_replicas() - 1;
  cluster.CrashReplica(victim);
  cluster.sim().RunFor(Ms(1500));
  const Height frontier = cluster.replica(0)->last_committed_height();
  cluster.checkpoint_manager()->ApplySnapshotFate(victim, SnapshotFate::kErased);
  cluster.RebootReplica(victim);
  cluster.sim().RunFor(Sec(2));
  const ReplicaBase* rep = cluster.replica(victim);
  ASSERT_NE(rep, nullptr);
  EXPECT_GE(rep->last_committed_height(), frontier);
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
}

}  // namespace
}  // namespace achilles
