// Byzantine input to the epoch-change collector that FlexiBFT and MinBFT share
// (src/consensus/stable_leader_replica.h). Every replica but the leader-to-be of the
// crafted target epochs is crashed, so it hears only what a test crafts (FlexiBFT's reports
// signed with the cluster's keys, MinBFT's unsigned ones attributed to the sending host).
// Each crafted set would elect the leader if the collector skipped a check; each must
// produce no election and no proposal. A valid quorum afterwards proves the crafted input
// was a near miss, not ignored wholesale.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <vector>

#include "src/flexibft/replica.h"
#include "src/harness/cluster.h"
#include "src/minbft/replica.h"

namespace achilles {
namespace {

constexpr uint32_t kF = 2;
// Not the leader of epoch 0, so it proposes only after an election it wins.
constexpr NodeId kLeader = 1;

struct Family {
  const char* name;
  Protocol protocol;
  const char* propose;  // Trace name of the leader's proposal.
  // Epoch-change message for `target` from `signer` reporting genesis as committed;
  // `domain` is the signing domain of a signed report.
  MessageRef (*make)(Cluster& cluster, NodeId signer, View target, const char* domain);
};

void PrintTo(const Family& family, std::ostream* os) { *os << family.name; }

Family FlexiBftFamily() {
  return Family{"FlexiBFT", Protocol::kFlexiBft, "fb_propose",
                [](Cluster& cluster, NodeId signer, View target,
                   const char* domain) -> MessageRef {
                  auto msg = std::make_shared<FbEpochChangeMsg>();
                  msg->cert.hash = Block::Genesis()->hash;
                  msg->cert.view = 0;
                  msg->cert.aux = target;
                  const Bytes digest = msg->cert.Digest(domain);
                  msg->cert.sig = cluster.platform(kLeader).suite().Sign(
                      signer, ByteView(digest.data(), digest.size()));
                  msg->committed_block = Block::Genesis();
                  return msg;
                }};
}

Family MinBftFamily() {
  return Family{"MinBFT", Protocol::kMinBft, "min_prepare",
                [](Cluster& /*cluster*/, NodeId /*signer*/, View target,
                   const char* /*domain*/) -> MessageRef {
                  auto msg = std::make_shared<MinEpochChangeMsg>();
                  msg->new_epoch = target;
                  msg->committed_hash = Block::Genesis()->hash;
                  msg->committed_block = Block::Genesis();
                  return msg;
                }};
}

class StableLeaderCollectorTest : public ::testing::TestWithParam<Family> {
 protected:
  // Fresh cluster with only the leader-to-be up.
  void StartCluster() {
    proposals_ = 0;
    ClusterConfig config;
    config.protocol = family().protocol;
    config.f = kF;
    config.batch_size = 20;
    config.payload_size = 32;
    config.journaling = true;
    config.seed = 7;
    cluster_ = std::make_unique<Cluster>(config);
    cluster_->net().SetDeliveryTap(
        [this](uint32_t from, uint32_t to, const MessageRef& msg, SimTime /*arrival*/) {
          // The leader's own copy of each broadcast: one per proposal.
          if (from == kLeader && to == kLeader &&
              std::strcmp(msg->TraceName(), family().propose) == 0) {
            ++proposals_;
          }
        });
    cluster_->Start();
    n_ = cluster_->num_replicas();
    for (NodeId r = 0; r < n_; ++r) {
      if (r != kLeader) {
        cluster_->CrashReplica(r);
      }
    }
    Settle();
  }

  const Family& family() const { return GetParam(); }
  // Settles well inside the leader's 500 ms base timeout, so its pacemaker moves only
  // where a test waits for it.
  void Settle() { cluster_->sim().RunFor(Ms(20)); }
  size_t quorum() const { return n_ - kF; }
  // The epoch after k full rounds that kLeader leads, and one another replica leads.
  View LedEpoch(uint32_t k) const { return kLeader + k * n_; }
  View ForeignEpoch() const { return kLeader + 1 + n_; }
  // The `count` lowest replicas other than the leader.
  std::vector<NodeId> Senders(size_t count) const {
    std::vector<NodeId> senders;
    for (NodeId r = 0; senders.size() < count; ++r) {
      if (r != kLeader) {
        senders.push_back(r);
      }
    }
    return senders;
  }

  void Deliver(NodeId from, View target, const char* domain = kFbEpoch) {
    cluster_->net().Send(from, kLeader, family().make(*cluster_, from, target, domain));
  }
  void DeliverQuorum(View target, const char* domain = kFbEpoch) {
    for (NodeId from : Senders(quorum())) {
      Deliver(from, target, domain);
    }
    Settle();
  }
  // kLeaderElected records the leader journaled for `epoch`.
  size_t Elections(View epoch) const {
    size_t count = 0;
    for (const obs::JournalRecord& r : cluster_->recorder().journal()->NodeEvents(kLeader)) {
      count += r.kind == obs::JournalKind::kLeaderElected && r.a == epoch ? 1 : 0;
    }
    return count;
  }
  View LeaderView() { return cluster_->replica(kLeader)->view(); }

  std::unique_ptr<Cluster> cluster_;
  uint32_t n_ = 0;
  size_t proposals_ = 0;
};

TEST_P(StableLeaderCollectorTest, DuplicateSenderCountsOnce) {
  StartCluster();
  const View target = LedEpoch(2);
  // A quorum's worth of copies from one sender.
  for (size_t i = 0; i < quorum(); ++i) {
    Deliver(Senders(1)[0], target);
  }
  Settle();
  EXPECT_EQ(Elections(target), 0u);
  EXPECT_EQ(proposals_, 0u);
  // Control: the other senders complete the quorum with the counted copy.
  for (NodeId from : Senders(quorum())) {
    if (from != Senders(1)[0]) {
      Deliver(from, target);
    }
  }
  Settle();
  EXPECT_EQ(Elections(target), 1u);
  EXPECT_EQ(LeaderView(), target);
  EXPECT_EQ(proposals_, 1u);
}

TEST_P(StableLeaderCollectorTest, TargetLedByAnotherOrBelowTheViewIsDropped) {
  StartCluster();
  DeliverQuorum(ForeignEpoch());
  EXPECT_EQ(Elections(ForeignEpoch()), 0u);
  EXPECT_EQ(proposals_, 0u);
  EXPECT_EQ(LeaderView(), 0u);
  // Two timeouts (500 ms, then 1 s) carry the leader past epoch 1, which it leads and
  // announced with its own epoch-change message, into epoch 2, which it does not lead.
  cluster_->sim().RunFor(Ms(1600));
  ASSERT_EQ(LeaderView(), 2u);
  const View below = LedEpoch(0);
  DeliverQuorum(below);
  EXPECT_EQ(Elections(below), 0u);
  EXPECT_EQ(proposals_, 0u);
  // Control: a target the leader leads, at or above its view.
  const View target = LedEpoch(1);
  DeliverQuorum(target);
  EXPECT_EQ(Elections(target), 1u);
  EXPECT_EQ(LeaderView(), target);
  EXPECT_EQ(proposals_, 1u);
}

// FlexiBFT's reports are signed; MinBFT's are attributed to the sending host.
using SignedReportCollectorTest = StableLeaderCollectorTest;

TEST_P(SignedReportCollectorTest, BadSignatureIsDropped) {
  StartCluster();
  const View target = LedEpoch(2);
  DeliverQuorum(target, kFbVote);  // Valid signatures, but over the wrong domain.
  EXPECT_EQ(Elections(target), 0u);
  EXPECT_EQ(proposals_, 0u);
  // Control: the same senders under the epoch-change domain.
  DeliverQuorum(target);
  EXPECT_EQ(Elections(target), 1u);
  EXPECT_EQ(proposals_, 1u);
}

TEST_P(StableLeaderCollectorTest, QuorumElectsOncePerEpoch) {
  StartCluster();
  const View target = LedEpoch(2);
  DeliverQuorum(target);
  ASSERT_EQ(Elections(target), 1u);
  ASSERT_EQ(proposals_, 1u);
  // Late epoch-change messages from every replica, twice over: enough to rebuild a quorum
  // for the epoch the leader was just elected in.
  for (int round = 0; round < 2; ++round) {
    for (NodeId from : Senders(n_ - 1)) {
      Deliver(from, target);
    }
  }
  Settle();
  EXPECT_EQ(Elections(target), 1u);
  EXPECT_EQ(proposals_, 1u);
  EXPECT_EQ(LeaderView(), target);
}

INSTANTIATE_TEST_SUITE_P(Families, StableLeaderCollectorTest,
                         ::testing::Values(FlexiBftFamily(), MinBftFamily()),
                         [](const ::testing::TestParamInfo<Family>& param_info) {
                           return std::string(param_info.param.name);
                         });
INSTANTIATE_TEST_SUITE_P(Signed, SignedReportCollectorTest, ::testing::Values(FlexiBftFamily()),
                         [](const ::testing::TestParamInfo<Family>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace achilles
