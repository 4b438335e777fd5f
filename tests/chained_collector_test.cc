// Byzantine input to the leader-side collectors that Achilles, Damysus and OneShot share
// (src/consensus/chained_replica.h): NEW-VIEW collection and f+1 vote collection. Every
// backup of an f = 2 cluster is crashed, so the leader hears only what a test crafts and
// signs with the cluster's keys. Each crafted set would reach quorum if the collector
// skipped a check; each must produce no proposal (NEW-VIEW) and no quorum output (votes).
// A valid completion afterwards proves the crafted input was a near miss, not ignored
// wholesale.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <vector>

#include "src/achilles/replica.h"
#include "src/damysus/replica.h"
#include "src/harness/cluster.h"
#include "src/oneshot/replica.h"

namespace achilles {
namespace {

constexpr uint32_t kF = 2;
constexpr uint32_t kN = 2 * kF + 1;
constexpr NodeId kLeader = 0;
// A view the leader leads and its pacemaker cannot reach within a test (base timeout
// 500 ms, tests run well under a simulated second).
constexpr View kView = 4 * kN;
static_assert(LeaderOfView(kView, kN) == kLeader);

struct Family {
  const char* name;
  Protocol protocol;
  const ChainedWireSpec* wire;
  const char* foreign_new_view_domain;  // Another family's NEW-VIEW domain.
};

void PrintTo(const Family& family, std::ostream* os) { *os << family.name; }

// Proposals built on NEW-VIEW certificates take OneShot's two-phase slow path.
const Family kFamilies[] = {
    {"Achilles", Protocol::kAchilles, &kAchillesWire, kDamysusWire.domains.new_view},
    {"Damysus", Protocol::kDamysus, &kDamysusWire, kOneShotWire.domains.new_view},
    {"OneShot", Protocol::kOneShot, &kOneShotWire, kAchillesWire.domains.new_view},
};

// One vote phase of a protocol: first-phase votes (PRE-COMMIT follows) or commit votes
// (DECIDE follows), their signing domain, and the message the leader broadcasts once the
// phase reaches quorum.
struct VotePhase {
  bool first;
  const char* domain;
  const char* quorum_output;
};

// The vote phases of `wire` in protocol order; the last one yields DECIDE.
std::vector<VotePhase> Phases(const ChainedWireSpec& wire) {
  std::vector<VotePhase> phases;
  if (wire.vote != nullptr) {
    phases.push_back({true, wire.domains.vote1, wire.precommit});
  }
  phases.push_back({false, wire.domains.commit, wire.decide});
  return phases;
}

ClusterConfig Config(Protocol protocol) {
  ClusterConfig config;
  config.protocol = protocol;
  config.f = kF;
  config.batch_size = 20;
  config.payload_size = 32;
  config.net = NetworkConfig::Lan();
  config.seed = 7;
  return config;
}

class ChainedCollectorTest : public ::testing::TestWithParam<Family> {
 protected:
  // Fresh cluster with only the leader up, past its genesis view entry.
  void StartCluster() {
    from_leader_.clear();
    cluster_ = std::make_unique<Cluster>(Config(GetParam().protocol));
    cluster_->net().SetDeliveryTap(
        [this](uint32_t from, uint32_t /*to*/, const MessageRef& msg, SimTime /*arrival*/) {
          if (from == kLeader) {
            from_leader_.push_back(msg);
          }
        });
    cluster_->Start();
    for (NodeId r = 0; r < kN; ++r) {
      if (r != kLeader) {
        cluster_->CrashReplica(r);
      }
    }
    Settle();
  }

  const Family& family() const { return GetParam(); }
  const ChainedWireSpec& wire() const { return *family().wire; }
  MessageRef NewViewMsg(const SignedCert& view_cert) const {
    return std::make_shared<ChainedNewViewMsg>(wire().new_view, view_cert);
  }
  void Settle() { cluster_->sim().RunFor(Ms(20)); }

  SignedCert Signed(NodeId signer, const Hash256& hash, View view, uint64_t aux,
                    const char* domain) {
    SignedCert cert;
    cert.hash = hash;
    cert.view = view;
    cert.aux = aux;
    const Bytes digest = cert.Digest(domain);
    cert.sig = cluster_->platform(kLeader).suite().Sign(signer,
                                                         ByteView(digest.data(), digest.size()));
    return cert;
  }
  // NEW-VIEW certificate of `signer` for kView reporting the genesis block as stored.
  SignedCert ViewCert(NodeId signer, const char* domain) {
    return Signed(signer, Block::Genesis()->hash, 0, /*aux=*/kView, domain);
  }
  void Deliver(NodeId from, const MessageRef& msg) {
    cluster_->net().Send(from, kLeader, msg);
  }

  size_t Sent(const char* trace_name) const {
    size_t count = 0;
    for (const MessageRef& msg : from_leader_) {
      count += std::strcmp(msg->TraceName(), trace_name) == 0 ? 1 : 0;
    }
    return count;
  }
  size_t Decides() const { return Sent(wire().decide); }

  // Valid NEW-VIEW certificates from backups 1..f+1: the leader must propose in kView.
  // Returns the proposed block's hash.
  Hash256 ProposeFromViewCerts() {
    for (NodeId signer = 1; signer <= kF + 1; ++signer) {
      Deliver(signer, NewViewMsg(ViewCert(signer, wire().domains.new_view)));
    }
    Settle();
    return ProposedHash();
  }
  Hash256 ProposedHash() const {
    for (const MessageRef& msg : from_leader_) {
      if (auto propose = std::dynamic_pointer_cast<const ChainedProposeMsg>(msg)) {
        return propose->block->hash;
      }
    }
    ADD_FAILURE() << "no proposal";
    return ZeroHash();
  }

  // Proposes, then completes every vote phase before `phase` with the leader's own vote
  // plus valid votes from backups 1..f.
  Hash256 DriveToPhase(size_t phase) {
    const Hash256 proposed = ProposeFromViewCerts();
    for (size_t p = 0; p < phase; ++p) {
      for (NodeId signer = 1; signer <= kF; ++signer) {
        DeliverVote(p, signer, proposed);
      }
      Settle();
      EXPECT_GT(Sent(Phases(wire())[p].quorum_output), 0u) << "phase " << p;
    }
    return proposed;
  }
  void DeliverVote(size_t phase, NodeId signer, const Hash256& hash) {
    const VotePhase vp = Phases(wire())[phase];
    const SignedCert vote = Signed(signer, hash, kView, 0, vp.domain);
    if (vp.first) {
      Deliver(signer, std::make_shared<ChainedVoteMsg>(wire().vote, vote));
    } else {
      Deliver(signer, std::make_shared<ChainedCommitVoteMsg>(wire().commit_vote, vote));
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<MessageRef> from_leader_;
};

TEST_P(ChainedCollectorTest, DuplicateSignerNewViewsDoNotPropose) {
  StartCluster();
  // f+1 copies of one backup's valid certificate count once.
  const MessageRef copy = NewViewMsg(ViewCert(1, wire().domains.new_view));
  for (uint32_t i = 0; i <= kF; ++i) {
    Deliver(1, copy);
  }
  Settle();
  EXPECT_EQ(Sent(wire().propose), 0u);
  EXPECT_EQ(Decides(), 0u);
  // Control: f more distinct signers complete the quorum with the counted copy.
  for (NodeId signer = 2; signer <= kF + 1; ++signer) {
    Deliver(signer, NewViewMsg(ViewCert(signer, wire().domains.new_view)));
  }
  Settle();
  EXPECT_GT(Sent(wire().propose), 0u);
}

TEST_P(ChainedCollectorTest, ForeignDomainNewViewsDoNotPropose) {
  StartCluster();
  for (NodeId signer = 1; signer <= kF + 1; ++signer) {
    Deliver(signer, NewViewMsg(ViewCert(signer, family().foreign_new_view_domain)));
  }
  Settle();
  EXPECT_EQ(Sent(wire().propose), 0u);
  EXPECT_EQ(Decides(), 0u);
  // Control: the same signers under the family's own domain.
  EXPECT_NE(ProposeFromViewCerts(), ZeroHash());
}

TEST_P(ChainedCollectorTest, DuplicateSignerVotesDoNotReachQuorum) {
  for (size_t phase = 0; phase < Phases(wire()).size(); ++phase) {
    SCOPED_TRACE(::testing::Message() << "vote phase " << phase);
    StartCluster();
    const Hash256 proposed = DriveToPhase(phase);
    const char* output = Phases(wire())[phase].quorum_output;
    // The leader's own vote plus f+1 copies of backup 1's: two distinct signers.
    for (uint32_t i = 0; i <= kF; ++i) {
      DeliverVote(phase, 1, proposed);
    }
    Settle();
    EXPECT_EQ(Sent(output), 0u);
    EXPECT_EQ(Decides(), 0u);
    // Control: one more distinct signer completes the quorum.
    DeliverVote(phase, 2, proposed);
    Settle();
    EXPECT_GT(Sent(output), 0u);
  }
}

TEST_P(ChainedCollectorTest, VotesForAnotherHashDoNotReachQuorum) {
  for (size_t phase = 0; phase < Phases(wire()).size(); ++phase) {
    SCOPED_TRACE(::testing::Message() << "vote phase " << phase);
    StartCluster();
    const Hash256 proposed = DriveToPhase(phase);
    const char* output = Phases(wire())[phase].quorum_output;
    Hash256 other = proposed;
    other[0] ^= 1;
    for (NodeId signer = 1; signer <= kF; ++signer) {
      DeliverVote(phase, signer, other);
    }
    Settle();
    EXPECT_EQ(Sent(output), 0u);
    EXPECT_EQ(Decides(), 0u);
    // Control: the same signers voting for the proposed block.
    for (NodeId signer = 1; signer <= kF; ++signer) {
      DeliverVote(phase, signer, proposed);
    }
    Settle();
    EXPECT_GT(Sent(output), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ChainedCollectorTest,
                         ::testing::ValuesIn(kFamilies),
                         [](const ::testing::TestParamInfo<Family>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace achilles
