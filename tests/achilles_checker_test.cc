// Unit tests for the Achilles trusted components (Algorithms 2 and 3), including the
// equivocation loopholes and the §4.5 recovery attack.
#include <gtest/gtest.h>

#include <memory>

#include "src/achilles/checker.h"
#include "src/harness/cluster.h"

namespace achilles {
namespace {

// A small cluster of checkers sharing one suite, each on its own host/platform.
class CheckerFixture : public ::testing::Test {
 protected:
  static constexpr uint32_t kN = 5;
  static constexpr uint32_t kF = 2;

  CheckerFixture() : sim_(3), suite_(SignatureScheme::kFastHmac, kN, 17) {
    for (uint32_t i = 0; i < kN; ++i) {
      hosts_.push_back(std::make_unique<Host>(&sim_, i));
      platforms_.push_back(std::make_unique<NodePlatform>(
          hosts_.back().get(), &suite_, CostModel::Default(), TeeConfig{}, 5));
      enclaves_.push_back(std::make_unique<EnclaveRuntime>(platforms_.back().get()));
      checkers_.push_back(
          std::make_unique<AchillesChecker>(enclaves_.back().get(), kN, kF, true));
    }
  }

  // Brings every checker into view `v` and returns their NEW-VIEW certs for it.
  std::vector<SignedCert> EnterView(View v) {
    std::vector<SignedCert> certs;
    for (auto& checker : checkers_) {
      auto cert = checker->TeeView(v);
      if (cert) {
        certs.push_back(*cert);
      }
    }
    return certs;
  }

  BlockPtr MakeChild(const BlockPtr& parent, View v) {
    return Block::Create(v, parent, {}, 0);
  }

  Simulation sim_;
  CryptoSuite suite_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<NodePlatform>> platforms_;
  std::vector<std::unique_ptr<EnclaveRuntime>> enclaves_;
  std::vector<std::unique_ptr<AchillesChecker>> checkers_;
};

TEST_F(CheckerFixture, InitialStateIsGenesisView0) {
  EXPECT_EQ(checkers_[0]->vi(), 0u);
  EXPECT_EQ(checkers_[0]->prepv(), 0u);
  EXPECT_EQ(checkers_[0]->preph(), Block::Genesis()->hash);
  EXPECT_FALSE(checkers_[0]->recovering());
}

TEST_F(CheckerFixture, TeeViewAdvancesAndRefusesBackward) {
  auto cert = checkers_[0]->TeeView(3);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(checkers_[0]->vi(), 3u);
  EXPECT_EQ(cert->aux, 3u);                           // Target view.
  EXPECT_EQ(cert->hash, Block::Genesis()->hash);      // preph.
  EXPECT_FALSE(checkers_[0]->TeeView(3).has_value()); // Not strictly greater.
  EXPECT_FALSE(checkers_[0]->TeeView(2).has_value());
}

TEST_F(CheckerFixture, AccumulatorPicksHighestView) {
  // Leader of view 1 is node 1.
  auto certs = EnterView(1);
  auto acc = checkers_[1]->TeeAccum(certs);
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(acc->hash, Block::Genesis()->hash);
  EXPECT_EQ(acc->block_view, 0u);
  EXPECT_EQ(acc->current_view, 1u);
  EXPECT_EQ(acc->ids.size(), kN);
}

TEST_F(CheckerFixture, AccumulatorRejectsWrongViewAndDuplicates) {
  auto certs = EnterView(1);
  // Node 2 stays at view 1, certs claim view 1 but accumulator at view 2 must reject.
  checkers_[1]->TeeView(2);
  EXPECT_FALSE(checkers_[1]->TeeAccum(certs).has_value());

  // Fresh round at view 2 for everyone.
  std::vector<SignedCert> certs2;
  for (uint32_t i = 0; i != kN; ++i) {
    if (i == 1) {
      continue;  // Node 1 already advanced.
    }
    certs2.push_back(*checkers_[i]->TeeView(2));
  }
  // Leader of view 2 is node 2... use node 2's checker after advancing it.
  // Duplicate signers must be rejected.
  std::vector<SignedCert> dup = {certs2[0], certs2[0], certs2[1]};
  EXPECT_FALSE(checkers_[2]->TeeAccum(dup).has_value());
  // Too few certificates.
  std::vector<SignedCert> tiny = {certs2[0], certs2[1]};
  EXPECT_FALSE(checkers_[2]->TeeAccum(tiny).has_value());
  // A proper set works.
  EXPECT_TRUE(checkers_[2]->TeeAccum(certs2).has_value());
}

TEST_F(CheckerFixture, PrepareOncePerViewViaFlag) {
  auto certs = EnterView(1);
  auto acc = checkers_[1]->TeeAccum(certs);
  ASSERT_TRUE(acc.has_value());
  const BlockPtr b1 = MakeChild(Block::Genesis(), 1);
  const BlockPtr b2 = Block::Create(1, Block::Genesis(),
                                    {Transaction{Transaction::MakeId(1, 1), 0, 8}}, 0);
  ASSERT_TRUE(checkers_[1]->TeePrepare(*b1, *acc).has_value());
  // Equivocation attempt: second block in the same view, even with the same accumulator.
  EXPECT_FALSE(checkers_[1]->TeePrepare(*b2, *acc).has_value());
}

TEST_F(CheckerFixture, ProposeStoreProposeLoopholeClosed) {
  // A leader that proposes, stores its own block, and tries to propose again in the same
  // view must be refused: TeeStore at the same view must not reset the flag.
  auto certs = EnterView(1);
  auto acc = checkers_[1]->TeeAccum(certs);
  const BlockPtr b1 = MakeChild(Block::Genesis(), 1);
  auto prop = checkers_[1]->TeePrepare(*b1, *acc);
  ASSERT_TRUE(prop.has_value());
  ASSERT_TRUE(checkers_[1]->TeeStore(*prop).has_value());
  const BlockPtr b2 = Block::Create(1, Block::Genesis(),
                                    {Transaction{Transaction::MakeId(7, 7), 0, 8}}, 0);
  EXPECT_FALSE(checkers_[1]->TeePrepare(*b2, *acc).has_value());
}

TEST_F(CheckerFixture, PrepareRejectsForeignOrStaleAccumulator) {
  auto certs = EnterView(1);
  auto acc = checkers_[1]->TeeAccum(certs);
  ASSERT_TRUE(acc.has_value());
  const BlockPtr b = MakeChild(Block::Genesis(), 1);
  // Accumulator produced by node 1 cannot be used by node 2's checker.
  checkers_[2]->TeeView(1);  // Hmm: node 2 is already at view 1 from EnterView.
  EXPECT_FALSE(checkers_[2]->TeePrepare(*b, *acc).has_value());
  // Stale accumulator: leader advanced a view.
  checkers_[1]->TeeView(5);
  EXPECT_FALSE(checkers_[1]->TeePrepare(*b, *acc).has_value());
}

TEST_F(CheckerFixture, PrepareRejectsWrongParent) {
  auto certs = EnterView(1);
  auto acc = checkers_[1]->TeeAccum(certs);
  const BlockPtr stranger = MakeChild(Block::Genesis(), 1);
  const BlockPtr child_of_stranger = MakeChild(stranger, 1);
  EXPECT_FALSE(checkers_[1]->TeePrepare(*child_of_stranger, *acc).has_value());
}

TEST_F(CheckerFixture, StoreValidatesLeaderAndFreshness) {
  auto certs = EnterView(1);
  auto acc = checkers_[1]->TeeAccum(certs);
  const BlockPtr b = MakeChild(Block::Genesis(), 1);
  auto prop = checkers_[1]->TeePrepare(*b, *acc);
  ASSERT_TRUE(prop.has_value());

  // Correct backup stores it and reports the new (prepv, preph).
  auto store = checkers_[0]->TeeStore(*prop);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(checkers_[0]->prepv(), 1u);
  EXPECT_EQ(checkers_[0]->preph(), b->hash);
  EXPECT_EQ(store->view, 1u);

  // A certificate whose signer is not the leader of its view is rejected: node 2 at view 2.
  SignedCert forged = *prop;
  forged.view = 2;  // Signature no longer matches; also signer 1 != leader(2).
  EXPECT_FALSE(checkers_[0]->TeeStore(forged).has_value());

  // Stale: checker moved past the certificate's view.
  checkers_[0]->TeeView(9);
  EXPECT_FALSE(checkers_[0]->TeeStore(*prop).has_value());
}

TEST_F(CheckerFixture, StoreAdvancingViewResetsProposalFlag) {
  auto certs = EnterView(1);
  auto acc = checkers_[1]->TeeAccum(certs);
  const BlockPtr b = MakeChild(Block::Genesis(), 1);
  auto prop = checkers_[1]->TeePrepare(*b, *acc);
  ASSERT_TRUE(prop.has_value());
  ASSERT_TRUE(checkers_[0]->TeeStore(*prop).has_value());
  EXPECT_EQ(checkers_[0]->vi(), 1u);
  EXPECT_FALSE(checkers_[0]->proposed_flag());
}

TEST_F(CheckerFixture, CommitPathPrepareAdvancesView) {
  // Build a commitment certificate for view 1 from store certs.
  auto certs = EnterView(1);
  auto acc = checkers_[1]->TeeAccum(certs);
  const BlockPtr b = MakeChild(Block::Genesis(), 1);
  auto prop = checkers_[1]->TeePrepare(*b, *acc);
  QuorumCert commit;
  commit.hash = b->hash;
  commit.view = 1;
  for (uint32_t i = 0; i < kF + 1; ++i) {
    auto store = checkers_[i]->TeeStore(*prop);
    ASSERT_TRUE(store.has_value());
    commit.sigs.push_back(store->sig);
  }
  // Leader of view 2 (node 2) proposes directly from the commitment certificate.
  const BlockPtr b2 = MakeChild(b, 2);
  auto prop2 = checkers_[2]->TeePrepare(*b2, commit);
  ASSERT_TRUE(prop2.has_value());
  EXPECT_EQ(checkers_[2]->vi(), 2u);
  EXPECT_EQ(prop2->view, 2u);
  // And cannot propose twice in view 2.
  const BlockPtr b2x = Block::Create(2, b, {Transaction{1, 0, 1}}, 0);
  EXPECT_FALSE(checkers_[2]->TeePrepare(*b2x, commit).has_value());
}

TEST_F(CheckerFixture, CommitPathRejectsBadQuorum) {
  auto certs = EnterView(1);
  auto acc = checkers_[1]->TeeAccum(certs);
  const BlockPtr b = MakeChild(Block::Genesis(), 1);
  auto prop = checkers_[1]->TeePrepare(*b, *acc);
  QuorumCert commit;
  commit.hash = b->hash;
  commit.view = 1;
  auto store = checkers_[0]->TeeStore(*prop);
  commit.sigs.push_back(store->sig);  // Only one signature: below quorum.
  const BlockPtr b2 = MakeChild(b, 2);
  EXPECT_FALSE(checkers_[2]->TeePrepare(*b2, commit).has_value());
}

// The suite memoizes verified tuples; once the commit cert's signatures are memoized, a
// tampered cert must still fail QuorumCert::Verify and the original must still pass.
TEST_F(CheckerFixture, TamperedCommitCertFailsAgainstWarmMemo) {
  auto certs = EnterView(1);
  auto acc = checkers_[1]->TeeAccum(certs);
  const BlockPtr b = MakeChild(Block::Genesis(), 1);
  auto prop = checkers_[1]->TeePrepare(*b, *acc);
  QuorumCert commit;
  commit.hash = b->hash;
  commit.view = 1;
  for (uint32_t i = 0; i < kF + 1; ++i) {
    auto store = checkers_[i]->TeeStore(*prop);
    ASSERT_TRUE(store.has_value());
    commit.sigs.push_back(store->sig);
  }
  const size_t quorum = kF + 1;
  ASSERT_TRUE(commit.Verify(suite_, kAchCommit, quorum));
  const uint64_t warm = suite_.memo_hits();
  ASSERT_TRUE(commit.Verify(suite_, kAchCommit, quorum));
  ASSERT_EQ(suite_.memo_hits(), warm + quorum);  // Every signature came from the memo.

  QuorumCert flipped = commit;
  flipped.sigs[1].blob[0] ^= 0x01;
  EXPECT_FALSE(flipped.Verify(suite_, kAchCommit, quorum));

  QuorumCert reattributed = commit;
  reattributed.sigs[0].signer = kN - 1;  // A replica that did not store the block.
  EXPECT_FALSE(reattributed.Verify(suite_, kAchCommit, quorum));

  QuorumCert other_view = commit;
  other_view.view = 2;  // Same signatures, another view.
  EXPECT_FALSE(other_view.Verify(suite_, kAchCommit, quorum));
  EXPECT_FALSE(commit.Verify(suite_, kAchProp, quorum));  // Another domain.

  QuorumCert dup = commit;
  dup.sigs[2] = dup.sigs[0];
  EXPECT_FALSE(dup.Verify(suite_, kAchCommit, quorum));

  EXPECT_TRUE(commit.Verify(suite_, kAchCommit, quorum));
}

// --- Recovery (Algorithm 3) ---

class RecoveryFixture : public CheckerFixture {
 protected:
  // Rebuilds checker `i` as a rebooted (recovering) instance.
  void Reboot(uint32_t i) {
    enclaves_[i] = std::make_unique<EnclaveRuntime>(platforms_[i].get());
    checkers_[i] = std::make_unique<AchillesChecker>(enclaves_[i].get(), kN, kF, false);
  }

  std::vector<SignedCert> GatherReplies(const SignedCert& request, uint32_t requester,
                                        const std::vector<uint32_t>& responders) {
    std::vector<SignedCert> replies;
    for (uint32_t r : responders) {
      auto reply = checkers_[r]->TeeReply(request, requester);
      if (reply) {
        replies.push_back(*reply);
      }
    }
    return replies;
  }
};

TEST_F(RecoveryFixture, RecoveringCheckerRefusesEverything) {
  Reboot(0);
  EXPECT_TRUE(checkers_[0]->recovering());
  EXPECT_FALSE(checkers_[0]->TeeView(1).has_value());
  auto req = checkers_[1]->TeeRequest();
  EXPECT_FALSE(req.has_value());  // Active checker cannot create recovery requests...
  auto req0 = checkers_[0]->TeeRequest();
  ASSERT_TRUE(req0.has_value());  // ...but the recovering one can.
  // And the recovering checker must not answer others' requests.
  Reboot(2);
  auto req2 = checkers_[2]->TeeRequest();
  ASSERT_TRUE(req2.has_value());
  EXPECT_FALSE(checkers_[0]->TeeReply(*req2, 2).has_value());
}

TEST_F(RecoveryFixture, SuccessfulRecoveryJumpsTwoViews) {
  // Everyone reaches view 6 (leader of view 6 on 5 nodes is node 1).
  EnterView(6);
  Reboot(0);
  auto req = checkers_[0]->TeeRequest();
  ASSERT_TRUE(req.has_value());
  auto replies = GatherReplies(*req, 0, {1, 2, 3});
  ASSERT_EQ(replies.size(), 3u);
  // Highest-view reply (all are view 6) must be from leader(6) = node 1 -> replies[0].
  auto view_cert = checkers_[0]->TeeRecover(replies[0], replies);
  ASSERT_TRUE(view_cert.has_value());
  EXPECT_FALSE(checkers_[0]->recovering());
  EXPECT_EQ(checkers_[0]->vi(), 8u);  // v' + 2.
  EXPECT_EQ(view_cert->aux, 8u);
}

TEST_F(RecoveryFixture, HighestViewMustComeFromItsLeader) {
  // The §4.5 attack shape: the freshest reply does NOT come from the leader of its view.
  // Views: node 2,3,4 at view 7 (leader(7) = node 2), node 3 individually at view 9
  // (leader(9) = node 4, not node 3!). The set whose max view comes from node 3 must fail.
  checkers_[2]->TeeView(7);
  checkers_[3]->TeeView(9);
  checkers_[4]->TeeView(7);
  Reboot(0);
  auto req = checkers_[0]->TeeRequest();
  auto replies = GatherReplies(*req, 0, {2, 3, 4});
  ASSERT_EQ(replies.size(), 3u);
  const SignedCert& highest = replies[1];  // Node 3's reply, view 9.
  ASSERT_EQ(highest.aux, 9u);
  EXPECT_FALSE(checkers_[0]->TeeRecover(highest, replies).has_value());
  // Choosing a lower reply as "leader reply" must also fail (not the max).
  EXPECT_FALSE(checkers_[0]->TeeRecover(replies[0], replies).has_value());
}

TEST_F(RecoveryFixture, NonceProtectsAgainstReplayedReplies) {
  EnterView(6);
  Reboot(0);
  auto req1 = checkers_[0]->TeeRequest();
  auto stale = GatherReplies(*req1, 0, {1, 2, 3});
  // A second request supersedes the first; old replies must be rejected.
  auto req2 = checkers_[0]->TeeRequest();
  ASSERT_NE(req1->aux, req2->aux);
  EXPECT_FALSE(checkers_[0]->TeeRecover(stale[0], stale).has_value());
  auto fresh = GatherReplies(*req2, 0, {1, 2, 3});
  EXPECT_TRUE(checkers_[0]->TeeRecover(fresh[0], fresh).has_value());
}

TEST_F(RecoveryFixture, RepliesBoundToRequester) {
  EnterView(6);
  Reboot(0);
  Reboot(4);
  auto req0 = checkers_[0]->TeeRequest();
  auto req4 = checkers_[4]->TeeRequest();
  // Node 4 must not be able to use replies addressed to node 0 (domain binding).
  auto replies_for_0 = GatherReplies(*req0, 0, {1, 2, 3});
  EXPECT_FALSE(checkers_[4]->TeeRecover(replies_for_0[0], replies_for_0).has_value());
  (void)req4;
}

TEST_F(RecoveryFixture, QuorumRequired) {
  EnterView(6);
  Reboot(0);
  auto req = checkers_[0]->TeeRequest();
  auto replies = GatherReplies(*req, 0, {1, 2});
  ASSERT_EQ(replies.size(), 2u);  // f+1 = 3 needed.
  EXPECT_FALSE(checkers_[0]->TeeRecover(replies[0], replies).has_value());
}

TEST_F(RecoveryFixture, NoEquivocationAfterRecovery) {
  // A node that stored/voted in view 6 then crashed must never vote in view 6 again.
  EnterView(6);
  // Node 1 is leader of view 6: propose and let node 0 store (vote).
  auto certs = EnterView(7);  // Move everyone to 7... simpler: drive a proposal at view 7.
  auto acc = checkers_[2]->TeeAccum(certs);  // leader(7) = node 2.
  ASSERT_TRUE(acc.has_value());
  const BlockPtr b = MakeChild(Block::Genesis(), 7);
  auto prop = checkers_[2]->TeePrepare(*b, *acc);
  ASSERT_TRUE(prop.has_value());
  ASSERT_TRUE(checkers_[0]->TeeStore(*prop).has_value());  // Node 0 votes in view 7.
  Reboot(0);
  auto req = checkers_[0]->TeeRequest();
  auto replies = GatherReplies(*req, 0, {2, 3, 4});
  // Highest view among replies is 7 from node 2 = leader(7). Recovery succeeds...
  auto view_cert = checkers_[0]->TeeRecover(replies[0], replies);
  ASSERT_TRUE(view_cert.has_value());
  // ...and the node lands past view 7, so a replayed proposal for view 7 is unstorable.
  EXPECT_GE(checkers_[0]->vi(), 8u);
  EXPECT_FALSE(checkers_[0]->TeeStore(*prop).has_value());
}

}  // namespace
}  // namespace achilles
