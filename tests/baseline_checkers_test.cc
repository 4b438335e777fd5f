// Direct unit tests for SealedVoteChecker, the trusted component of Damysus and OneShot:
// equivocation guards, phase ordering, seal/restore semantics, and counter binding. The
// generic cases run under each protocol's seal slot and signing domains; the single-phase
// fast path is OneShot's alone.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "src/damysus/replica.h"
#include "src/oneshot/replica.h"

namespace achilles {
namespace {

constexpr uint32_t kN = 5;
constexpr uint32_t kF = 2;

// The constants a protocol hands its checker.
struct CheckerSpec {
  const char* name;
  const char* seal_slot;
  ChainedDomains domains;
};

void PrintTo(const CheckerSpec& spec, std::ostream* os) { *os << spec.name; }

const CheckerSpec kDamysusConstants{"Damysus", kDamysusSealSlot, kDamysusWire.domains};
const CheckerSpec kOneShotConstants{"OneShot", kOneShotSealSlot, kOneShotWire.domains};

class CheckerFixture {
 protected:
  explicit CheckerFixture(const CheckerSpec& spec)
      : spec_(spec), sim_(5), suite_(SignatureScheme::kFastHmac, kN, 23) {
    TeeConfig tee;
    tee.counter = CounterSpec::Custom(Ms(20), Ms(5));
    for (uint32_t i = 0; i < kN; ++i) {
      hosts_.push_back(std::make_unique<Host>(&sim_, i));
      platforms_.push_back(std::make_unique<NodePlatform>(
          hosts_.back().get(), &suite_, CostModel::Default(), tee, 8));
      enclaves_.push_back(std::make_unique<EnclaveRuntime>(platforms_.back().get()));
      checkers_.push_back(std::make_unique<SealedVoteChecker>(enclaves_[i].get(), kN, kF,
                                                              spec.seal_slot, spec.domains));
    }
  }

  std::vector<SignedCert> NewViews(View v) {
    std::vector<SignedCert> certs;
    for (auto& checker : checkers_) {
      auto cert = checker->NewView(v);
      if (cert) {
        certs.push_back(*cert);
      }
    }
    return certs;
  }

  // Crashes node 0's enclave and restores a fresh incarnation from its sealed state.
  std::unique_ptr<SealedVoteChecker> RebootNode0() {
    checkers_[0].reset();
    enclaves_[0] = std::make_unique<EnclaveRuntime>(platforms_[0].get());
    return SealedVoteChecker::Restore(enclaves_[0].get(), kN, kF, spec_.seal_slot,
                                      spec_.domains);
  }

  // Slow path of view 1 up to its prepared QC for `block` (f+1 first-phase votes).
  QuorumCert PrepareView1(const BlockPtr& block) {
    auto acc = checkers_[1]->Accum(NewViews(1));  // Node 1 leads view 1.
    EXPECT_TRUE(acc.has_value());
    auto prep = checkers_[1]->PrepareFromAcc(*block, *acc);
    EXPECT_TRUE(prep.has_value());
    QuorumCert prepared;
    prepared.hash = block->hash;
    prepared.view = 1;
    for (uint32_t i = 0; i < kN && prepared.sigs.size() < kF + 1; ++i) {
      if (auto vote = checkers_[i]->VoteFirst(*prep)) {
        prepared.sigs.push_back(vote->sig);
      }
    }
    return prepared;
  }

  // Second phase of view 1: the commit QC over `prepared` (f+1 StorePrepared votes).
  QuorumCert CommitView1(const QuorumCert& prepared) {
    QuorumCert committed;
    committed.hash = prepared.hash;
    committed.view = prepared.view;
    for (uint32_t i = 0; i < kN && committed.sigs.size() < kF + 1; ++i) {
      if (auto vote = checkers_[i]->StorePrepared(prepared)) {
        committed.sigs.push_back(vote->sig);
      }
    }
    return committed;
  }

  const CheckerSpec spec_;
  Simulation sim_;
  CryptoSuite suite_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<NodePlatform>> platforms_;
  std::vector<std::unique_ptr<EnclaveRuntime>> enclaves_;
  std::vector<std::unique_ptr<SealedVoteChecker>> checkers_;
};

// --- Generic cases, under each protocol's constants ---

class SealedVoteCheckerTest : public ::testing::TestWithParam<CheckerSpec>,
                              public CheckerFixture {
 protected:
  SealedVoteCheckerTest() : CheckerFixture(GetParam()) {}
};

TEST_P(SealedVoteCheckerTest, OneProposalPerView) {
  auto certs = NewViews(1);
  auto acc = checkers_[1]->Accum(certs);  // Leader of view 1.
  ASSERT_TRUE(acc.has_value());
  const BlockPtr a = Block::Create(1, Block::Genesis(), {}, 0);
  const BlockPtr b = Block::Create(1, Block::Genesis(), {Transaction{1, 0, 4}}, 0);
  EXPECT_TRUE(checkers_[1]->PrepareFromAcc(*a, *acc).has_value());
  EXPECT_FALSE(checkers_[1]->PrepareFromAcc(*b, *acc).has_value());
}

TEST_P(SealedVoteCheckerTest, OneFirstPhaseVotePerView) {
  auto certs = NewViews(1);
  auto acc = checkers_[1]->Accum(certs);
  const BlockPtr block = Block::Create(1, Block::Genesis(), {}, 0);
  auto prep = checkers_[1]->PrepareFromAcc(*block, *acc);
  ASSERT_TRUE(prep.has_value());
  EXPECT_TRUE(checkers_[0]->VoteFirst(*prep).has_value());
  EXPECT_FALSE(checkers_[0]->VoteFirst(*prep).has_value());  // Second vote refused.
}

TEST_P(SealedVoteCheckerTest, StoreRecordsPreparedBlockOnce) {
  const BlockPtr block = Block::Create(1, Block::Genesis(), {}, 0);
  const QuorumCert prepared = PrepareView1(block);
  ASSERT_GE(prepared.sigs.size(), kF + 1);
  auto store = checkers_[3]->StorePrepared(prepared);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(checkers_[3]->prepv(), 1u);
  EXPECT_EQ(checkers_[3]->preph(), block->hash);
  EXPECT_FALSE(checkers_[3]->StorePrepared(prepared).has_value());  // voted2 set.
}

TEST_P(SealedVoteCheckerTest, StoreRejectsSubQuorumOrWrongDomain) {
  const BlockPtr block = Block::Create(1, Block::Genesis(), {}, 0);
  const QuorumCert prepared = PrepareView1(block);
  ASSERT_GE(prepared.sigs.size(), kF + 1);
  QuorumCert thin = prepared;
  thin.sigs.resize(1);
  EXPECT_FALSE(checkers_[3]->StorePrepared(thin).has_value());  // One sig < f+1.
  // f+1 distinct signers, but over the commit domain instead of the first-phase one.
  QuorumCert foreign = prepared;
  const Bytes digest = foreign.Digest(spec_.domains.commit);
  for (Signature& sig : foreign.sigs) {
    sig = suite_.Sign(sig.signer, ByteView(digest.data(), digest.size()));
  }
  EXPECT_FALSE(checkers_[3]->StorePrepared(foreign).has_value());
  // Control: the genuine prepared QC is accepted by the same checker.
  EXPECT_TRUE(checkers_[3]->StorePrepared(prepared).has_value());
}

TEST_P(SealedVoteCheckerTest, EveryMutationWritesCounter) {
  auto certs = NewViews(1);  // One NewView per checker: kN writes (plus genesis seal).
  uint64_t writes = 0;
  for (auto& platform : platforms_) {
    writes += platform->counter().writes();
  }
  EXPECT_GE(writes, static_cast<uint64_t>(kN));
  auto acc = checkers_[1]->Accum(certs);  // Stateless: no write.
  const uint64_t before = platforms_[1]->counter().writes();
  const BlockPtr block = Block::Create(1, Block::Genesis(), {}, 0);
  checkers_[1]->PrepareFromAcc(*block, *acc);  // Mutation: +1 write.
  EXPECT_EQ(platforms_[1]->counter().writes(), before + 1);
}

TEST_P(SealedVoteCheckerTest, RestoreRoundTripsSealedState) {
  NewViews(3);
  EXPECT_EQ(checkers_[0]->vi(), 3u);
  // Fresh enclave incarnation on the same platform restores the sealed state.
  auto restored = RebootNode0();
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->vi(), 3u);
  EXPECT_EQ(restored->preph(), Block::Genesis()->hash);
}

TEST_P(SealedVoteCheckerTest, RestoreDetectsRollback) {
  NewViews(2);
  NewViews(4);  // Two sealed versions beyond genesis.
  platforms_[0]->storage().SetRollbackMode(RollbackMode::kOldest);
  EXPECT_EQ(RebootNode0(), nullptr);
}

TEST_P(SealedVoteCheckerTest, RestoreWithErasedStorageFails) {
  NewViews(2);
  platforms_[0]->storage().SetRollbackMode(RollbackMode::kErase);
  EXPECT_EQ(RebootNode0(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Protocols, SealedVoteCheckerTest,
                         ::testing::Values(kDamysusConstants, kOneShotConstants),
                         [](const ::testing::TestParamInfo<CheckerSpec>& param_info) {
                           return std::string(param_info.param.name);
                         });

// --- OneShot's single-phase fast path ---

class OneShotFastPathTest : public ::testing::Test, public CheckerFixture {
 protected:
  OneShotFastPathTest() : CheckerFixture(kOneShotConstants) {}

  // Commits view 1 through the two-phase slow path, returning its commit QC.
  QuorumCert CommitSlowView1(const BlockPtr& block) {
    const QuorumCert committed = CommitView1(PrepareView1(block));
    EXPECT_GE(committed.sigs.size(), kF + 1);
    return committed;
  }
};

TEST_F(OneShotFastPathTest, FastPathSinglePhaseCommit) {
  const BlockPtr b1 = Block::Create(1, Block::Genesis(), {}, 0);
  const QuorumCert committed = CommitSlowView1(b1);
  // Fast path at view 2: one phase only.
  const BlockPtr b2 = Block::Create(2, b1, {}, 0);
  auto prep = checkers_[LeaderOfView(2, kN)]->PrepareFromCommit(*b2, committed, /*aux=*/1);
  ASSERT_TRUE(prep.has_value());
  QuorumCert qc2;
  for (uint32_t i = 0; i < kN && qc2.sigs.size() < kF + 1; ++i) {
    if (auto vote = checkers_[i]->StoreFast(*prep)) {
      qc2.sigs.push_back(vote->sig);
    }
  }
  EXPECT_GE(qc2.sigs.size(), kF + 1);
  EXPECT_EQ(checkers_[2]->vi(), 2u);
}

TEST_F(OneShotFastPathTest, FastStoreRefusesSlowPathCertificates) {
  auto acc = checkers_[1]->Accum(NewViews(1));
  const BlockPtr b1 = Block::Create(1, Block::Genesis(), {}, 0);
  auto slow_prep = checkers_[1]->PrepareFromAcc(*b1, *acc);
  ASSERT_TRUE(slow_prep.has_value());
  EXPECT_EQ(slow_prep->aux, 0u);  // Slow-path marker.
  // Single-phase store on a slow-path certificate would skip the prepared-QC round.
  EXPECT_FALSE(checkers_[0]->StoreFast(*slow_prep).has_value());
  EXPECT_TRUE(checkers_[0]->VoteFirst(*slow_prep).has_value());
}

TEST_F(OneShotFastPathTest, FastStoreOncePerView) {
  const BlockPtr b1 = Block::Create(1, Block::Genesis(), {}, 0);
  const QuorumCert committed = CommitSlowView1(b1);
  const BlockPtr b2 = Block::Create(2, b1, {}, 0);
  auto prep2 = checkers_[2]->PrepareFromCommit(*b2, committed, /*aux=*/1);
  ASSERT_TRUE(prep2.has_value());
  EXPECT_TRUE(checkers_[0]->StoreFast(*prep2).has_value());
  EXPECT_FALSE(checkers_[0]->StoreFast(*prep2).has_value());  // voted2 set.
}

}  // namespace
}  // namespace achilles
