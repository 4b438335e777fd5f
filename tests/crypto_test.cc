#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/hmac.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/secp256k1.h"
#include "src/crypto/sha256.h"
#include "src/crypto/signer.h"
#include "src/crypto/uint256.h"

namespace achilles {
namespace {

// --- SHA-256 known-answer tests (FIPS 180-4 / NIST vectors) ---

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashToHex(Sha256Digest(ByteView())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashToHex(Sha256Digest(AsBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HashToHex(Sha256Digest(
                AsBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(AsBytes(chunk));
  }
  EXPECT_EQ(HashToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(3);
  Bytes data;
  rng.Fill(data, 300);
  Sha256 h;
  h.Update(ByteView(data.data(), 100));
  h.Update(ByteView(data.data() + 100, 1));
  h.Update(ByteView(data.data() + 101, 199));
  EXPECT_EQ(h.Finish(), Sha256Digest(ByteView(data.data(), data.size())));
}

TEST(Sha256Test, ReusableAfterFinish) {
  Sha256 h;
  h.Update(AsBytes("abc"));
  const Hash256 first = h.Finish();
  h.Update(AsBytes("abc"));
  EXPECT_EQ(h.Finish(), first);
}

// --- HMAC-SHA-256 (RFC 4231) ---

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Hash256 tag = HmacSha256(ByteView(key.data(), key.size()), AsBytes("Hi There"));
  EXPECT_EQ(HashToHex(tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Hash256 tag =
      HmacSha256(AsBytes("Jefe"), AsBytes("what do ya want for nothing?"));
  EXPECT_EQ(HashToHex(tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3LongKeyHashing) {
  // Key longer than the block size must be hashed first (case 6 of RFC 4231).
  const Bytes key(131, 0xaa);
  const Hash256 tag = HmacSha256(ByteView(key.data(), key.size()),
                                 AsBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(HashToHex(tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DeriveKeyDomainSeparation) {
  const Hash256 a = DeriveKey(AsBytes("seed"), "label-a", ByteView());
  const Hash256 b = DeriveKey(AsBytes("seed"), "label-b", ByteView());
  EXPECT_NE(a, b);
}

// --- UInt256 ---

TEST(UInt256Test, BytesRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    UInt256 v;
    for (auto& limb : v.limbs) {
      limb = rng.NextU64();
    }
    const Bytes be = v.ToBytesBE();
    EXPECT_EQ(UInt256::FromBytesBE(ByteView(be.data(), be.size())), v);
  }
}

TEST(UInt256Test, HexRoundTrip) {
  const UInt256 v = UInt256::FromHexStr("00000000000000000000000000000000000000000000000000000000deadbeef");
  EXPECT_EQ(v.limbs[0], 0xdeadbeefULL);
  EXPECT_EQ(v.ToHexStr(),
            "00000000000000000000000000000000000000000000000000000000deadbeef");
}

TEST(UInt256Test, AddSubInverse) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    UInt256 a, b;
    for (auto& limb : a.limbs) {
      limb = rng.NextU64();
    }
    for (auto& limb : b.limbs) {
      limb = rng.NextU64();
    }
    UInt256 sum, back;
    const uint64_t carry = AddWithCarry(a, b, sum);
    const uint64_t borrow = SubWithBorrow(sum, b, back);
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);  // Wrap on add implies wrap on sub.
  }
}

TEST(UInt256Test, CmpOrdering) {
  const UInt256 one = UInt256::FromU64(1);
  const UInt256 two = UInt256::FromU64(2);
  UInt256 big;
  big.limbs[3] = 1;
  EXPECT_EQ(Cmp(one, two), -1);
  EXPECT_EQ(Cmp(two, one), 1);
  EXPECT_EQ(Cmp(one, one), 0);
  EXPECT_EQ(Cmp(big, two), 1);
}

TEST(UInt256Test, MulModSmallValues) {
  const UInt256 m = UInt256::FromU64(1000000007ULL);
  const UInt256 a = UInt256::FromU64(123456789ULL);
  const UInt256 b = UInt256::FromU64(987654321ULL);
  // 123456789 * 987654321 mod 1000000007 = 259106859963578712 mod 1e9+7.
  const uint64_t expected =
      static_cast<uint64_t>((static_cast<unsigned __int128>(123456789ULL) * 987654321ULL) %
                            1000000007ULL);
  EXPECT_EQ(MulMod(a, b, m).limbs[0], expected);
}

TEST(UInt256Test, Mod512MatchesModularIdentity) {
  // (a * m + r) mod m == r for r < m.
  Rng rng(9);
  const UInt256 m = Secp256k1N();
  for (int i = 0; i < 20; ++i) {
    UInt256 r = UInt256::FromU64(rng.NextU64());
    const UInt256 a = UInt256::FromU64(rng.NextU64() % 1000);
    UInt512 prod = Mul256(a, m);
    // prod += r.
    unsigned __int128 carry = 0;
    for (int limb = 0; limb < 4; ++limb) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(prod[static_cast<size_t>(limb)]) + r.limbs[static_cast<size_t>(limb)] + carry;
      prod[static_cast<size_t>(limb)] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    for (int limb = 4; limb < 8 && carry; ++limb) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(prod[static_cast<size_t>(limb)]) + carry;
      prod[static_cast<size_t>(limb)] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    EXPECT_EQ(Mod512(prod, m), r);
  }
}

TEST(UInt256Test, BitLength) {
  EXPECT_EQ(UInt256{}.BitLength(), 0);
  EXPECT_EQ(UInt256::FromU64(1).BitLength(), 1);
  EXPECT_EQ(UInt256::FromU64(0x80).BitLength(), 8);
  UInt256 top;
  top.limbs[3] = 0x8000000000000000ULL;
  EXPECT_EQ(top.BitLength(), 256);
}

// --- secp256k1 ---

TEST(Secp256k1Test, GeneratorOnCurve) { EXPECT_TRUE(IsOnCurve(Secp256k1G())); }

TEST(Secp256k1Test, KnownDoubleG) {
  const AffinePoint two_g = ScalarMul(UInt256::FromU64(2), Secp256k1G());
  EXPECT_EQ(two_g.x.ToHexStr(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_TRUE(IsOnCurve(two_g));
}

TEST(Secp256k1Test, DoubleMatchesAdd) {
  const JacobianPoint g = JacobianPoint::FromAffine(Secp256k1G());
  const AffinePoint doubled = ToAffine(PointDouble(g));
  const AffinePoint added = ToAffine(PointAdd(g, g));
  EXPECT_EQ(doubled, added);
}

TEST(Secp256k1Test, OrderTimesGIsInfinity) {
  EXPECT_TRUE(ScalarMul(Secp256k1N(), Secp256k1G()).infinity);
}

TEST(Secp256k1Test, OrderMinusOneIsNegation) {
  UInt256 n_minus_1;
  SubWithBorrow(Secp256k1N(), UInt256::FromU64(1), n_minus_1);
  const AffinePoint p = ScalarMul(n_minus_1, Secp256k1G());
  EXPECT_EQ(p.x, Secp256k1G().x);
  EXPECT_EQ(p.y, FieldNeg(Secp256k1G().y));
}

TEST(Secp256k1Test, ScalarMulDistributive) {
  Rng rng(21);
  for (int i = 0; i < 4; ++i) {
    const UInt256 a = UInt256::FromU64(rng.NextU64());
    const UInt256 b = UInt256::FromU64(rng.NextU64());
    const UInt256 sum = AddMod(a, b, Secp256k1N());
    const AffinePoint lhs = ScalarMulBase(sum);
    const JacobianPoint rhs_j =
        PointAddMixed(JacobianPoint::FromAffine(ScalarMulBase(a)), ScalarMulBase(b));
    EXPECT_EQ(lhs, ToAffine(rhs_j));
  }
}

TEST(Secp256k1Test, FieldInverse) {
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    UInt256 a = UInt256::FromU64(rng.NextU64() | 1);
    a.limbs[2] = rng.NextU64();
    const UInt256 inv = FieldInv(a);
    EXPECT_EQ(FieldMul(a, inv), UInt256::FromU64(1));
  }
}

TEST(Secp256k1Test, PointEncodeDecodeRoundTrip) {
  const AffinePoint p = ScalarMulBase(UInt256::FromU64(777));
  const Bytes enc = EncodePoint(p);
  AffinePoint out;
  ASSERT_TRUE(DecodePoint(ByteView(enc.data(), enc.size()), out));
  EXPECT_EQ(out, p);
}

TEST(Secp256k1Test, DecodeRejectsOffCurve) {
  Bytes enc(64, 0);
  enc[0] = 1;  // x=2^248-ish, y=0: not on curve.
  AffinePoint out;
  EXPECT_FALSE(DecodePoint(ByteView(enc.data(), enc.size()), out));
}

TEST(Secp256k1Test, InfinityEncoding) {
  AffinePoint inf;
  const Bytes enc = EncodePoint(inf);
  AffinePoint out;
  ASSERT_TRUE(DecodePoint(ByteView(enc.data(), enc.size()), out));
  EXPECT_TRUE(out.infinity);
}

// --- Schnorr ---

TEST(SchnorrTest, SignVerifyRoundTrip) {
  const SchnorrKeyPair key = SchnorrKeyFromSeed(AsBytes("seed-material-0001"));
  const Bytes sig = SchnorrSign(key, AsBytes("the quick brown fox"));
  EXPECT_TRUE(SchnorrVerify(key.pub, AsBytes("the quick brown fox"),
                            ByteView(sig.data(), sig.size())));
}

TEST(SchnorrTest, RejectsWrongMessage) {
  const SchnorrKeyPair key = SchnorrKeyFromSeed(AsBytes("seed-material-0002"));
  const Bytes sig = SchnorrSign(key, AsBytes("message A"));
  EXPECT_FALSE(SchnorrVerify(key.pub, AsBytes("message B"), ByteView(sig.data(), sig.size())));
}

TEST(SchnorrTest, RejectsWrongKey) {
  const SchnorrKeyPair key1 = SchnorrKeyFromSeed(AsBytes("seed-material-0003"));
  const SchnorrKeyPair key2 = SchnorrKeyFromSeed(AsBytes("seed-material-0004"));
  const Bytes sig = SchnorrSign(key1, AsBytes("msg"));
  EXPECT_FALSE(SchnorrVerify(key2.pub, AsBytes("msg"), ByteView(sig.data(), sig.size())));
}

TEST(SchnorrTest, RejectsTamperedSignature) {
  const SchnorrKeyPair key = SchnorrKeyFromSeed(AsBytes("seed-material-0005"));
  Bytes sig = SchnorrSign(key, AsBytes("msg"));
  for (size_t pos : {0u, 63u, 64u, 95u}) {
    Bytes bad = sig;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(SchnorrVerify(key.pub, AsBytes("msg"), ByteView(bad.data(), bad.size())))
        << "tampered byte " << pos;
  }
}

TEST(SchnorrTest, RejectsTruncatedSignature) {
  const SchnorrKeyPair key = SchnorrKeyFromSeed(AsBytes("seed-material-0006"));
  const Bytes sig = SchnorrSign(key, AsBytes("msg"));
  EXPECT_FALSE(SchnorrVerify(key.pub, AsBytes("msg"), ByteView(sig.data(), sig.size() - 1)));
}

TEST(SchnorrTest, DeterministicSignature) {
  const SchnorrKeyPair key = SchnorrKeyFromSeed(AsBytes("seed-material-0007"));
  EXPECT_EQ(SchnorrSign(key, AsBytes("m")), SchnorrSign(key, AsBytes("m")));
}

// --- CryptoSuite ---

class CryptoSuiteTest : public ::testing::TestWithParam<SignatureScheme> {};

TEST_P(CryptoSuiteTest, SignVerify) {
  CryptoSuite suite(GetParam(), 5, 1234);
  for (uint32_t i = 0; i < 5; ++i) {
    const Signature sig = suite.Sign(i, AsBytes("payload"));
    EXPECT_EQ(sig.signer, i);
    EXPECT_TRUE(suite.Verify(sig, AsBytes("payload")));
    EXPECT_FALSE(suite.Verify(sig, AsBytes("other")));
  }
}

TEST_P(CryptoSuiteTest, RejectsForgedSignerId) {
  CryptoSuite suite(GetParam(), 5, 1234);
  Signature sig = suite.Sign(0, AsBytes("payload"));
  sig.signer = 1;  // Claim a different identity with node 0's blob.
  EXPECT_FALSE(suite.Verify(sig, AsBytes("payload")));
}

TEST_P(CryptoSuiteTest, RejectsOutOfRangeSigner) {
  CryptoSuite suite(GetParam(), 3, 1);
  Signature sig = suite.Sign(0, AsBytes("x"));
  sig.signer = 99;
  EXPECT_FALSE(suite.Verify(sig, AsBytes("x")));
}

TEST_P(CryptoSuiteTest, QuorumVerification) {
  CryptoSuite suite(GetParam(), 5, 77);
  std::vector<Signature> sigs;
  for (uint32_t i = 0; i < 3; ++i) {
    sigs.push_back(suite.Sign(i, AsBytes("q")));
  }
  EXPECT_TRUE(suite.VerifyQuorum(sigs, AsBytes("q"), 3));
  EXPECT_FALSE(suite.VerifyQuorum(sigs, AsBytes("q"), 4));  // Too few.

  std::vector<Signature> dup = sigs;
  dup[2] = dup[0];  // Duplicate signer must not count twice.
  EXPECT_FALSE(suite.VerifyQuorum(dup, AsBytes("q"), 3));
}

TEST_P(CryptoSuiteTest, SignatureWireSizeIsStable) {
  CryptoSuite suite(GetParam(), 2, 5);
  const Signature a = suite.Sign(0, AsBytes("a"));
  const Signature b = suite.Sign(1, AsBytes("some longer message body"));
  EXPECT_EQ(a.WireSize(), b.WireSize());
}

TEST_P(CryptoSuiteTest, RejectsNonCanonicalPadding) {
  // Byte 40 is modelled-ECDSA padding under kFastHmac and part of s under kSchnorr; either
  // way a flipped byte is a different signature and must fail, cold and with the original
  // memoized.
  CryptoSuite suite(GetParam(), 3, 9);
  const Signature sig = suite.Sign(1, AsBytes("m"));
  Signature padded = sig;
  padded.blob[40] ^= 0x01;
  EXPECT_FALSE(suite.Verify(padded, AsBytes("m")));
  EXPECT_TRUE(suite.Verify(sig, AsBytes("m")));
  EXPECT_FALSE(suite.Verify(padded, AsBytes("m")));
  EXPECT_TRUE(suite.Verify(sig, AsBytes("m")));
}

// A valid quorum is verified first so every tuple in it is memoized; each tampered variant
// must then still fail, and the original must still pass afterwards.
TEST_P(CryptoSuiteTest, TamperedQuorumFailsAgainstWarmMemo) {
  CryptoSuite suite(GetParam(), 5, 77);
  const std::string msg_str = "achilles/COMMIT|h|v=3";
  const std::string other_str = "achilles/COMMIT|h|v=4";
  const ByteView msg = AsBytes(msg_str);
  const ByteView other = AsBytes(other_str);
  std::vector<Signature> sigs;
  for (uint32_t i = 0; i < 3; ++i) {
    sigs.push_back(suite.Sign(i, msg));
  }
  // Warm the memo. The Schnorr quorum path batch-verifies without it, so also verify each
  // signature on its own.
  ASSERT_TRUE(suite.VerifyQuorum(sigs, msg, 3));
  for (const Signature& sig : sigs) {
    ASSERT_TRUE(suite.Verify(sig, msg));
  }
  const uint64_t warm = suite.memo_hits();
  ASSERT_TRUE(suite.Verify(sigs[0], msg));
  ASSERT_EQ(suite.memo_hits(), warm + 1);  // The memo really holds the originals.

  std::vector<Signature> flipped = sigs;
  flipped[1].blob[0] ^= 0x80;  // One tag byte.
  EXPECT_FALSE(suite.Verify(flipped[1], msg));
  EXPECT_FALSE(suite.VerifyQuorum(flipped, msg, 3));

  Signature truncated = sigs[0];
  truncated.blob.resize(truncated.blob.size() / 2);
  EXPECT_FALSE(suite.Verify(truncated, msg));
  Signature extended = sigs[0];
  extended.blob.push_back(0);  // Matches the slot's zero fill past the stored blob.
  EXPECT_FALSE(suite.Verify(extended, msg));

  std::vector<Signature> reattributed = sigs;
  reattributed[0].signer = 3;  // A party that signed nothing.
  EXPECT_FALSE(suite.Verify(reattributed[0], msg));
  EXPECT_FALSE(suite.VerifyQuorum(reattributed, msg, 3));
  std::vector<Signature> swapped = sigs;
  std::swap(swapped[0].signer, swapped[1].signer);  // Two real signers, blobs exchanged.
  EXPECT_FALSE(suite.Verify(swapped[0], msg));
  EXPECT_FALSE(suite.VerifyQuorum(swapped, msg, 3));

  EXPECT_FALSE(suite.Verify(sigs[0], other));  // Same signatures, other view.
  EXPECT_FALSE(suite.VerifyQuorum(sigs, other, 3));

  std::vector<Signature> dup = sigs;
  dup[2] = dup[0];  // Every tuple is memoized, but a signer may count once.
  EXPECT_FALSE(suite.VerifyQuorum(dup, msg, 3));

  const uint64_t before = suite.memo_hits();
  EXPECT_TRUE(suite.VerifyQuorum(sigs, msg, 3));
  for (const Signature& sig : sigs) {
    EXPECT_TRUE(suite.Verify(sig, msg));
  }
  EXPECT_GE(suite.memo_hits(), before + sigs.size());  // Failures evicted nothing.
}

TEST_P(CryptoSuiteTest, MessagesLongerThanASlotTakeTheFullCheck) {
  CryptoSuite suite(GetParam(), 2, 3);
  const Bytes msg(CryptoSuite::kMemoMaxMsg + 1, 0x5a);
  const ByteView view(msg.data(), msg.size());
  const Signature sig = suite.Sign(0, view);
  EXPECT_TRUE(suite.Verify(sig, view));
  EXPECT_TRUE(suite.Verify(sig, view));
  EXPECT_EQ(suite.memo_hits(), 0u);
  Signature bad = sig;
  bad.blob[3] ^= 0x01;
  EXPECT_FALSE(suite.Verify(bad, view));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CryptoSuiteTest,
                         ::testing::Values(SignatureScheme::kSchnorr,
                                           SignatureScheme::kFastHmac));

// The memo tests below are kFastHmac only: the memo is scheme-agnostic, and the thousands
// of signatures they need would dominate the suite's runtime under Schnorr.

// A distinct 12-byte message per index.
Bytes IndexedMessage(uint32_t i) {
  Bytes m(12, 0);
  for (int b = 0; b < 4; ++b) {
    m[static_cast<size_t>(b)] = static_cast<uint8_t>(i >> (8 * b));
  }
  return m;
}

// The memo holds kMemoSlots tuples. After several times that many distinct valid tuples
// the first one has been evicted: it must still pass (via the full check), and a tampered
// copy must still fail. The bound never changes a decision.
TEST(CryptoSuiteMemoTest, EvictedTupleStillVerifiesAndTamperStillFails) {
  CryptoSuite suite(SignatureScheme::kFastHmac, 4, 21);
  const Bytes first_msg = IndexedMessage(0);
  const ByteView first_view(first_msg.data(), first_msg.size());
  const Signature first = suite.Sign(2, first_view);
  ASSERT_TRUE(suite.Verify(first, first_view));
  for (uint32_t i = 1; i < 4 * CryptoSuite::kMemoSlots; ++i) {
    const Bytes m = IndexedMessage(i);
    const ByteView v(m.data(), m.size());
    ASSERT_TRUE(suite.Verify(suite.Sign(i % 4, v), v));
  }
  const uint64_t hits = suite.memo_hits();
  EXPECT_TRUE(suite.Verify(first, first_view));
  EXPECT_EQ(suite.memo_hits(), hits);  // Evicted: answered by the full check.
  Signature tampered = first;
  tampered.blob[7] ^= 0x10;
  EXPECT_FALSE(suite.Verify(tampered, first_view));
  EXPECT_TRUE(suite.Verify(first, first_view));
  EXPECT_EQ(suite.memo_hits(), hits + 1);  // Re-memoized by the full check above.
}

// The slot hash covers the signer and the message length, so a re-attributed blob or a
// truncated message usually lands in another slot. Over thousands of messages some land
// in the memoized original's slot, where only the full comparison refuses them.
TEST(CryptoSuiteMemoTest, ReattributedOrTruncatedTupleFailsEvenInTheOriginalsSlot) {
  constexpr uint32_t kParties = 8;
  CryptoSuite suite(SignatureScheme::kFastHmac, kParties, 5);
  for (uint32_t i = 0; i < CryptoSuite::kMemoSlots; ++i) {
    const Bytes m = IndexedMessage(i);
    const ByteView v(m.data(), m.size());
    Signature sig = suite.Sign(0, v);
    ASSERT_TRUE(suite.Verify(sig, v));
    for (size_t len = 0; len < m.size(); ++len) {
      ASSERT_FALSE(suite.Verify(sig, v.first(len))) << "message " << i << ", length " << len;
    }
    for (uint32_t other = 1; other < kParties; ++other) {
      sig.signer = other;
      ASSERT_FALSE(suite.Verify(sig, v)) << "message " << i << ", signer " << other;
    }
  }
}

// --- Hardware SHA-256 vs portable differential ---

TEST(Sha256HardwareTest, HardwareMatchesPortableOnRandomInputs) {
  // When the CPU has SHA-NI the default path uses it; the portable compressor is always
  // available. Both must agree byte-for-byte on every length (empty, sub-block, block
  // boundary, multi-block, and ragged tails).
  Rng rng(0xd1f);
  for (size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 1000u, 4096u, 10000u}) {
    Bytes data(len);
    for (uint8_t& byte : data) {
      byte = static_cast<uint8_t>(rng.UniformU64(256));
    }
    const ByteView view(data.data(), data.size());
    EXPECT_EQ(HashToHex(Sha256Digest(view)), HashToHex(Sha256DigestPortable(view)))
        << "len " << len << " hw=" << Sha256UsesHardware();
  }
}

TEST(Sha256HardwareTest, IncrementalChunkingAgreesAcrossImplementations) {
  Rng rng(0xfeed);
  Bytes data(3000);
  for (uint8_t& byte : data) {
    byte = static_cast<uint8_t>(rng.UniformU64(256));
  }
  Sha256 fast;
  Sha256 slow;
  slow.ForcePortable();
  size_t off = 0;
  while (off < data.size()) {  // Ragged chunk sizes stress the buffered-tail logic.
    const size_t chunk = std::min<size_t>(1 + rng.UniformU64(200), data.size() - off);
    fast.Update(ByteView(data.data() + off, chunk));
    slow.Update(ByteView(data.data() + off, chunk));
    off += chunk;
  }
  EXPECT_EQ(HashToHex(fast.Finish()), HashToHex(slow.Finish()));
}

// --- HMAC key-schedule caching ---

TEST(HmacTest, HmacKeyMatchesOneShotHmac) {
  const Bytes key = {0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b};
  const HmacKey sched(ByteView(key.data(), key.size()));
  for (const char* msg : {"", "Hi There", "a longer message spanning more than one block "
                              "of the underlying compression function, padded out"}) {
    EXPECT_EQ(HashToHex(sched.Mac(AsBytes(msg))),
              HashToHex(HmacSha256(ByteView(key.data(), key.size()), AsBytes(msg))));
  }
}

TEST(HmacTest, HmacKeyReusableAcrossMessages) {
  const HmacKey sched(AsBytes("shared-session-key"));
  const Hash256 first = sched.Mac(AsBytes("message 1"));
  (void)sched.Mac(AsBytes("message 2"));  // Interleaved use must not corrupt the schedule.
  EXPECT_EQ(HashToHex(first), HashToHex(sched.Mac(AsBytes("message 1"))));
}

// --- Multi-scalar multiplication (Pippenger) ---

TEST(Secp256k1Test, MultiScalarMulMatchesNaiveSum) {
  Rng rng(99);
  std::vector<UInt256> scalars;
  std::vector<AffinePoint> points;
  JacobianPoint naive = JacobianPoint::Infinity();
  for (int i = 0; i < 8; ++i) {
    uint8_t seed[32] = {};
    for (auto& byte : seed) {
      byte = static_cast<uint8_t>(rng.UniformU64(256));
    }
    const SchnorrKeyPair key = SchnorrKeyFromSeed(ByteView(seed, sizeof(seed)));
    UInt256 k = UInt256::FromU64(rng.UniformU64(UINT64_MAX));
    scalars.push_back(k);
    points.push_back(key.pub);
    naive = PointAddMixed(naive, ScalarMul(k, key.pub));
  }
  const AffinePoint expect = ToAffine(naive);
  const AffinePoint got = ToAffine(MultiScalarMul(scalars, points));
  EXPECT_TRUE(expect == got);
}

TEST(Secp256k1Test, MultiScalarMulHandlesZeroScalarsAndInfinity) {
  std::vector<UInt256> scalars = {UInt256::FromU64(0), UInt256::FromU64(5)};
  std::vector<AffinePoint> points = {Secp256k1G(), AffinePoint{}};
  const AffinePoint got = ToAffine(MultiScalarMul(scalars, points));
  EXPECT_TRUE(got.infinity);  // 0*G + 5*infinity = infinity.
}

// --- Schnorr batch verification ---

std::vector<SchnorrKeyPair> BatchKeys(size_t count) {
  std::vector<SchnorrKeyPair> keys;
  for (size_t i = 0; i < count; ++i) {
    const std::string seed = "batch-seed-" + std::to_string(i);
    keys.push_back(SchnorrKeyFromSeed(AsBytes(seed)));
  }
  return keys;
}

TEST(SchnorrBatchTest, AllValidBatchAccepts) {
  const auto keys = BatchKeys(7);
  std::vector<Bytes> sigs;
  std::vector<std::string> msgs;
  std::vector<SchnorrBatchInput> batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    msgs.push_back("batch message " + std::to_string(i));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    sigs.push_back(SchnorrSign(keys[i], AsBytes(msgs[i])));
    batch.push_back({&keys[i].pub, AsBytes(msgs[i]), ByteView(sigs[i].data(), sigs[i].size())});
  }
  const SchnorrBatchResult result = SchnorrBatchVerify(batch);
  EXPECT_TRUE(result.all_valid);
  EXPECT_EQ(result.first_bad, -1);
}

TEST(SchnorrBatchTest, EmptyAndSingletonBatches) {
  EXPECT_TRUE(SchnorrBatchVerify({}).all_valid);

  const auto keys = BatchKeys(1);
  const std::string msg = "solo";  // The batch holds a view, so the bytes must outlive it.
  const Bytes sig = SchnorrSign(keys[0], AsBytes(msg));
  std::vector<SchnorrBatchInput> batch = {
      {&keys[0].pub, AsBytes(msg), ByteView(sig.data(), sig.size())}};
  EXPECT_TRUE(SchnorrBatchVerify(batch).all_valid);
}

TEST(SchnorrBatchTest, OneBadSignatureIsRejectedAndIdentified) {
  const auto keys = BatchKeys(6);
  std::vector<Bytes> sigs;
  std::vector<std::string> msgs;
  for (size_t i = 0; i < keys.size(); ++i) {
    msgs.push_back("victim message " + std::to_string(i));
    sigs.push_back(SchnorrSign(keys[i], AsBytes(msgs[i])));
  }
  sigs[3][95] ^= 0x01;  // Corrupt one byte of s in the fourth signature.
  std::vector<SchnorrBatchInput> batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    batch.push_back({&keys[i].pub, AsBytes(msgs[i]), ByteView(sigs[i].data(), sigs[i].size())});
  }
  const SchnorrBatchResult result = SchnorrBatchVerify(batch);
  EXPECT_FALSE(result.all_valid);
  EXPECT_EQ(result.first_bad, 3);  // The scalar fallback pinpoints the culprit.
}

TEST(SchnorrBatchTest, WrongMessageInBatchRejects) {
  const auto keys = BatchKeys(4);
  const std::string honest = "honest message";
  std::vector<Bytes> sigs;
  for (size_t i = 0; i < keys.size(); ++i) {
    sigs.push_back(SchnorrSign(keys[i], AsBytes(honest)));
  }
  std::vector<SchnorrBatchInput> batch;
  const std::string forged = "forged message";
  for (size_t i = 0; i < keys.size(); ++i) {
    batch.push_back({&keys[i].pub, i == 1 ? AsBytes(forged) : AsBytes(honest),
                     ByteView(sigs[i].data(), sigs[i].size())});
  }
  const SchnorrBatchResult result = SchnorrBatchVerify(batch);
  EXPECT_FALSE(result.all_valid);
  EXPECT_EQ(result.first_bad, 1);
}

TEST(SchnorrBatchTest, SwappedSignaturesDoNotCancel) {
  // Two individually valid signatures attached to each other's slots: the deterministic
  // per-item weights make the linear combination reject the swap.
  const auto keys = BatchKeys(2);
  const std::string msg_a = "message A";
  const std::string msg_b = "message B";
  const Bytes sig_a = SchnorrSign(keys[0], AsBytes(msg_a));
  const Bytes sig_b = SchnorrSign(keys[1], AsBytes(msg_b));
  std::vector<SchnorrBatchInput> batch = {
      {&keys[0].pub, AsBytes(msg_a), ByteView(sig_b.data(), sig_b.size())},
      {&keys[1].pub, AsBytes(msg_b), ByteView(sig_a.data(), sig_a.size())},
  };
  const SchnorrBatchResult result = SchnorrBatchVerify(batch);
  EXPECT_FALSE(result.all_valid);
  EXPECT_EQ(result.first_bad, 0);
}

TEST(SchnorrBatchTest, StructurallyInvalidSignatureFallsBack) {
  const auto keys = BatchKeys(3);
  const std::string msg = "m";
  std::vector<Bytes> sigs;
  for (size_t i = 0; i < keys.size(); ++i) {
    sigs.push_back(SchnorrSign(keys[i], AsBytes(msg)));
  }
  sigs[2].resize(10);  // Truncated blob cannot even parse.
  std::vector<SchnorrBatchInput> batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    batch.push_back({&keys[i].pub, AsBytes(msg), ByteView(sigs[i].data(), sigs[i].size())});
  }
  const SchnorrBatchResult result = SchnorrBatchVerify(batch);
  EXPECT_FALSE(result.all_valid);
  EXPECT_EQ(result.first_bad, 2);
}

TEST(SchnorrBatchTest, BatchAgreesWithScalarVerifyOnRandomBatches) {
  Rng rng(0xbadc0de);
  for (int round = 0; round < 10; ++round) {
    const size_t m = 2 + rng.UniformU64(6);
    const auto keys = BatchKeys(m);
    std::vector<Bytes> sigs;
    std::vector<std::string> msgs;
    bool expect_valid = true;
    for (size_t i = 0; i < m; ++i) {
      msgs.push_back("round " + std::to_string(round) + " msg " + std::to_string(i));
      sigs.push_back(SchnorrSign(keys[i], AsBytes(msgs[i])));
    }
    if (rng.UniformU64(2) == 0) {  // Half the rounds corrupt one random signature.
      sigs[rng.UniformU64(m)][32 + rng.UniformU64(64)] ^= 0x80;
      expect_valid = false;
    }
    std::vector<SchnorrBatchInput> batch;
    for (size_t i = 0; i < m; ++i) {
      batch.push_back({&keys[i].pub, AsBytes(msgs[i]), ByteView(sigs[i].data(), sigs[i].size())});
    }
    bool scalar_valid = true;
    for (size_t i = 0; i < m; ++i) {
      scalar_valid = scalar_valid &&
                     SchnorrVerify(keys[i].pub, AsBytes(msgs[i]),
                                   ByteView(sigs[i].data(), sigs[i].size()));
    }
    EXPECT_EQ(scalar_valid, expect_valid) << "round " << round;
    EXPECT_EQ(SchnorrBatchVerify(batch).all_valid, scalar_valid) << "round " << round;
  }
}

}  // namespace
}  // namespace achilles
