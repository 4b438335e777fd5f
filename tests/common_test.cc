#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/sim_time.h"

namespace achilles {
namespace {

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
  const std::string hex = ToHex(ByteView(data.data(), data.size()));
  EXPECT_EQ(hex, "0001abff10");
  EXPECT_EQ(FromHex(hex), data);
}

TEST(BytesTest, FromHexRejectsMalformed) {
  EXPECT_TRUE(FromHex("abc").empty());   // Odd length.
  EXPECT_TRUE(FromHex("zz").empty());    // Bad digit.
  EXPECT_TRUE(FromHex("").empty());      // Empty is empty.
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  EXPECT_TRUE(ConstantTimeEqual(ByteView(a.data(), a.size()), ByteView(b.data(), b.size())));
  EXPECT_FALSE(ConstantTimeEqual(ByteView(a.data(), a.size()), ByteView(c.data(), c.size())));
  EXPECT_FALSE(ConstantTimeEqual(ByteView(a.data(), 2), ByteView(b.data(), b.size())));
}

TEST(SerdeTest, RoundTripAllTypes) {
  ByteWriter w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.Blob(ByteView(AsBytes("hello")));
  w.Str("world");

  ByteReader r(ByteView(w.bytes().data(), w.bytes().size()));
  EXPECT_EQ(r.U8().value(), 0xab);
  EXPECT_EQ(r.U16().value(), 0x1234);
  EXPECT_EQ(r.U32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.U64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64().value(), -42);
  const Bytes blob = r.Blob().value();
  EXPECT_EQ(std::string(blob.begin(), blob.end()), "hello");
  EXPECT_EQ(r.Str().value(), "world");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerdeTest, UnderflowFailsAndStaysFailed) {
  ByteWriter w;
  w.U16(7);
  ByteReader r(ByteView(w.bytes().data(), w.bytes().size()));
  EXPECT_FALSE(r.U32().has_value());
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.U8().has_value());  // Still failed even though one byte would fit.
}

TEST(SerdeTest, BlobLengthBeyondBufferFails) {
  ByteWriter w;
  w.U32(1000);  // Claims 1000 bytes follow; none do.
  ByteReader r(ByteView(w.bytes().data(), w.bytes().size()));
  EXPECT_FALSE(r.Blob().has_value());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformBoundRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
  EXPECT_EQ(rng.UniformU64(1), 0u);
  EXPECT_EQ(rng.UniformU64(0), 0u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(99);
  double sum = 0.0;
  double sq = 0.0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.Gaussian(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(123);
  double sum = 0.0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.Exponential(3.0);
  }
  EXPECT_NEAR(sum / kSamples, 3.0, 0.15);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(RngTest, FillProducesRequestedLength) {
  Rng rng(11);
  Bytes out;
  rng.Fill(out, 37);
  EXPECT_EQ(out.size(), 37u);
}

TEST(SimTimeTest, UnitConversions) {
  EXPECT_EQ(Ms(1), 1000 * Us(1));
  EXPECT_EQ(Sec(1), 1000 * Ms(1));
  EXPECT_DOUBLE_EQ(ToMs(Ms(25)), 25.0);
  EXPECT_DOUBLE_EQ(ToUs(Us(13)), 13.0);
  EXPECT_EQ(FromMs(0.5), Us(500));
}

}  // namespace
}  // namespace achilles
