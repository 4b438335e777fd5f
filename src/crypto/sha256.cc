#include "src/crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ACHILLES_SHA_NI_POSSIBLE 1
#endif

namespace achilles {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t n) {
  for (size_t blk = 0; blk < n; ++blk, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[i * 4]) << 24) |
             (static_cast<uint32_t>(blocks[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(blocks[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef ACHILLES_SHA_NI_POSSIBLE

// SHA-NI compression (Intel's canonical register layout: ABEF/CDGH pairs). Produces the
// same digests as CompressPortable; correctness is cross-checked by ShaNiMatchesPortable
// in tests/crypto_test.cc.
__attribute__((target("sha,sse4.1,ssse3")))
void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t n) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Load state as the ABEF/CDGH pairs the sha256rnds2 instruction expects.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);  // CDAB
  st1 = _mm_shuffle_epi32(st1, 0x1B);  // EFGH
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);    // ABEF
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);         // CDGH

  for (size_t blk = 0; blk < n; ++blk, blocks += 64) {
    const __m128i save0 = st0;
    const __m128i save1 = st1;

    // Message schedule kept in four rotating W-groups of four words each.
    __m128i w[4];
    for (int g = 0; g < 4; ++g) {
      const __m128i raw =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + g * 16));
      w[g] = _mm_shuffle_epi8(raw, kByteSwap);
    }

    for (int g = 0; g < 16; ++g) {
      __m128i msg = _mm_add_epi32(
          w[g & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[g * 4])));
      st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
      if (g >= 3 && g < 15) {
        // Next W-group: W[i] = W[i-16] + s0(W[i-15]) + W[i-7] + s1(W[i-2]).
        const __m128i w7 = _mm_alignr_epi8(w[g & 3], w[(g + 3) & 3], 4);
        w[(g + 1) & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[(g + 1) & 3], w[(g + 2) & 3]), w7),
            w[g & 3]);
      }
    }

    st0 = _mm_add_epi32(st0, save0);
    st1 = _mm_add_epi32(st1, save1);
  }

  tmp = _mm_shuffle_epi32(st0, 0x1B);  // FEBA
  st1 = _mm_shuffle_epi32(st1, 0xB1);  // DCHG
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);  // DCBA
  st1 = _mm_alignr_epi8(st1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), st1);
}

#endif  // ACHILLES_SHA_NI_POSSIBLE

using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks, size_t n);

CompressFn PickCompress() {
#ifdef ACHILLES_SHA_NI_POSSIBLE
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return &CompressShaNi;
  }
#endif
  return &CompressPortable;
}

const CompressFn g_compress = PickCompress();

}  // namespace

bool Sha256UsesHardware() { return g_compress != &CompressPortable; }

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

Sha256::Midstate Sha256::SaveMidstate() const {
  Midstate ms;
  std::memcpy(ms.state, state_, sizeof(ms.state));
  return ms;
}

void Sha256::RestoreMidstate(const Midstate& ms, uint64_t bytes_processed) {
  std::memcpy(state_, ms.state, sizeof(state_));
  total_len_ = bytes_processed;
  buffer_len_ = 0;
}

void Sha256::ProcessBlocks(const uint8_t* blocks, size_t n) {
  (portable_ ? &CompressPortable : g_compress)(state_, blocks, n);
}

void Sha256::Update(ByteView data) {
  if (data.empty()) {
    return;  // An empty span may carry a null data(), which memcpy must never see.
  }
  total_len_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    const size_t need = 64 - buffer_len_;
    const size_t take = std::min(need, data.size());
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      ProcessBlocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (offset + 64 <= data.size()) {
    const size_t whole = (data.size() - offset) / 64;
    ProcessBlocks(data.data() + offset, whole);
    offset += whole * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Hash256 Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, then 64-bit big-endian length.
  uint8_t pad[72];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  const size_t rem = (buffer_len_ + 1) % 64;
  const size_t zeros = (rem <= 56) ? (56 - rem) : (120 - rem);
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  Update(ByteView(pad, pad_len));

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  Reset();
  return out;
}

Hash256 Sha256Digest(ByteView data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Hash256 Sha256DigestPortable(ByteView data) {
  Sha256 h;
  h.ForcePortable();
  h.Update(data);
  return h.Finish();
}

Hash256 HashPair(const Hash256& a, const Hash256& b) {
  Sha256 h;
  h.Update(ByteView(a.data(), a.size()));
  h.Update(ByteView(b.data(), b.size()));
  return h.Finish();
}

std::string HashToHex(const Hash256& h) { return ToHex(ByteView(h.data(), h.size())); }

std::string HashAbbrev(const Hash256& h) {
  return ToHex(ByteView(h.data(), 4));
}

}  // namespace achilles
