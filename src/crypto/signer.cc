#include "src/crypto/signer.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/crypto/hmac.h"

namespace achilles {

namespace {
constexpr size_t kHmacTagSize = 32;
// The fast mode models a 64-byte ECDSA signature on the wire; the tag itself is 32 bytes, so
// we pad with zeros to keep encoded size honest.
constexpr size_t kModeledSigSize = 64;

// The memo hashes this many leading blob bytes; every valid blob is longer.
constexpr size_t kMemoHashedBlob = 16;

// Picks a memo slot: FNV-1a over the signer, the message length and the blob's first two
// words. A valid blob starts with a MAC tag or a Schnorr nonce point, so those bytes are
// already uniform. Not a security boundary: a hit still compares every byte, so any
// collision only costs a full check.
uint64_t MemoHash(uint32_t signer, size_t msg_len, const uint8_t* blob) {
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t head[kMemoHashedBlob / 8];
  std::memcpy(head, blob, kMemoHashedBlob);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t word : {uint64_t{signer}, uint64_t{msg_len}, head[0], head[1]}) {
    h = (h ^ word) * kPrime;
  }
  return h ^ (h >> 32);
}
}  // namespace

CryptoSuite::CryptoSuite(SignatureScheme scheme, uint32_t num_parties, uint64_t seed)
    : scheme_(scheme), num_parties_(num_parties) {
  Bytes seed_bytes(32, 0);
  for (int i = 0; i < 8; ++i) {
    seed_bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(seed >> (8 * i));
  }
  if (scheme_ == SignatureScheme::kSchnorr) {
    schnorr_keys_.reserve(num_parties_);
    for (uint32_t i = 0; i < num_parties_; ++i) {
      Bytes party_seed = seed_bytes;
      party_seed.push_back(static_cast<uint8_t>(i));
      party_seed.push_back(static_cast<uint8_t>(i >> 8));
      party_seed.push_back(static_cast<uint8_t>(i >> 16));
      party_seed.push_back(static_cast<uint8_t>(i >> 24));
      schnorr_keys_.push_back(
          SchnorrKeyFromSeed(ByteView(party_seed.data(), party_seed.size())));
    }
  } else {
    hmac_keys_.reserve(num_parties_);
    const Hash256 master =
        DeriveKey(ByteView(seed_bytes.data(), seed_bytes.size()), "suite-master", ByteView());
    for (uint32_t i = 0; i < num_parties_; ++i) {
      Bytes ctx(4);
      for (int b = 0; b < 4; ++b) {
        ctx[static_cast<size_t>(b)] = static_cast<uint8_t>(i >> (8 * b));
      }
      hmac_keys_.push_back(DeriveKey(ByteView(master.data(), master.size()), "party-key",
                                     ByteView(ctx.data(), ctx.size())));
      hmac_scheds_.emplace_back(ByteView(hmac_keys_.back().data(), kHmacTagSize));
    }
  }
}

Signature CryptoSuite::Sign(uint32_t signer, ByteView msg) const {
  ACHILLES_CHECK(signer < num_parties_);
  Signature sig;
  sig.signer = signer;
  if (scheme_ == SignatureScheme::kSchnorr) {
    sig.blob = SchnorrSign(schnorr_keys_[signer], msg);
  } else {
    const Hash256 tag = hmac_scheds_[signer].Mac(msg);
    sig.blob.assign(tag.begin(), tag.end());
    sig.blob.resize(kModeledSigSize, 0);  // Pad to the modeled ECDSA wire size.
  }
  return sig;
}

bool CryptoSuite::Verify(const Signature& sig, ByteView msg) const {
  const ByteView blob(sig.blob.data(), sig.blob.size());
  if (msg.size() > kMemoMaxMsg || blob.size() < kMemoHashedBlob || blob.size() > kMemoMaxBlob) {
    return VerifyFull(sig, msg);
  }
  if (memo_.empty()) {
    memo_.resize(kMemoSlots);
  }
  MemoEntry& slot = memo_[MemoHash(sig.signer, msg.size(), blob.data()) % kMemoSlots];
  if (slot.signer == sig.signer && slot.msg_len == msg.size() &&
      slot.blob_len == blob.size() && std::equal(msg.begin(), msg.end(), slot.msg.begin()) &&
      std::equal(blob.begin(), blob.end(), slot.blob.begin())) {
    ++memo_hits_;
    return true;
  }
  if (!VerifyFull(sig, msg)) {
    return false;
  }
  slot.signer = sig.signer;
  slot.msg_len = static_cast<uint16_t>(msg.size());
  slot.blob_len = static_cast<uint16_t>(blob.size());
  std::copy(msg.begin(), msg.end(), slot.msg.begin());
  std::copy(blob.begin(), blob.end(), slot.blob.begin());
  return true;
}

bool CryptoSuite::VerifyFull(const Signature& sig, ByteView msg) const {
  if (sig.signer >= num_parties_) {
    return false;
  }
  if (scheme_ == SignatureScheme::kSchnorr) {
    return SchnorrVerify(schnorr_keys_[sig.signer].pub, msg,
                         ByteView(sig.blob.data(), sig.blob.size()));
  }
  if (sig.blob.size() != kModeledSigSize ||
      std::any_of(sig.blob.begin() + kHmacTagSize, sig.blob.end(),
                  [](uint8_t b) { return b != 0; })) {
    return false;  // Only the zero-padded encoding Sign produces is canonical.
  }
  const Hash256 tag = hmac_scheds_[sig.signer].Mac(msg);
  return ConstantTimeEqual(ByteView(sig.blob.data(), kHmacTagSize),
                           ByteView(tag.data(), tag.size()));
}

bool CryptoSuite::VerifyQuorum(const std::vector<Signature>& sigs, ByteView msg,
                               size_t quorum) const {
  if (sigs.size() < quorum) {
    return false;
  }
  std::vector<bool> seen(num_parties_, false);
  for (const Signature& sig : sigs) {
    if (sig.signer >= num_parties_ || seen[sig.signer]) {
      return false;
    }
    seen[sig.signer] = true;
  }
  if (scheme_ == SignatureScheme::kSchnorr && sigs.size() > 1) {
    // Quorum certificates are all-or-nothing: one batched check over the whole set
    // replaces per-signature verification (same accept/reject decision).
    std::vector<SchnorrBatchInput> batch;
    batch.reserve(sigs.size());
    for (const Signature& sig : sigs) {
      batch.push_back(SchnorrBatchInput{&schnorr_keys_[sig.signer].pub, msg,
                                        ByteView(sig.blob.data(), sig.blob.size())});
    }
    return SchnorrBatchVerify(batch).all_valid;
  }
  for (const Signature& sig : sigs) {
    if (!Verify(sig, msg)) {
      return false;
    }
  }
  return sigs.size() >= quorum;
}

}  // namespace achilles
