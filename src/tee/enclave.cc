#include "src/tee/enclave.h"

#include <cstring>

#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/crypto/hmac.h"
#include "src/tee/defense_backends.h"

namespace achilles {

namespace {
constexpr size_t kTagSize = 32;
}

EnclaveRuntime::EnclaveRuntime(NodePlatform* platform) : platform_(platform) {
  // Nonce stream seeded from the sealing key and the (untrusted but unique) boot time; the
  // adversary cannot predict it without the device key.
  const Hash256& sk = platform_->sealing_key();
  uint64_t seed = 0;
  std::memcpy(&seed, sk.data(), sizeof(seed));
  nonce_state_ = seed ^ static_cast<uint64_t>(platform_->host().sim().Now()) ^
                 (static_cast<uint64_t>(platform_->node_id()) << 48);
  defense_ = MakeDefenseBackend(this);
}

void EnclaveRuntime::ChargeEcall() {
  if (in_tee()) {
    platform_->host().ChargeCpuAs(obs::Component::kEcall, platform_->costs().ecall_round_trip);
    ++ecalls_;
    platform_->host().JournalEvent(obs::JournalKind::kEcall, ecalls_);
  }
}

void EnclaveRuntime::ChargeSign() {
  const CostModel& costs = platform_->costs();
  const double factor = in_tee() ? costs.enclave_crypto_factor : 1.0;
  platform_->host().ChargeCpuAs(
      obs::Component::kCrypto,
      static_cast<SimDuration>(static_cast<double>(costs.sign) * factor));
}

void EnclaveRuntime::ChargeVerify(size_t count) {
  const CostModel& costs = platform_->costs();
  const double factor = in_tee() ? costs.enclave_crypto_factor : 1.0;
  platform_->host().ChargeCpuAs(
      obs::Component::kCrypto,
      static_cast<SimDuration>(static_cast<double>(costs.verify) * factor *
                               static_cast<double>(count)));
}

void EnclaveRuntime::ChargeVerifyBatch(size_t count) {
  const CostModel& costs = platform_->costs();
  const double factor = in_tee() ? costs.enclave_crypto_factor : 1.0;
  platform_->host().ChargeCpuAs(
      obs::Component::kCrypto,
      static_cast<SimDuration>(static_cast<double>(costs.BatchVerifyCost(count)) * factor));
}

void EnclaveRuntime::ChargeHash(size_t bytes) {
  platform_->host().ChargeCpuAs(obs::Component::kCrypto, platform_->costs().HashCost(bytes));
}

Signature EnclaveRuntime::Sign(ByteView digest) {
  return platform_->suite().Sign(platform_->node_id(), digest);
}

bool EnclaveRuntime::Verify(const Signature& sig, ByteView digest) const {
  return platform_->suite().Verify(sig, digest);
}

Bytes EnclaveRuntime::Keystream(uint64_t iv, size_t len) const {
  Bytes stream;
  stream.reserve(len + 32);
  uint64_t block = 0;
  while (stream.size() < len) {
    ByteWriter w;
    w.U64(iv);
    w.U64(block++);
    const Hash256 chunk =
        DeriveKey(ByteView(platform_->sealing_key().data(), 32), "seal-stream",
                  ByteView(w.bytes().data(), w.bytes().size()));
    stream.insert(stream.end(), chunk.begin(), chunk.end());
  }
  stream.resize(len);
  return stream;
}

void SealedStore::Put(const std::string& key, ByteView record) {
  enclave_->DoSeal(key, record);
}

std::optional<Bytes> SealedStore::Get(const std::string& key) {
  return enclave_->DoUnseal(key);
}

void EnclaveRuntime::DoSeal(const std::string& slot, ByteView plaintext) {
  platform_->host().ChargeCpuAs(obs::Component::kCrypto, platform_->costs().seal_op);
  ChargeHash(plaintext.size());
  const uint64_t iv = ++seal_iv_ ^ (nonce_state_ << 16);
  const Bytes stream = Keystream(iv, plaintext.size());
  Bytes cipher(plaintext.size());
  for (size_t i = 0; i < plaintext.size(); ++i) {
    cipher[i] = plaintext[i] ^ stream[i];
  }
  ByteWriter mac_input;
  mac_input.Str(slot);
  mac_input.U64(iv);
  mac_input.Blob(ByteView(cipher.data(), cipher.size()));
  const Hash256 tag = HmacSha256(ByteView(platform_->sealing_key().data(), 32),
                                 ByteView(mac_input.bytes().data(), mac_input.bytes().size()));

  ByteWriter blob;
  blob.U64(iv);
  blob.Blob(ByteView(cipher.data(), cipher.size()));
  blob.Raw(ByteView(tag.data(), tag.size()));
  platform_->storage().Put(slot, blob.Take());
  platform_->host().JournalEvent(obs::JournalKind::kSeal,
                                 platform_->storage().NumVersions(slot), plaintext.size(),
                                 slot);
}

std::optional<Bytes> EnclaveRuntime::DoUnseal(const std::string& slot) {
  platform_->host().ChargeCpuAs(obs::Component::kCrypto, platform_->costs().seal_op);
  size_t served_version = 0;
  const std::optional<Bytes> blob = platform_->storage().Get(slot, &served_version);
  // Journal the served blob version against the newest one the OS holds: a served version
  // below the latest IS the rollback attack, visible here before any checker logic runs.
  platform_->host().JournalEvent(obs::JournalKind::kUnseal, served_version,
                                 platform_->storage().NumVersions(slot), slot);
  if (!blob) {
    return std::nullopt;
  }
  ByteReader r(ByteView(blob->data(), blob->size()));
  const auto iv = r.U64();
  const auto cipher = r.Blob();
  const auto tag = r.Raw(kTagSize);
  if (!iv || !cipher || !tag || r.remaining() != 0) {
    return std::nullopt;
  }
  ByteWriter mac_input;
  mac_input.Str(slot);
  mac_input.U64(*iv);
  mac_input.Blob(ByteView(cipher->data(), cipher->size()));
  const Hash256 expected =
      HmacSha256(ByteView(platform_->sealing_key().data(), 32),
                 ByteView(mac_input.bytes().data(), mac_input.bytes().size()));
  if (!ConstantTimeEqual(ByteView(tag->data(), tag->size()),
                         ByteView(expected.data(), expected.size()))) {
    return std::nullopt;
  }
  ChargeHash(cipher->size());
  const Bytes stream = Keystream(*iv, cipher->size());
  Bytes plain(cipher->size());
  for (size_t i = 0; i < cipher->size(); ++i) {
    plain[i] = (*cipher)[i] ^ stream[i];
  }
  return plain;
}

uint64_t EnclaveRuntime::FreshNonce() { return SplitMix64(nonce_state_); }

}  // namespace achilles
