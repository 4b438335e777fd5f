#include "src/tee/defense_backends.h"

#include <algorithm>
#include <map>

#include "src/common/check.h"
#include "src/common/serde.h"
#include "src/tee/enclave.h"

namespace achilles {
namespace {

using persist::Backend;
using persist::DefenseKind;
using persist::DefenseService;
using persist::OpenResult;
using persist::OpenStatus;

// Seals `record` with an 8-byte version trailer appended (the shape every backend shares;
// see the header comment) and returns the plaintext written.
void SealVersioned(EnclaveRuntime* enclave, const std::string& key, ByteView record,
                   uint64_t version) {
  ByteWriter w;
  w.Raw(record);
  w.U64(version);
  enclave->sealed_store().Put(key, ByteView(w.bytes().data(), w.bytes().size()));
}

// Splits an unsealed blob back into (record, version). False when the blob is too short
// to carry the trailer (forged or foreign).
bool SplitVersioned(const Bytes& blob, Bytes* record, uint64_t* version) {
  if (blob.size() < 8) {
    return false;
  }
  ByteReader r(ByteView(blob.data(), blob.size()));
  const auto rec = r.Raw(blob.size() - 8);
  const auto v = r.U64();
  if (!rec || !v || r.remaining() != 0) {
    return false;
  }
  record->assign(rec->begin(), rec->end());
  *version = *v;
  return true;
}

// persist::Store facet over a quorum backend: Put buys a defended Persist, Get refuses
// anything Open cannot certify fresh (a rolled-back checkpoint certificate reads as
// missing, which keeps the checkpoint floor conservative). Quorum backends replace the
// counter's anti-rollback role outright, so no counter is touched here.
class BackendStoreView final : public persist::Store {
 public:
  explicit BackendStoreView(Backend* backend) : backend_(backend) {}

  void Put(const std::string& key, ByteView record) override {
    backend_->Persist(key, record);
  }
  std::optional<Bytes> Get(const std::string& key) override {
    OpenResult r = backend_->Open(key, /*verify=*/true);
    if (r.status != OpenStatus::kFresh || !r.record) {
      return std::nullopt;
    }
    return std::move(r.record);
  }

 private:
  Backend* backend_;
};

// --- local: sealed blob + monotonic-counter compare (the historical defense) ---
// The trusted counter is this backend's private detail, bumped and read only when the
// platform has a counter device: without one, IncrementBlocking would still count a write
// and journal a kCounterWrite. Open then has nothing to compare against, so a rolled-back
// blob opens as fresh.
class LocalCounterBackend final : public Backend {
 public:
  explicit LocalCounterBackend(EnclaveRuntime* enclave) : enclave_(enclave) {}

  uint64_t Persist(const std::string& key, ByteView record) override {
    const uint64_t version = ++last_version_[key];
    // Counter first, then the seal. A crash between the two would leave the counter ahead
    // of the sealed version (a spurious rollback verdict at the next boot), but none can
    // land there: handlers run to completion and crashes only land between handlers
    // (DESIGN.md §2.18). The journal digest pins this order (kCounterWrite before kSeal).
    // The counter write is the 20-97 ms stall on the -R critical path.
    if (has_counter()) {
      enclave_->platform().counter().IncrementBlocking();
    }
    SealVersioned(enclave_, key, record, version);
    return version;
  }

  OpenResult Open(const std::string& key, bool verify) override {
    OpenResult result;
    const std::optional<Bytes> blob = enclave_->sealed_store().Get(key);
    Bytes record;
    uint64_t version = 0;
    if (!blob || !SplitVersioned(*blob, &record, &version)) {
      return result;  // kEmpty: nothing sealed (or forged blob).
    }
    result.record = std::move(record);
    result.version = version;
    if (verify && has_counter()) {
      // Rollback detection: the sealed version must match the counter exactly. A stale
      // blob (version < counter) means the OS rolled the state back.
      result.expected_version = enclave_->platform().counter().ReadBlocking();
      if (version != result.expected_version) {
        result.status = OpenStatus::kRolledBack;
        last_version_[key] = std::max(version, result.expected_version);
        return result;
      }
    }
    result.status = OpenStatus::kFresh;
    last_version_[key] = version;
    return result;
  }

  persist::Store& store() override {
    // The historical checkpoint-certificate dispatch, unchanged: TEE platforms seal the
    // raw record (no version trailer, no counter write), TEE-less baselines use the host
    // record store and cannot detect rollback (see the README threat-model table).
    return enclave_->in_tee()
               ? enclave_->sealed_store()
               : enclave_->platform().host_storage().record_store();
  }

 private:
  bool has_counter() { return enclave_->platform().counter().spec().enabled(); }

  EnclaveRuntime* enclave_;
  std::map<std::string, uint64_t> last_version_;
};

// Shared machinery of the two quorum backends: versioned local seal + a blocking charge
// (as obs::Component::kCounter) for the peer round trip.
class QuorumBackendBase : public Backend {
 public:
  QuorumBackendBase(EnclaveRuntime* enclave, DefenseService* service)
      : enclave_(enclave), service_(service), view_(this) {
    ACHILLES_CHECK(service_ != nullptr);
  }

  persist::Store& store() override { return view_; }

 protected:
  uint32_t self() const { return enclave_->platform().node_id(); }
  void ChargeQuorumWait(SimDuration peer_op) {
    enclave_->platform().host().ChargeCpuAs(
        obs::Component::kCounter, 2 * service_->costs().one_way + peer_op);
  }
  // Local sealed read, split into (record, version); false = nothing usable sealed.
  bool OpenLocal(const std::string& key, Bytes* record, uint64_t* version) {
    const std::optional<Bytes> blob = enclave_->sealed_store().Get(key);
    return blob && SplitVersioned(*blob, record, version);
  }

  EnclaveRuntime* enclave_;
  DefenseService* service_;
  std::map<std::string, uint64_t> last_version_;

 private:
  BackendStoreView view_;
};

// --- rollbaccine: quorum-replicated sealed storage (detection AND repair) ---
class RollbaccineBackend final : public QuorumBackendBase {
 public:
  using QuorumBackendBase::QuorumBackendBase;

  uint64_t Persist(const std::string& key, ByteView record) override {
    const uint64_t version = ++last_version_[key];
    SealVersioned(enclave_, key, record, version);
    // The write is acked only once the peer disk replicas hold the copy: one round trip
    // plus the peer-side durable write, charged as blocking anti-rollback I/O.
    service_->Replicate(self(), key, version, record);
    ChargeQuorumWait(service_->costs().replica_write);
    return version;
  }

  OpenResult Open(const std::string& key, bool verify) override {
    OpenResult result;
    Bytes local_record;
    uint64_t local_version = 0;
    const bool have_local = OpenLocal(key, &local_record, &local_version);
    if (!verify) {
      // Broken variant (quorum-restore-skip): trust the local blob without consulting the
      // herd — exactly the stale install replication exists to prevent.
      if (have_local) {
        result.status = OpenStatus::kFresh;
        result.record = std::move(local_record);
        result.version = local_version;
        last_version_[key] = local_version;
      }
      return result;
    }
    ChargeQuorumWait(service_->costs().replica_read);
    const std::optional<DefenseService::Copy> peer = service_->FreshestPeerCopy(self(), key);
    const uint64_t peer_version = peer ? peer->version : 0;
    result.expected_version = std::max(local_version, peer_version);
    if (!have_local && !peer) {
      return result;  // kEmpty.
    }
    // Herd immunity: recovery installs the freshest surviving copy, so a rolled-back (or
    // erased) local blob is repaired rather than fatal.
    result.status = OpenStatus::kFresh;
    if (peer_version > local_version) {
      result.record = peer->record;
      result.version = peer_version;
      result.repaired = true;  // Local blob was stale or erased; the herd had better.
    } else {
      result.record = std::move(local_record);
      result.version = local_version;
    }
    last_version_[key] = result.expected_version;
    return result;
  }
};

// --- healer: quorum freshness certificates (detection, no repair) ---
class HealerBackend final : public QuorumBackendBase {
 public:
  using QuorumBackendBase::QuorumBackendBase;

  uint64_t Persist(const std::string& key, ByteView record) override {
    const uint64_t version = ++last_version_[key];
    SealVersioned(enclave_, key, record, version);
    // Peers countersign the version floor (certificates only — the record itself stays
    // local, which is why this backend can detect but never repair).
    service_->Certify(self(), key, version);
    ChargeQuorumWait(service_->costs().cert_op);
    return version;
  }

  OpenResult Open(const std::string& key, bool verify) override {
    OpenResult result;
    Bytes local_record;
    uint64_t local_version = 0;
    const bool have_local = OpenLocal(key, &local_record, &local_version);
    if (!verify) {
      // Broken variant (cert-floor-skip): install the local blob without checking the
      // certified floor — the silent stale install the certificates exist to catch.
      if (have_local) {
        result.status = OpenStatus::kFresh;
        result.record = std::move(local_record);
        result.version = local_version;
        last_version_[key] = local_version;
      }
      return result;
    }
    ChargeQuorumWait(service_->costs().cert_op);
    const uint64_t floor = service_->CertifiedFloor(self(), key);
    result.expected_version = floor;
    last_version_[key] = std::max(local_version, floor);
    if (!have_local) {
      // Erased local blob under a non-zero floor is a detected rollback (the record is
      // gone for good — no repair); no floor and no blob is a genuine first boot.
      result.status = floor > 0 ? OpenStatus::kRolledBack : OpenStatus::kEmpty;
      return result;
    }
    result.record = std::move(local_record);
    result.version = local_version;
    result.status = local_version < floor ? OpenStatus::kRolledBack : OpenStatus::kFresh;
    return result;
  }
};

}  // namespace

std::unique_ptr<persist::Backend> MakeDefenseBackend(EnclaveRuntime* enclave) {
  NodePlatform& platform = enclave->platform();
  switch (platform.defense_kind()) {
    case DefenseKind::kLocal:
      return std::make_unique<LocalCounterBackend>(enclave);
    case DefenseKind::kRollbaccine:
      return std::make_unique<RollbaccineBackend>(enclave, platform.defense_service());
    case DefenseKind::kHealer:
      return std::make_unique<HealerBackend>(enclave, platform.defense_service());
  }
  ACHILLES_CHECK_MSG(false, "unknown defense kind");
  return nullptr;
}

}  // namespace achilles
