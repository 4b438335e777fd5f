// Pluggable rollback-defense backends: the one seam through which trusted state buys
// freshness. Competing designs buy it for sealed state through different mechanisms at
// different costs; persist::Backend is a versioned-record persistence surface each of them
// implements, so the Damysus/OneShot checkers and the checkpoint certificate floor can
// race Achilles' recovery against:
//
//   local        today's baseline: sealed blob + (when present) trusted monotonic counter.
//                Detection only, and only with a counter device; the -R variants crash-stop
//                on a version/counter mismatch. An erased blob reads as a first boot.
//   rollbaccine  Rollbaccine-style replicated disk: every Persist is acked by peer "disk"
//                replicas over the (simulated) network, so recovery can take the freshest
//                surviving copy — rollback of any single host is *repaired*, not just
//                detected (herd immunity).
//   healer       "TEE is not a Healer"-style quorum freshness certificates: peers countersign
//                a version floor. Recovery below the floor is detected and refused, but the
//                record itself is not replicated — detection without repair.
//
// Backends charge their synchronous waits through CostModel (defense_* fields) as
// obs::Component::kCounter — the slot in the existing latency breakdowns where externalized
// anti-rollback I/O already lives (the Narrator counters set the precedent: a remote quorum
// write modeled as blocking device latency; see src/tee/narrator.h and DESIGN.md §2.23).
#ifndef SRC_STORAGE_DEFENSE_H_
#define SRC_STORAGE_DEFENSE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/sim_time.h"
#include "src/storage/persist.h"

namespace achilles {
namespace persist {

// Which rollback-defense backend a cluster runs (--defense on every bench/chaos tool).
enum class DefenseKind : uint8_t {
  kLocal = 0,      // Sealed blob + local counter compare (the repo's historical behavior).
  kRollbaccine,    // Quorum-replicated sealed storage; rollback is repaired from peers.
  kHealer,         // Quorum freshness certificates; rollback is detected, not repaired.
};
inline constexpr int kNumDefenseKinds = 3;

const char* DefenseKindName(DefenseKind kind);
bool DefenseKindFromName(std::string_view name, DefenseKind* out);

// Per-incarnation open verdict.
enum class OpenStatus : uint8_t {
  kFresh = 0,   // Record is the freshest the backend can prove; safe to install.
  kEmpty,       // Nothing persisted under this key (first boot, or erased beyond repair).
  kRolledBack,  // Freshness check failed: local state is provably stale.
};

struct OpenResult {
  OpenStatus status = OpenStatus::kEmpty;
  // The surviving record. Present on kFresh; on kRolledBack it still carries the stale
  // local record when one exists (a caller choosing to network-recover, like Achilles,
  // wants the version numbers but must not install the bytes).
  std::optional<Bytes> record;
  uint64_t version = 0;           // Version of `record` (0 when absent).
  uint64_t expected_version = 0;  // Freshness floor the backend proved (0 = no claim).
  bool repaired = false;          // kFresh via a peer copy newer than the local blob.
};

// One rollback-defense persistence surface, owned by an EnclaveRuntime incarnation (the
// peer-visible state it manages lives in the crash-surviving DefenseService below).
// Persist atomically replaces the record under `key`, assigns the next version, and blocks
// until the backend's durability+freshness guarantee holds (quorum backends charge the
// round trip). Open is the per-incarnation recover entry point: it returns the surviving
// record with the backend's freshness verdict; `verify` = false skips the freshness check
// (the deliberately-broken chaos variants; see BrokenVariant in src/consensus/replica_base.h).
class Backend {
 public:
  virtual ~Backend() = default;

  virtual uint64_t Persist(const std::string& key, ByteView record) = 0;
  virtual OpenResult Open(const std::string& key, bool verify) = 0;

  // Plain persist::Store facet over this backend, for call sites that speak the record
  // interface (the checkpoint certificate floor): Put routes through Persist, Get refuses
  // anything Open would not certify fresh.
  virtual Store& store() = 0;
};

// Per-reboot fate of a victim's defense-backend peer state, carried in chaos-script v4
// reboot events (bits 24-31 of FaultEvent::arg; see src/harness/fault_script.h). Lives
// here rather than fault_script.h so DefenseService can apply it without a harness dep.
enum class DefenseFate : uint8_t {
  kIntact = 0,      // Peer copies/certificates survive untouched.
  kPeerStale = 1,   // One peer holder is rolled back to its oldest copy/cert of the victim.
  kPeerErased = 2,  // One peer holder loses every copy/cert of the victim.
};
const char* DefenseFateName(DefenseFate fate);

// Synchronous-wait costs a quorum backend charges per operation (CostModel carries the
// defaults; the network one-way delay comes from the cluster's NetworkConfig).
struct DefenseCosts {
  SimDuration one_way = 0;        // One network traversal to the peer quorum.
  SimDuration replica_write = 0;  // Peer-side durable write of a replicated copy.
  SimDuration replica_read = 0;   // Peer-side read when recovering a copy.
  SimDuration cert_op = 0;        // Peer-side freshness-certificate issue/lookup.
};

// Cluster-level, crash-surviving peer state for the quorum backends: which versions of
// each node's sealed records the *other* hosts hold (rollbaccine copies) or have
// countersigned (healer certificates). Owned by the Cluster like the per-node platforms,
// so it survives any single node's crash — exactly the property both designs buy their
// freshness from. The quorum is modeled as always reachable within the charged latency
// (like the Narrator counter service); partitions delay but never fail these operations,
// which is the favorable-to-the-competition assumption bench_defense documents.
class DefenseService {
 public:
  DefenseService(uint32_t n, const DefenseCosts& costs);

  const DefenseCosts& costs() const { return costs_; }
  uint32_t n() const { return n_; }

  // Rollbaccine path: append version `version` of `owner`'s record under `key` at every
  // peer holder (owner excluded — its local sealed blob is its own copy).
  void Replicate(uint32_t owner, const std::string& key, uint64_t version, ByteView record);
  // Freshest surviving peer copy, or nullopt when every holder lost the key.
  struct Copy {
    uint64_t version = 0;
    Bytes record;
  };
  std::optional<Copy> FreshestPeerCopy(uint32_t owner, const std::string& key) const;

  // Healer path: countersign version `version` of `owner`'s record at every peer holder.
  void Certify(uint32_t owner, const std::string& key, uint64_t version);
  // Highest version any surviving holder has certified (0 = none).
  uint64_t CertifiedFloor(uint32_t owner, const std::string& key) const;

  // Chaos hook (reboot events, applied while the victim is down): attacks ONE peer
  // holder's view of `owner` — the deterministic holder (owner + 1) % n — per the fate.
  // With n >= 3 at least one untouched holder remains, which is both designs' assumption
  // (they tolerate rollback of any single host, not of the whole herd).
  void ApplyPeerFate(uint32_t owner, DefenseFate fate);

  // Stats (bench_defense's defense-write columns).
  uint64_t replications() const { return replications_; }
  uint64_t certifications() const { return certifications_; }

 private:
  struct Holder {
    // Per (owner, key): every surviving replicated copy, append order.
    std::map<std::pair<uint32_t, std::string>, std::vector<Copy>> copies;
    // Per (owner, key): every surviving certified version, append order.
    std::map<std::pair<uint32_t, std::string>, std::vector<uint64_t>> certs;
  };

  uint32_t n_;
  DefenseCosts costs_;
  std::vector<Holder> holders_;
  uint64_t replications_ = 0;
  uint64_t certifications_ = 0;
};

// Process-global default defense kind, set by the shared CLI layer (harness::FlagSet) so
// every bench's ClusterConfig picks up --defense without per-bench plumbing. Defaults to
// kLocal — the historical behavior — when no flag is given.
DefenseKind DefaultDefense();
void SetDefaultDefense(DefenseKind kind);

}  // namespace persist
}  // namespace achilles

#endif  // SRC_STORAGE_DEFENSE_H_
