// Deterministic versioned key-value state machine executed behind every protocol, plus the
// client-observed operation history it is judged by.
//
// Semantics: each key holds one cell (value, version). A PUT installs value = the writing
// transaction's id (globally unique — (client << 32) | seq — which makes lost updates
// unambiguous in a history) and bumps the key's version by one. A GET reads the cell at the
// point the transaction executes in the agreed log (version 0 = key never written). The op
// word rides in Transaction::op and is covered by the tx root, so block hashes and exec
// digests commit to application behavior, not just payload sizes.
//
// Exactly-once: the same transaction can legitimately appear in two committed blocks (a new
// leader re-proposes a client request it had pooled before seeing the old leader's commit).
// KvState deduplicates by tx id — re-execution is a no-op — so every mirror of the same log
// prefix holds bit-identical cells. This is the standard SMR client-request dedup, done at
// the application layer.
//
// History: clients record one KvOpRecord per invocation with virtual-time invoke/response
// intervals; the Wing–Gong checker (src/chaos/linearizability.h) decides whether a witness
// linearization exists. The text rendering is deterministic, so its SHA-256 doubles as a
// replay-stability fingerprint alongside the journal digest.
#ifndef SRC_APP_KV_H_
#define SRC_APP_KV_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/consensus/block.h"
#include "src/consensus/types.h"

namespace achilles {
namespace app {

enum class KvOpKind : uint8_t {
  kPut = 1,  // Install (value = tx id, version + 1) at the key.
  kGet = 2,  // Ordered read through the log (the lease fast path bypasses the log).
};

// Transaction::op encoding: kind in the top 2 bits, key in the low 32. Zero (the default)
// is "no state-machine effect" — the background load generator's transactions.
inline uint64_t EncodeKvOp(KvOpKind kind, uint32_t key) {
  return (static_cast<uint64_t>(kind) << 62) | key;
}
// Returns false for op == 0 or an unknown kind; such transactions are pure payload.
bool DecodeKvOp(uint64_t op, KvOpKind* kind, uint32_t* key);

struct KvCell {
  uint64_t value = 0;    // Id of the writing transaction; 0 = never written.
  uint64_t version = 0;  // Per-key write count; 0 = never written.
};

// One replica's (or the client's) materialized view of the agreed log. Blocks apply in
// chain order only; CanApply gates each step on (height + 1, parent hash), so a mirror fed
// out-of-order blocks simply waits.
class KvState {
 public:
  KvState();

  bool CanApply(const BlockPtr& block) const;
  // Invoked for every transaction newly applied by ApplyBlock (deduplicated replays are
  // skipped). `cell` is the key's content after the op — for a GET, what the read observed.
  using ApplyCallback =
      std::function<void(const Transaction& tx, KvOpKind kind, uint32_t key, const KvCell& cell)>;
  // Applies `block` (must satisfy CanApply). The callback may be null.
  void ApplyBlock(const BlockPtr& block, const ApplyCallback& cb = nullptr);

  // Cell content at `key`; a zero cell for absent keys.
  KvCell Read(uint32_t key) const;

  Height height() const { return height_; }
  size_t num_keys() const { return cells_.size(); }

 private:
  std::unordered_map<uint32_t, KvCell> cells_;
  std::unordered_set<uint64_t> applied_txs_;
  Height height_ = 0;
  Hash256 head_;
};

// One client-observed operation. `op_id` doubles as the transaction id for ordered ops
// (PUTs and GET fallbacks); lease-served reads never enter the log but keep the id unique.
struct KvOpRecord {
  uint64_t op_id = 0;
  uint32_t client = 0;          // Logical closed-loop session id.
  KvOpKind kind = KvOpKind::kGet;
  uint32_t key = 0;
  uint64_t value = 0;           // PUT: value written. GET: value returned.
  uint64_t version = 0;         // PUT: version created. GET: version observed.
  SimTime invoke = 0;
  SimTime response = -1;        // -1 = still pending when the run's horizon was reached.
  bool lease_read = false;      // Served by the leader read-lease fast path.
  NodeId server = kNoNode;      // Serving replica (lease read) / block proposer (ordered).

  bool complete() const { return response >= 0; }
  std::string ToLine() const;
};

struct KvHistory {
  std::vector<KvOpRecord> ops;

  // Deterministic text dump (one line per op, recording order) and its SHA-256 hex — the
  // app-level replay fingerprint.
  std::string ToText() const;
  std::string DigestHex() const;
};

}  // namespace app
}  // namespace achilles

#endif  // SRC_APP_KV_H_
