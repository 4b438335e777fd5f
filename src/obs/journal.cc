#include "src/obs/journal.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "src/crypto/sha256.h"

namespace achilles {
namespace obs {

namespace {

// Indexed by JournalKind (declaration order).
constexpr const char* kKindNames[] = {
    "boot", "crash", "stall", "send", "deliver", "ecall", "seal", "unseal", "counter-write",
    "counter-read", "wal-append", "fsync", "wal-truncate", "rollback-reject", "halt",
    "view-enter", "leader-elected", "lock-update", "propose", "commit", "checkpoint",
    "recovery-enter", "recovery-round", "recovery-exit", "lease-grant", "lease-revoke",
    "lease-serve", "checkpoint-stable", "log-truncate", "snapshot-fetch",
    "oracle-violation",
};
static_assert(std::size(kKindNames) == kNumJournalKinds);

}  // namespace

const char* JournalKindName(JournalKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

bool JournalKindIsFlow(JournalKind kind) {
  return kind == JournalKind::kSend || kind == JournalKind::kDeliver ||
         kind == JournalKind::kEcall || kind == JournalKind::kWalAppend ||
         kind == JournalKind::kFsync || kind == JournalKind::kLeaseServe;
}

std::string JournalRecord::ToLine() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "#%06llu t=%lld n%u/%u %s p=#%06llu a=%llu b=%llu",
                static_cast<unsigned long long>(seq), static_cast<long long>(ts), node,
                incarnation, JournalKindName(kind),
                static_cast<unsigned long long>(parent), static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  std::string line(buf);
  if (!detail.empty()) {
    line += ' ';
    line += detail;
  }
  return line;
}

Journal::Journal(size_t control_capacity, size_t flow_capacity)
    : control_capacity_(std::max<size_t>(1, control_capacity)),
      flow_capacity_(std::max<size_t>(1, flow_capacity)) {}

Journal::NodeRings& Journal::RingsFor(uint32_t node) {
  if (node >= nodes_.size()) {
    nodes_.resize(node + 1);
  }
  return nodes_[node];
}

uint64_t Journal::Record(uint32_t node, JournalKind kind, SimTime ts, uint64_t parent,
                         uint64_t a, uint64_t b, std::string detail) {
  NodeRings& rings = RingsFor(node);
  if (kind == JournalKind::kBoot) {
    ++rings.incarnation;
  }
  JournalRecord record;
  record.seq = next_seq_++;
  record.ts = ts;
  record.node = node;
  record.incarnation = rings.incarnation;
  record.kind = kind;
  record.parent = parent;
  record.a = a;
  record.b = b;
  record.detail = std::move(detail);
  std::deque<JournalRecord>& ring = JournalKindIsFlow(kind) ? rings.flow : rings.control;
  const size_t capacity = JournalKindIsFlow(kind) ? flow_capacity_ : control_capacity_;
  if (ring.size() >= capacity) {
    ring.pop_front();
    ++evicted_;
  }
  const uint64_t seq = record.seq;
  ring.push_back(std::move(record));
  ++recorded_;
  return seq;
}

uint32_t Journal::incarnation(uint32_t node) const {
  return node < nodes_.size() ? nodes_[node].incarnation : 0;
}

std::vector<JournalRecord> Journal::NodeEvents(uint32_t node) const {
  std::vector<JournalRecord> out;
  if (node >= nodes_.size()) {
    return out;
  }
  const NodeRings& rings = nodes_[node];
  out.reserve(rings.control.size() + rings.flow.size());
  out.insert(out.end(), rings.control.begin(), rings.control.end());
  out.insert(out.end(), rings.flow.begin(), rings.flow.end());
  std::sort(out.begin(), out.end(),
            [](const JournalRecord& x, const JournalRecord& y) { return x.seq < y.seq; });
  return out;
}

std::vector<JournalRecord> Journal::Events() const {
  std::vector<JournalRecord> out;
  out.reserve(live());
  for (const NodeRings& rings : nodes_) {
    out.insert(out.end(), rings.control.begin(), rings.control.end());
    out.insert(out.end(), rings.flow.begin(), rings.flow.end());
  }
  std::sort(out.begin(), out.end(),
            [](const JournalRecord& x, const JournalRecord& y) { return x.seq < y.seq; });
  return out;
}

size_t Journal::live() const {
  size_t total = 0;
  for (const NodeRings& rings : nodes_) {
    total += rings.control.size() + rings.flow.size();
  }
  return total;
}

std::string Journal::ToText() const {
  const std::vector<JournalRecord> events = Events();
  std::string out = "journal nodes=" + std::to_string(nodes_.size()) +
                    " recorded=" + std::to_string(recorded_) +
                    " evicted=" + std::to_string(evicted_) + "\n";
  for (const JournalRecord& record : events) {
    out += record.ToLine();
    out += '\n';
  }
  return out;
}

std::string Journal::DigestHex() const {
  const std::string text = ToText();
  const Hash256 digest =
      Sha256Digest(ByteView(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
  return HashToHex(digest);
}

}  // namespace obs
}  // namespace achilles
