// Latency-breakdown attribution. A Path rides along every causal chain in the simulation
// (handler -> message -> handler ...), splitting the virtual time since its origin into
// labeled components. The invariant `origin + sum(parts) == covered_until` is maintained at
// every step, so when a chain reaches a client confirmation the parts decompose the
// confirmation latency *exactly* — attribution sums to measured latency by construction,
// not by calibration.
//
// Protocol replicas restart the path at block proposal; the gap between a transaction's
// submit time and the path origin (mempool wait, views spent on ancestors) is booked as
// kIdle, keeping the per-transaction decomposition exact regardless of chaining.
#ifndef SRC_OBS_BREAKDOWN_H_
#define SRC_OBS_BREAKDOWN_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/common/sim_time.h"

namespace achilles {
namespace obs {

class JsonWriter;

// Where a slice of virtual time went. kCpu covers CPU service *and* queueing behind the
// single-core host run-to-completion model (execution, deserialization, waiting for the
// CPU); crypto, ECALL transitions, counter I/O and stable-storage fsync are split out
// because they are the paper's cost terms.
enum class Component : uint8_t {
  kNetPropagation = 0,   // Link propagation delay (incl. loopback pipes).
  kNicSerialization,     // Egress NIC queueing + wire serialization.
  kCpu,                  // CPU service + run-queue wait (non-crypto work).
  kEcall,                // Enclave transition round trips.
  kCrypto,               // Sign/verify/hash/seal, in or out of the enclave.
  kCounter,              // Trusted monotonic counter reads/writes.
  kFsync,                // Host stable-storage sync barriers (WAL/record-store fsync).
  kIdle,                 // Timer waits, mempool/batching wait before proposal.
};

inline constexpr size_t kNumComponents = 8;
const char* ComponentName(Component c);

class Recorder;

// The causal parent of the next record on a chain (src/obs/recorder.h). Opaque outside
// src/obs: it holds each sink's own id for the parent (trace span, journal seq,
// critical-path activity), zero where that sink is off; a default Cause is a chain root.
class Cause {
 private:
  friend class Recorder;
  uint64_t span_ = 0;
  uint64_t seq_ = 0;
  uint32_t activity_ = 0;
};

struct Path {
  SimTime origin = 0;         // Virtual time attribution started.
  SimTime covered_until = 0;  // origin + sum(parts); the invariant frontier.
  std::array<int64_t, kNumComponents> parts{};
  Cause cause;  // Causal parent of the records this chain makes next.

  // Restarts attribution at `now`; the causal context is kept.
  void Restart(SimTime now) {
    origin = now;
    covered_until = now;
    parts.fill(0);
  }

  void Extend(Component c, SimDuration d) {
    parts[static_cast<size_t>(c)] += d;
    covered_until += d;
  }

  // Books [covered_until, t) as `c`; no-op if t is not ahead of the frontier.
  void CoverUntil(Component c, SimTime t) {
    if (t > covered_until) {
      Extend(c, t - covered_until);
    }
  }

  SimDuration total() const { return covered_until - origin; }
};

// Mean per-transaction decomposition in milliseconds (the unit RunStats reports).
struct BreakdownMs {
  std::array<double, kNumComponents> parts{};
  uint64_t tx_count = 0;
  uint64_t block_count = 0;

  double part(Component c) const { return parts[static_cast<size_t>(c)]; }
  double TotalMs() const;
  void ToJson(JsonWriter* w) const;
};

// Accumulates confirmed-block paths during a measurement window. One instance per cluster,
// fed by the client's confirmation handler through CommitTracker.
class BreakdownAttributor {
 public:
  // `path` is the chain that delivered the first reply for a block whose transactions were
  // submitted at `submit_sum_ns / tx_count` on average; `now` is the confirmation time
  // (== path.covered_until when the client charged its handling cost through the path).
  void OnConfirm(const Path& path, SimTime now, int64_t submit_sum_ns, uint64_t tx_count);

  void Reset();

  BreakdownMs MeanPerTx() const;
  uint64_t tx_count() const { return tx_count_; }

 private:
  std::array<int64_t, kNumComponents> sums_{};  // Per-component ns, weighted per tx.
  uint64_t tx_count_ = 0;
  uint64_t block_count_ = 0;
};

}  // namespace obs
}  // namespace achilles

#endif  // SRC_OBS_BREAKDOWN_H_
