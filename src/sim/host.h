// A simulated machine: single-CPU work queue, timers, crash/reboot lifecycle. Handlers run
// to completion; CPU time charged during a handler delays everything queued behind it, which
// is what makes leaders saturate under load (Fig. 4's knee).
//
// Hot-path note (DESIGN.md §2.21): the four dominant event shapes — message delivery,
// timer fire, drain start, process start — schedule through the simulator's raw
// (function-pointer) events, and message deliveries park their payload in a slab-pooled
// Delivery record, so steady-state traffic allocates no std::function closures at all.
// Only rare control events (reboot completion) use the boxed fallback.
//
// Observability: every CPU charge carries an obs::Component tag and every queued handler
// carries the obs::Path of the causal chain that triggered it, so committed-block latency
// can be attributed without touching virtual time (see src/obs/breakdown.h). Every
// observation (dispatch, charge, lifecycle, journal kinds) is emitted once into the
// cluster's obs::Recorder, when one is attached.
#ifndef SRC_SIM_HOST_H_
#define SRC_SIM_HOST_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/obs/breakdown.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/sim/process.h"
#include "src/sim/simulation.h"

namespace achilles {

class Host {
 public:
  Host(Simulation* sim, uint32_t id);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  uint32_t id() const { return id_; }
  bool IsUp() const { return up_; }
  Simulation& sim() { return *sim_; }

  // Binds a process and starts it. The host must be up and process-less.
  void BindProcess(std::unique_ptr<IProcess> process);

  // Crashes the host: the process (and all its volatile state) is destroyed, queued work is
  // dropped, timers die. Pending network deliveries to this host are discarded on arrival.
  void Crash();

  // Brings a crashed host back up with a fresh process after `init_delay` of virtual time
  // (models OS boot + enclave launch).
  void Reboot(std::unique_ptr<IProcess> process, SimDuration init_delay);

  // Scripted fault hook: freezes this host's CPU for `d` (a GC pause / scheduling stall).
  // Queued work and later arrivals drain only after the stall. No-op while down.
  void InjectStall(SimDuration d);

  // Lifecycle tap for the chaos harness: invoked with "boot" when a process is bound (both
  // genesis and post-reboot, before its OnStart runs) and "crash" when the host goes down.
  // Observability + scripted-fault timing only; must not destroy the host.
  using LifecycleListener = std::function<void(uint32_t host_id, const char* event)>;
  void SetLifecycleListener(LifecycleListener listener) {
    lifecycle_ = std::move(listener);
  }

  // Network entry point: schedules message processing at `arrival`, subject to CPU queueing.
  // `path` (optional) is the sender-side attribution chain, already extended to `arrival`.
  void DeliverAt(SimTime arrival, uint32_t from, MessageRef msg,
                 const obs::Path* path = nullptr);

  // --- Callable from inside a handler running on this host ---

  // Charges `d` of CPU time to the current handler. Everything the handler sends afterwards
  // departs after the charge; queued work starts after the handler's total charge.
  // The charge is attributed to `c` on the current path (default: generic CPU service).
  void ChargeCpu(SimDuration d) { ChargeCpuAs(obs::Component::kCpu, d); }
  void ChargeCpuAs(obs::Component c, SimDuration d);

  // Virtual time as seen by the running handler (sim time + charges so far).
  SimTime LocalNow() const;

  // One-shot timer. Fires on this host's CPU; dies if the host crashes first.
  uint64_t SetTimer(SimDuration delay, std::function<void()> fn);
  void CancelTimer(uint64_t timer_id);

  // Total CPU time this host has charged (for utilization reporting).
  SimDuration cpu_time_used() const { return cpu_used_; }

  // --- Observability (all zero-cost in virtual time) ---
  // The attribution path of the running handler. Outside a handler this is a stale copy;
  // use SendPath() for snapshots.
  const obs::Path& current_path() const { return cur_path_; }
  // Snapshot a path for an outgoing message: the current handler's chain, or a fresh path
  // when called outside a handler (setup code, tests).
  obs::Path SendPath() const;
  // Restarts attribution at `origin` (a proposal point); time already spent in the handler
  // since `origin` is booked as CPU so the invariant holds.
  void RestartPathAt(SimTime origin);

  // Record stream (src/obs/recorder.h); null when every sink is off. Recording is
  // memory-only and never perturbs virtual time.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  obs::Recorder* recorder() const { return recorder_; }
  // Causal parent for records made now: the running handler's context, or none outside a
  // handler (setup, lifecycle and fault events start their own chains).
  obs::Cause cause() const { return in_handler_ ? cur_path_.cause : obs::Cause(); }
  // Records a journal-kind event on this host's track at LocalNow() under cause().
  void JournalEvent(obs::JournalKind kind, uint64_t a = 0, uint64_t b = 0,
                    std::string_view detail = {});
  // Registers this host's hot-path instruments (shared across hosts by metric name).
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  // What a queued handler does when the CPU reaches it. Only timers carry a closure;
  // steady-state message traffic is dispatched straight to the bound process.
  enum class WorkKind : uint8_t { kMessage, kTimer, kStart, kStall };

  struct Work {
    WorkKind kind;
    bool has_path = false;
    uint32_t from = 0;           // kMessage: sending host.
    MessageRef msg;              // kMessage.
    std::function<void()> fn;    // kTimer.
    SimDuration stall = 0;       // kStall.
    const char* name;            // Trace span label (static string).
    obs::Path path;              // Frontier used only with has_path; cause always.
  };

  // In-flight message: payload + attribution snapshot parked between the network's
  // DeliverAt and the arrival event, slab-pooled per host (next links the freelist).
  struct Delivery {
    MessageRef msg;
    obs::Path path;
    uint32_t from = 0;
    bool has_path = false;
    Delivery* next = nullptr;
  };

  // Raw event trampolines (fixed-shape, allocation-free; see simulation.h).
  static void DeliveryEvent(void* self, uint64_t record, uint64_t);
  static void TimerEvent(void* self, uint64_t timer_id, uint64_t epoch);
  static void DrainEvent(void* self, uint64_t epoch, uint64_t);
  static void StartEvent(void* self, uint64_t epoch, uint64_t);

  Delivery* AllocDelivery();
  void FreeDelivery(Delivery* d);
  void FinishDelivery(Delivery* d);
  void PushWork(Work&& work);
  void ScheduleDrain();
  void DrainOne();

  Simulation* sim_;
  uint32_t id_;
  bool up_ = false;
  uint64_t epoch_ = 0;  // Incremented on crash; stale events check it.
  std::unique_ptr<IProcess> process_;

  std::deque<Work> queue_;
  bool drain_pending_ = false;
  SimTime cpu_free_at_ = 0;
  bool in_handler_ = false;
  SimDuration handler_charge_ = 0;
  SimDuration cpu_used_ = 0;

  obs::Path cur_path_;
  LifecycleListener lifecycle_;
  obs::Recorder* recorder_ = nullptr;
  obs::Histogram* handler_ns_ = nullptr;    // Per-handler CPU charge distribution.
  obs::Histogram* queue_wait_ns_ = nullptr; // Arrival -> handler-start wait distribution.

  std::vector<std::unique_ptr<Delivery[]>> delivery_slabs_;
  Delivery* delivery_free_ = nullptr;

  uint64_t next_timer_id_ = 1;
  struct Timer {
    EventId event;             // The pending raw fire event (cancelled on crash).
    std::function<void()> fn;  // Runs on this host's CPU when the event fires.
  };
  std::unordered_map<uint64_t, Timer> timers_;
};

}  // namespace achilles

#endif  // SRC_SIM_HOST_H_
