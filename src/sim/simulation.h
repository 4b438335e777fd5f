// Deterministic discrete-event simulation core: a virtual clock and an event queue. All
// randomness flows from the simulation seed, so runs are exactly reproducible.
//
// The queue engine is a template parameter (src/sim/event_queue.h). The production alias
// `Simulation` runs on the calendar queue; the reference heap engine (bench/heap_queue.h)
// races it in tests/sim_queue_test.cc's differential fuzz and in bench_sim_core.
//
// Events come in two shapes (DESIGN.md §2.21):
//   raw    a function pointer plus (obj, a, b) — the dominant fixed-shape events
//          (message delivery, timer fire, CPU drain) schedule with zero heap allocation;
//   boxed  a std::function for everything irregular (test lambdas, reboot closures).
// Event nodes are slab-pooled and recycled; an EventId handle is {node, generation}, so
// Cancel is O(1) and cancelling an already-fired id is a safe no-op.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/sim/event_queue.h"

namespace achilles {

// Cancel handle. Default-constructed (== kInvalidEvent) handles and handles to events
// that already fired or were cancelled are ignored by Cancel — the generation check
// rejects recycled nodes.
struct EventId {
  EventNode* node = nullptr;
  uint64_t gen = 0;

  bool valid() const { return node != nullptr; }
  friend bool operator==(const EventId& a, const EventId& b) {
    return a.node == b.node && a.gen == b.gen;
  }
  friend bool operator!=(const EventId& a, const EventId& b) { return !(a == b); }
};

inline constexpr EventId kInvalidEvent{};

template <class Queue>
class SimulationT {
 public:
  explicit SimulationT(uint64_t seed) : rng_(seed) {}

  SimulationT(const SimulationT&) = delete;
  SimulationT& operator=(const SimulationT&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute virtual time `t` (>= Now). Returns a handle for Cancel.
  EventId ScheduleAt(SimTime t, std::function<void()> fn) {
    EventNode* n = NewNode(t);
    n->boxed = new std::function<void()>(std::move(fn));
    ++boxed_events_;
    queue_.Push(n);
    return EventId{n, n->gen};
  }
  EventId ScheduleAfter(SimDuration delay, std::function<void()> fn) {
    ACHILLES_CHECK(delay >= 0);
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Allocation-free scheduling for fixed-shape events: fires fn(obj, a, b).
  EventId ScheduleRawAt(SimTime t, RawEventFn fn, void* obj, uint64_t a = 0,
                        uint64_t b = 0) {
    EventNode* n = NewNode(t);
    n->raw = fn;
    n->obj = obj;
    n->a = a;
    n->b = b;
    queue_.Push(n);
    return EventId{n, n->gen};
  }
  EventId ScheduleRawAfter(SimDuration delay, RawEventFn fn, void* obj, uint64_t a = 0,
                           uint64_t b = 0) {
    ACHILLES_CHECK(delay >= 0);
    return ScheduleRawAt(now_ + delay, fn, obj, a, b);
  }

  // Cancels a pending event in O(1). Cancelling an already-fired or invalid id is a no-op.
  void Cancel(EventId id) {
    if (id.node == nullptr || id.node->gen != id.gen) {
      return;  // Never scheduled, already fired, or node recycled since.
    }
    --live_;
    queue_.Remove(id.node, pool_);  // Frees now (calendar) or marks for later (heap).
  }

  // Runs the earliest pending event. Returns false when the queue is empty.
  bool Step() {
    EventNode* n = queue_.PopEarliest(pool_);
    if (n == nullptr) {
      return false;
    }
    now_ = n->time;
    ++executed_;
    --live_;
    // Move the callback out and recycle the node *before* invoking: the callback may
    // schedule new events and legitimately reuse this very slot.
    if (n->boxed != nullptr) {
      std::unique_ptr<std::function<void()>> fn(n->boxed);
      n->boxed = nullptr;
      pool_.Free(n);
      (*fn)();
    } else {
      const RawEventFn fn = n->raw;
      void* obj = n->obj;
      const uint64_t a = n->a;
      const uint64_t b = n->b;
      pool_.Free(n);
      fn(obj, a, b);
    }
    return true;
  }

  // Runs all events with time <= t; the clock finishes at exactly t.
  void RunUntil(SimTime t) {
    ACHILLES_CHECK(t >= now_);
    while (true) {
      const EventNode* next = queue_.PeekEarliest(pool_);
      if (next == nullptr || next->time > t) {
        break;
      }
      Step();
    }
    now_ = t;
  }
  void RunFor(SimDuration d) { RunUntil(Now() + d); }

  // Runs until no events remain. `max_events` guards against runaway schedules.
  void RunUntilIdle(uint64_t max_events = UINT64_MAX) {
    uint64_t budget = max_events;
    while (budget-- > 0 && Step()) {
    }
  }

  Rng& rng() { return rng_; }
  size_t pending_events() const { return live_; }
  uint64_t executed_events() const { return executed_; }
  // High-water mark of pending_events() over the run (simulator self-profiling).
  size_t peak_pending_events() const { return peak_pending_; }

  // --- Self-profiling for bench_sim_core ---
  // Events that needed a heap-allocated std::function (the boxed fallback).
  uint64_t boxed_events() const { return boxed_events_; }
  const EventPool& pool() const { return pool_; }
  const Queue& queue() const { return queue_; }

 private:
  EventNode* NewNode(SimTime t) {
    ACHILLES_CHECK(t >= now_);
    EventNode* n = pool_.Alloc();
    n->time = t;
    n->seq = next_seq_++;
    ++live_;
    peak_pending_ = std::max(peak_pending_, live_);
    return n;
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t live_ = 0;
  size_t peak_pending_ = 0;
  uint64_t boxed_events_ = 0;
  Queue queue_;
  EventPool pool_;
  Rng rng_;
};

extern template class SimulationT<CalendarQueue>;

// The production simulation.
using Simulation = SimulationT<CalendarQueue>;

}  // namespace achilles

#endif  // SRC_SIM_SIMULATION_H_
