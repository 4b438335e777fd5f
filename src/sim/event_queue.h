// Event-queue engines for the discrete-event core (see DESIGN.md §2.21).
//
// Events are slab-pooled, intrusively-linked EventNodes; the queue engines order them
// strictly by (time, seq) — seq is the global schedule order, so equal-time events pop
// FIFO. The engine is CalendarQueue (Brown 1988): an adaptive ring of "day" buckets, each
// a sorted intrusive list. Schedule and pop are O(1) amortized; cancel unlinks in O(1) via
// the node pointer. Bucket count and width adapt to the live event population.
//
// Determinism contract: the engine dequeues in exactly (time, seq) order.
// tests/sim_queue_test.cc fuzzes it against a reference binary heap (bench/heap_queue.h);
// the golden-digest table in tests/sim_determinism_test.cc pins the resulting
// event-log/journal/KV-history digests.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/sim_time.h"

namespace achilles {

// Fixed-shape event callback: no allocation, no type erasure. The dominant events
// (message delivery, timer fire, drain start) all fit (obj, a, b).
using RawEventFn = void (*)(void* obj, uint64_t a, uint64_t b);

// One pending event. Lives in the EventPool's slabs for the simulation's lifetime and is
// recycled through a freelist; prev/next double as bucket links (calendar) and freelist
// links (pool). `gen` bumps every time the node logically dies (fires, is cancelled, or
// is recycled), which is what makes stale EventId handles safe no-ops.
struct EventNode {
  SimTime time = 0;
  uint64_t seq = 0;  // FIFO tie-break for equal times; globally increasing.
  uint64_t gen = 1;
  EventNode* prev = nullptr;
  EventNode* next = nullptr;
  uint32_t bucket = 0;      // Calendar bucket index (valid while linked).
  // Tagged callback: `raw` when set, else `*boxed` (generic std::function fallback).
  RawEventFn raw = nullptr;
  void* obj = nullptr;
  uint64_t a = 0;
  uint64_t b = 0;
  std::function<void()>* boxed = nullptr;
};

// Slab allocator for EventNodes. Slabs are never returned to the OS until the pool dies,
// so a recycled node's address stays valid — EventId handles dangle safely and the `gen`
// check rejects them.
class EventPool {
 public:
  EventPool() = default;
  ~EventPool();

  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  EventNode* Alloc();
  void Free(EventNode* n);

  size_t live() const { return live_; }
  size_t high_water() const { return high_water_; }
  size_t slabs() const { return slabs_.size(); }
  size_t capacity() const { return slabs_.size() * kSlabSize; }

 private:
  static constexpr size_t kSlabSize = 256;

  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  EventNode* free_ = nullptr;
  size_t live_ = 0;
  size_t high_water_ = 0;
};

// Hot-path engine: adaptive calendar queue. Buckets partition virtual time into "days"
// of `width_` ns; day d maps to bucket d % nbuckets, so one pass over the ring is one
// "year". Each bucket is a (time, seq)-sorted intrusive list; new events carry globally
// increasing seq, so the common case appends at the tail in O(1) even for bursts at a
// single tick. The dequeue cursor sweeps days; a full fruitless year falls back to a
// direct min-scan over bucket heads (events far in the future), which also re-aims the
// cursor. Bucket count doubles/halves with the live population and the day width is
// re-estimated from the earliest events at every resize.
class CalendarQueue {
 public:
  CalendarQueue();

  void Push(EventNode* n);
  EventNode* PeekEarliest(EventPool& pool);
  EventNode* PopEarliest(EventPool& pool);
  // O(1) unlink via the node's intrusive links; the slot recycles immediately.
  void Remove(EventNode* n, EventPool& pool);

  size_t size() const { return size_; }

 private:
  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  static constexpr size_t kMinBuckets = 16;

  uint64_t DayOf(SimTime t) const {
    return static_cast<uint64_t>(t) / static_cast<uint64_t>(width_);
  }
  void InsertNode(EventNode* n);
  void Unlink(EventNode* n);
  void Resize(size_t nbuckets);
  SimDuration EstimateWidth(const std::vector<EventNode*>& sorted) const;

  std::vector<Bucket> buckets_;
  uint64_t mask_ = kMinBuckets - 1;
  SimDuration width_ = Us(1);
  uint64_t cur_day_ = 0;
  size_t size_ = 0;
};

}  // namespace achilles

#endif  // SRC_SIM_EVENT_QUEUE_H_
