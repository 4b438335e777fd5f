// Reference event-queue engine: a binary heap of node pointers ordered by (time, seq),
// with lazy cancellation. Simple and obviously correct. It is not part of the simulator:
// tests/sim_queue_test.cc fuzzes the production CalendarQueue against it, and
// bench_sim_core races the two head to head, each through SimulationT<HeapQueue>.
#ifndef BENCH_HEAP_QUEUE_H_
#define BENCH_HEAP_QUEUE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/simulation.h"

namespace achilles {

class HeapQueue {
 public:
  void Push(EventNode* n) {
    heap_.push_back(Entry{n, n->gen});
    size_t i = heap_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Earlier(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  // Earliest live node, or nullptr when empty. Reclaims cancelled nodes that surface.
  EventNode* PeekEarliest(EventPool& pool) {
    while (!heap_.empty() && heap_.front().gen != heap_.front().node->gen) {
      EventNode* dead = heap_.front().node;
      PopRoot();
      pool.Free(dead);
    }
    return heap_.empty() ? nullptr : heap_.front().node;
  }

  EventNode* PopEarliest(EventPool& pool) {
    EventNode* n = PeekEarliest(pool);
    if (n != nullptr) {
      PopRoot();
    }
    return n;
  }

  // O(1) logical removal: the generation bump invalidates outstanding handles at once —
  // matching the calendar engine, which frees on Remove — and marks the heap entry dead,
  // so it is reclaimed when it reaches the top. Double-cancel is a no-op on both engines.
  void Remove(EventNode* n, EventPool&) { ++n->gen; }

 private:
  // A heap slot: the node and its generation when pushed. The node stays allocated until
  // its entry leaves the heap, so a generation mismatch can only mean a cancel.
  struct Entry {
    EventNode* node;
    uint64_t gen;
  };

  static bool Earlier(const Entry& x, const Entry& y) {
    return x.node->time != y.node->time ? x.node->time < y.node->time
                                        : x.node->seq < y.node->seq;
  }

  void PopRoot() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    size_t i = 0;
    const size_t n = heap_.size();
    while (true) {
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      size_t best = i;
      if (left < n && Earlier(heap_[left], heap_[best])) {
        best = left;
      }
      if (right < n && Earlier(heap_[right], heap_[best])) {
        best = right;
      }
      if (best == i) {
        break;
      }
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<Entry> heap_;
};

}  // namespace achilles

#endif  // BENCH_HEAP_QUEUE_H_
