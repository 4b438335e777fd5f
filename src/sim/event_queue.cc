#include "src/sim/event_queue.h"

#include <algorithm>

#include "src/common/check.h"

namespace achilles {

// --- EventPool ---

EventPool::~EventPool() {
  // Nodes still pending at simulation teardown own their boxed closures; freelist nodes
  // have boxed == nullptr, so one sweep over the slabs releases everything.
  for (auto& slab : slabs_) {
    for (size_t i = 0; i < kSlabSize; ++i) {
      delete slab[i].boxed;
    }
  }
}

EventNode* EventPool::Alloc() {
  if (free_ == nullptr) {
    auto slab = std::make_unique<EventNode[]>(kSlabSize);
    // Chain the fresh slab into the freelist (reverse order so slot 0 pops first).
    for (size_t i = kSlabSize; i-- > 0;) {
      slab[i].next = free_;
      free_ = &slab[i];
    }
    slabs_.push_back(std::move(slab));
  }
  EventNode* n = free_;
  free_ = n->next;
  n->prev = nullptr;
  n->next = nullptr;
  n->bucket = 0;
  n->raw = nullptr;
  n->obj = nullptr;
  n->a = 0;
  n->b = 0;
  n->boxed = nullptr;
  ++live_;
  high_water_ = std::max(high_water_, live_);
  return n;
}

void EventPool::Free(EventNode* n) {
  delete n->boxed;  // Cancelled generic events die with their closure un-run.
  n->boxed = nullptr;
  ++n->gen;  // Invalidates every outstanding EventId handle to this node.
  n->prev = nullptr;
  n->next = free_;
  free_ = n;
  --live_;
}

// --- CalendarQueue ---

CalendarQueue::CalendarQueue() : buckets_(kMinBuckets) {}

void CalendarQueue::InsertNode(EventNode* n) {
  const uint64_t day = DayOf(n->time);
  Bucket& b = buckets_[day & mask_];
  n->bucket = static_cast<uint32_t>(day & mask_);
  EventNode* cur = b.tail;
  // Seq is globally increasing, so freshly scheduled events sort at or after the tail;
  // the backward walk almost always stops immediately (tail append), including for
  // bursts of many events at one tick.
  while (cur != nullptr &&
         (cur->time > n->time || (cur->time == n->time && cur->seq > n->seq))) {
    cur = cur->prev;
  }
  if (cur == nullptr) {
    n->next = b.head;
    n->prev = nullptr;
    if (b.head != nullptr) {
      b.head->prev = n;
    } else {
      b.tail = n;
    }
    b.head = n;
  } else {
    n->next = cur->next;
    n->prev = cur;
    if (cur->next != nullptr) {
      cur->next->prev = n;
    } else {
      b.tail = n;
    }
    cur->next = n;
  }
}

void CalendarQueue::Unlink(EventNode* n) {
  Bucket& b = buckets_[n->bucket];
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    b.head = n->next;
  }
  if (n->next != nullptr) {
    n->next->prev = n->prev;
  } else {
    b.tail = n->prev;
  }
  n->prev = nullptr;
  n->next = nullptr;
}

void CalendarQueue::Push(EventNode* n) {
  if (size_ + 1 > 2 * buckets_.size()) {
    Resize(2 * buckets_.size());
  }
  const uint64_t day = DayOf(n->time);
  if (size_ == 0 || day < cur_day_) {
    cur_day_ = day;  // Never let the cursor sit past a pending event.
  }
  InsertNode(n);
  ++size_;
}

EventNode* CalendarQueue::PeekEarliest(EventPool&) {
  if (size_ == 0) {
    return nullptr;
  }
  const size_t nb = buckets_.size();
  for (size_t i = 0; i < nb; ++i) {
    const Bucket& b = buckets_[cur_day_ & mask_];
    EventNode* h = b.head;
    if (h != nullptr) {
      // The head is this bucket's earliest event; it belongs to the cursor day unless
      // it wrapped in from a later year. No event can precede the cursor day (Push and
      // Resize pull the cursor back), so the day-window check needs only the far edge.
      const uint64_t day_end = (cur_day_ + 1) * static_cast<uint64_t>(width_);
      if (static_cast<uint64_t>(h->time) < day_end) {
        return h;
      }
    }
    ++cur_day_;
  }
  // A whole year without a hit: everything pending lives far past the cursor. Find the
  // min over bucket heads directly and jump the cursor to it.
  EventNode* best = nullptr;
  for (const Bucket& b : buckets_) {
    EventNode* h = b.head;
    if (h != nullptr && (best == nullptr || h->time < best->time ||
                         (h->time == best->time && h->seq < best->seq))) {
      best = h;
    }
  }
  ACHILLES_CHECK(best != nullptr);
  cur_day_ = DayOf(best->time);
  return best;
}

EventNode* CalendarQueue::PopEarliest(EventPool& pool) {
  EventNode* n = PeekEarliest(pool);
  if (n == nullptr) {
    return nullptr;
  }
  Unlink(n);
  --size_;
  if (size_ < buckets_.size() / 4 && buckets_.size() > kMinBuckets) {
    Resize(buckets_.size() / 2);
  }
  return n;
}

void CalendarQueue::Remove(EventNode* n, EventPool& pool) {
  Unlink(n);
  --size_;
  pool.Free(n);
}

SimDuration CalendarQueue::EstimateWidth(const std::vector<EventNode*>& sorted) const {
  if (sorted.size() < 2) {
    return width_;
  }
  // Day width targets the inter-event gap of the events that will pop soonest (what the
  // cursor sweeps next); far-future outliers (liveness timers) must not stretch it.
  const size_t window = std::min<size_t>(sorted.size(), 64);
  const SimTime lo = sorted.front()->time;
  SimTime hi = sorted[window - 1]->time;
  SimDuration gap = (hi - lo) / static_cast<SimDuration>(window - 1);
  if (gap == 0) {
    // Burst at one tick: fall back to the global spread so distant events still land a
    // sane number of years out.
    hi = sorted.back()->time;
    gap = (hi - lo) / static_cast<SimDuration>(sorted.size() - 1);
  }
  // ~3 events per day on average keeps the sorted bucket lists short.
  return std::clamp<SimDuration>(3 * gap, 1, Sec(1));
}

void CalendarQueue::Resize(size_t nbuckets) {
  nbuckets = std::max(kMinBuckets, nbuckets);
  std::vector<EventNode*> nodes;
  nodes.reserve(size_);
  for (const Bucket& b : buckets_) {
    for (EventNode* n = b.head; n != nullptr;) {
      EventNode* next = n->next;
      nodes.push_back(n);
      n = next;
    }
  }
  std::sort(nodes.begin(), nodes.end(), [](const EventNode* x, const EventNode* y) {
    return x->time != y->time ? x->time < y->time : x->seq < y->seq;
  });
  buckets_.assign(nbuckets, Bucket{});
  mask_ = nbuckets - 1;
  width_ = EstimateWidth(nodes);
  cur_day_ = nodes.empty() ? 0 : DayOf(nodes.front()->time);
  for (EventNode* n : nodes) {
    n->prev = nullptr;
    n->next = nullptr;
    InsertNode(n);  // Sorted order makes every insert a tail append.
  }
}

}  // namespace achilles
