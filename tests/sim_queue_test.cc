// Differential determinism suite for the event-queue engines (DESIGN.md §2.21).
//
// The CalendarQueue is the production engine; the HeapQueue is the simple, obviously
// correct reference. Every test here drives both engines through an identical operation
// script and requires identical observable behaviour: pop order (time, then FIFO seq),
// Step/RunUntil results, pending/peak accounting, and cancel semantics — including
// cancelling handles whose events already fired, which must be a safe no-op.
//
// The fuzz loop runs >= 50 seeds x >= 10,000 operations each, cycling adversarial time
// distributions (uniform short delays, heavy same-tick ties, far-future tails, and a mix)
// that stress the calendar's bucket adaptation, intra-bucket FIFO chains, and the
// fruitless-year direct-scan fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bench/heap_queue.h"
#include "src/common/rng.h"
#include "src/sim/simulation.h"

namespace achilles {
namespace {

using Firing = std::pair<SimTime, uint64_t>;  // (virtual time, schedule tag)

template <class Queue>
struct Probe {
  SimulationT<Queue>* sim;
  std::vector<Firing> fired;

  static void Fire(void* self, uint64_t tag, uint64_t) {
    auto* p = static_cast<Probe*>(self);
    p->fired.emplace_back(p->sim->Now(), tag);
  }
};

// Adversarial delay distributions, selected per seed.
SimDuration DrawDelay(Rng& rng, int mode) {
  switch (mode) {
    case 0:  // Uniform short: the steady-state protocol shape.
      return static_cast<SimDuration>(rng.UniformU64(static_cast<uint64_t>(Us(500))));
    case 1:  // Heavy ties: a handful of hot ticks exercises FIFO chains within a bucket.
      return static_cast<SimDuration>(Us(25) * static_cast<SimDuration>(rng.UniformU64(4)));
    case 2:  // Far-future tail: timeouts a year of buckets away force the direct scan.
      if (rng.UniformU64(20) == 0) {
        return Sec(1) + static_cast<SimDuration>(rng.UniformU64(static_cast<uint64_t>(Sec(5))));
      }
      return static_cast<SimDuration>(rng.UniformU64(static_cast<uint64_t>(Us(50))));
    default:  // Mixed: re-roll the mode per event.
      return DrawDelay(rng, static_cast<int>(rng.UniformU64(3)));
  }
}

// Applies one identical op script to both engines and checks lockstep equivalence.
void DifferentialFuzz(uint64_t seed, size_t num_ops) {
  SimulationT<HeapQueue> heap(seed);
  SimulationT<CalendarQueue> cal(seed);
  Probe<HeapQueue> hp{&heap, {}};
  Probe<CalendarQueue> cp{&cal, {}};
  Rng script(seed * 0x9e3779b97f4a7c15ULL + 1);
  // Handles are never dropped: late cancels deliberately hit fired/recycled events.
  std::vector<EventId> heap_ids, cal_ids;
  uint64_t tag = 0;
  const int mode = static_cast<int>(seed % 4);

  for (size_t op = 0; op < num_ops; ++op) {
    const uint64_t roll = script.UniformU64(100);
    if (roll < 50) {
      const SimDuration d = DrawDelay(script, mode);
      heap_ids.push_back(heap.ScheduleRawAfter(d, &Probe<HeapQueue>::Fire, &hp, tag));
      cal_ids.push_back(cal.ScheduleRawAfter(d, &Probe<CalendarQueue>::Fire, &cp, tag));
      ++tag;
    } else if (roll < 58) {
      // Boxed fallback events must interleave with raw ones identically.
      const SimDuration d = DrawDelay(script, mode);
      const uint64_t t = tag++;
      heap_ids.push_back(
          heap.ScheduleAfter(d, [&hp, t] { hp.fired.emplace_back(hp.sim->Now(), t); }));
      cal_ids.push_back(
          cal.ScheduleAfter(d, [&cp, t] { cp.fired.emplace_back(cp.sim->Now(), t); }));
    } else if (roll < 68 && !heap_ids.empty()) {
      // Cancel a uniformly random handle — pending, fired, or already cancelled alike.
      const size_t pick = script.UniformU64(heap_ids.size());
      heap.Cancel(heap_ids[pick]);
      cal.Cancel(cal_ids[pick]);
    } else if (roll < 90) {
      ASSERT_EQ(heap.Step(), cal.Step());
    } else {
      ASSERT_EQ(heap.Now(), cal.Now());
      const SimTime t = heap.Now() + DrawDelay(script, mode);
      heap.RunUntil(t);
      cal.RunUntil(t);
      ASSERT_EQ(heap.Now(), t);
      ASSERT_EQ(cal.Now(), t);
    }
    ASSERT_EQ(heap.Now(), cal.Now()) << "seed " << seed << " op " << op;
    ASSERT_EQ(heap.pending_events(), cal.pending_events()) << "seed " << seed << " op " << op;
    ASSERT_EQ(heap.executed_events(), cal.executed_events());
  }

  heap.RunUntilIdle();
  cal.RunUntilIdle();
  ASSERT_EQ(hp.fired.size(), cp.fired.size()) << "seed " << seed;
  ASSERT_EQ(hp.fired, cp.fired) << "seed " << seed;
  ASSERT_EQ(heap.executed_events(), cal.executed_events());
  ASSERT_EQ(heap.peak_pending_events(), cal.peak_pending_events()) << "seed " << seed;
  ASSERT_EQ(heap.pending_events(), 0u);
  ASSERT_EQ(cal.pending_events(), 0u);
  // Firing times are non-decreasing; equal-time runs pop in schedule (tag) order because
  // this script never schedules two events at the same (time, tag) out of tag order.
  for (size_t i = 1; i < hp.fired.size(); ++i) {
    ASSERT_LE(hp.fired[i - 1].first, hp.fired[i].first) << "seed " << seed;
  }
}

TEST(SimQueueDifferentialTest, FuzzManySeedsManyOps) {
  // 56 seeds x 12,000 ops — covers all four distribution modes 14 times over.
  for (uint64_t seed = 1; seed <= 56; ++seed) {
    DifferentialFuzz(seed, 12'000);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Equal-time events pop strictly FIFO (by schedule seq) on both engines, even when a
// burst lands on one tick interleaved with earlier/later stragglers.
template <class Queue>
std::vector<uint64_t> TieBreakOrder() {
  SimulationT<Queue> sim(7);
  Probe<Queue> probe{&sim, {}};
  const SimTime burst = Us(100);
  for (uint64_t i = 0; i < 256; ++i) {
    sim.ScheduleRawAt(burst, &Probe<Queue>::Fire, &probe, i);
    if (i % 16 == 0) {  // Stragglers around the burst must not disturb the FIFO chain.
      sim.ScheduleRawAt(burst - Us(1), &Probe<Queue>::Fire, &probe, 10'000 + i);
      sim.ScheduleRawAt(burst + Us(1), &Probe<Queue>::Fire, &probe, 20'000 + i);
    }
  }
  sim.RunUntilIdle();
  std::vector<uint64_t> tags;
  for (const Firing& f : probe.fired) {
    tags.push_back(f.second);
  }
  return tags;
}

TEST(SimQueueDifferentialTest, EqualTimePopsAreFifoOnBothEngines) {
  const std::vector<uint64_t> heap_tags = TieBreakOrder<HeapQueue>();
  const std::vector<uint64_t> cal_tags = TieBreakOrder<CalendarQueue>();
  ASSERT_EQ(heap_tags, cal_tags);
  // Within the burst tick, tags must appear in exact schedule order.
  uint64_t expect = 0;
  for (const uint64_t tag : heap_tags) {
    if (tag < 10'000) {
      EXPECT_EQ(tag, expect);
      ++expect;
    }
  }
  EXPECT_EQ(expect, 256u);
}

template <class Queue>
void CancelOfFiredIsNoOp() {
  SimulationT<Queue> sim(3);
  Probe<Queue> probe{&sim, {}};
  const EventId first = sim.ScheduleRawAfter(Us(1), &Probe<Queue>::Fire, &probe, 1);
  sim.ScheduleRawAfter(Us(2), &Probe<Queue>::Fire, &probe, 2);
  ASSERT_TRUE(sim.Step());  // Fires tag 1; its node returns to the pool.
  const size_t pending_before = sim.pending_events();
  sim.Cancel(first);           // Already fired: generation check rejects the handle.
  sim.Cancel(kInvalidEvent);   // Never scheduled: equally a no-op.
  EXPECT_EQ(sim.pending_events(), pending_before);
  // The node slot may be recycled by a new event; the stale handle must not kill it.
  const EventId recycled = sim.ScheduleRawAfter(Us(3), &Probe<Queue>::Fire, &probe, 3);
  sim.Cancel(first);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunUntilIdle();
  ASSERT_EQ(probe.fired.size(), 3u);
  EXPECT_EQ(probe.fired[1].second, 2u);
  EXPECT_EQ(probe.fired[2].second, 3u);
  sim.Cancel(recycled);  // Cancel after idle: everything fired, still a no-op.
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimQueueDifferentialTest, CancelOfFiredEventIsNoOpHeap) {
  CancelOfFiredIsNoOp<HeapQueue>();
}

TEST(SimQueueDifferentialTest, CancelOfFiredEventIsNoOpCalendar) {
  CancelOfFiredIsNoOp<CalendarQueue>();
}

template <class Queue>
void RunUntilBoundary() {
  SimulationT<Queue> sim(11);
  Probe<Queue> probe{&sim, {}};
  sim.ScheduleRawAt(Us(10), &Probe<Queue>::Fire, &probe, 1);
  sim.ScheduleRawAt(Us(20), &Probe<Queue>::Fire, &probe, 2);  // Exactly at the boundary.
  sim.ScheduleRawAt(Us(20) + 1, &Probe<Queue>::Fire, &probe, 3);
  sim.RunUntil(Us(20));
  // Events at t <= boundary fire; the clock parks exactly at the boundary.
  ASSERT_EQ(probe.fired.size(), 2u);
  EXPECT_EQ(probe.fired[1].second, 2u);
  EXPECT_EQ(sim.Now(), Us(20));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  ASSERT_EQ(probe.fired.size(), 3u);
  EXPECT_EQ(sim.Now(), Us(20) + 1);
}

TEST(SimQueueDifferentialTest, RunUntilBoundaryIsInclusiveHeap) {
  RunUntilBoundary<HeapQueue>();
}

TEST(SimQueueDifferentialTest, RunUntilBoundaryIsInclusiveCalendar) {
  RunUntilBoundary<CalendarQueue>();
}

template <class Queue>
void PendingAndPeakAccounting() {
  SimulationT<Queue> sim(5);
  Probe<Queue> probe{&sim, {}};
  std::vector<EventId> ids;
  for (uint64_t i = 0; i < 100; ++i) {
    ids.push_back(sim.ScheduleRawAfter(Us(1) + static_cast<SimDuration>(i),
                                       &Probe<Queue>::Fire, &probe, i));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  EXPECT_EQ(sim.peak_pending_events(), 100u);
  for (size_t i = 0; i < 40; ++i) {  // Cancels shrink pending but never the peak.
    sim.Cancel(ids[i * 2]);
  }
  EXPECT_EQ(sim.pending_events(), 60u);
  EXPECT_EQ(sim.peak_pending_events(), 100u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 60u);
  EXPECT_EQ(probe.fired.size(), 60u);
  EXPECT_EQ(sim.peak_pending_events(), 100u);
  // The slab pool reports no live nodes once everything fired or was reclaimed. (The heap
  // engine reclaims cancelled nodes lazily, but RunUntilIdle drains the whole heap.)
  EXPECT_EQ(sim.pool().live(), 0u);
  EXPECT_GE(sim.pool().high_water(), 100u);
}

TEST(SimQueueDifferentialTest, PendingAndPeakAccountingHeap) {
  PendingAndPeakAccounting<HeapQueue>();
}

TEST(SimQueueDifferentialTest, PendingAndPeakAccountingCalendar) {
  PendingAndPeakAccounting<CalendarQueue>();
}

}  // namespace
}  // namespace achilles
