// Simulator-core microbenchmark: raw event-queue throughput of the two engines
// (reference binary heap vs production calendar queue) on adversarial time
// distributions, plus the allocation counters that show the slab pool and raw-callback
// paths doing their job (DESIGN.md §2.21). No cluster, no protocols — this isolates the
// scheduling hot path that dominates bench_fig4_saturation's wall clock. A second table
// times the mempool on the traffic shapes a saturated replica sees.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>

#include "bench/heap_queue.h"
#include "src/consensus/mempool.h"
#include "src/harness/bench_report.h"
#include "src/harness/experiment.h"
#include "src/sim/simulation.h"

namespace achilles {
namespace {

struct Profile {
  const char* name;
  // Returns the delay for the i-th scheduled event given a random draw.
  SimDuration (*delay)(Rng& rng);
};

SimDuration UniformShort(Rng& rng) { return static_cast<SimDuration>(rng.UniformU64(Us(200))); }

SimDuration Bursty(Rng& rng) {
  // 90% of events land on one of 16 hot ticks, the rest spread wide: stresses intra-bucket
  // FIFO chains and the calendar's width estimate at once.
  if (rng.UniformU64(10) != 0) {
    return static_cast<SimDuration>(Us(50) * rng.UniformU64(16));
  }
  return static_cast<SimDuration>(rng.UniformU64(Ms(50)));
}

SimDuration FarFuture(Rng& rng) {
  // Mostly near-term traffic with a tail of far-out timers (protocol timeout shape):
  // stresses the cursor's year sweep and the direct-scan fallback.
  if (rng.UniformU64(20) == 0) {
    return Ms(100) + static_cast<SimDuration>(rng.UniformU64(Sec(2)));
  }
  return static_cast<SimDuration>(rng.UniformU64(Us(100)));
}

constexpr Profile kProfiles[] = {
    {"uniform-short", &UniformShort},
    {"bursty", &Bursty},
    {"far-future", &FarFuture},
};

struct EngineResult {
  double ops_per_sec = 0.0;
  uint64_t executed = 0;
  size_t pool_slabs = 0;
  size_t pool_capacity = 0;
  size_t peak_pending = 0;
  uint64_t boxed_events = 0;
};

// Self-scheduling raw event: each firing schedules `fanout` successors until the budget
// runs dry, with a seeded cancel mix (roughly 1 in 8 scheduled events is cancelled).
template <class Queue>
struct Driver {
  SimulationT<Queue>* sim;
  const Profile* profile;
  uint64_t remaining;
  EventId pending_cancel{};

  static void Fire(void* self, uint64_t, uint64_t) {
    auto* d = static_cast<Driver*>(self);
    if (d->remaining == 0) {
      return;
    }
    const int fanout = 1 + static_cast<int>(d->sim->rng().UniformU64(2));
    for (int i = 0; i < fanout && d->remaining > 0; ++i, --d->remaining) {
      const EventId id = d->sim->ScheduleRawAfter(d->profile->delay(d->sim->rng()),
                                                  &Driver::Fire, d);
      if (d->sim->rng().UniformU64(8) == 0) {
        // Cancel a previously remembered event and remember this one instead.
        d->sim->Cancel(d->pending_cancel);
        d->pending_cancel = id;
      }
    }
  }
};

template <class Queue>
EngineResult RunEngine(const Profile& profile, uint64_t budget, uint64_t seed) {
  SimulationT<Queue> sim(seed);
  Driver<Queue> driver{&sim, &profile, budget, kInvalidEvent};
  // Seed a handful of initial chains so the queue carries realistic parallelism.
  for (int i = 0; i < 64 && driver.remaining > 0; ++i, --driver.remaining) {
    sim.ScheduleRawAfter(profile.delay(sim.rng()), &Driver<Queue>::Fire, &driver);
  }
  const auto start = std::chrono::steady_clock::now();
  sim.RunUntilIdle();
  const auto stop = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(stop - start).count();

  EngineResult r;
  r.executed = sim.executed_events();
  r.ops_per_sec = secs > 0.0 ? static_cast<double>(r.executed) / secs : 0.0;
  r.pool_slabs = sim.pool().slabs();
  r.pool_capacity = sim.pool().capacity();
  r.peak_pending = sim.peak_pending_events();
  r.boxed_events = sim.boxed_events();
  return r;
}

struct MempoolShape {
  const char* name;
  uint32_t clients;         // In-order clients; their chunks arrive round-robin.
  uint32_t spam_per_chunk;  // Random-id txs (a Byzantine spammer's) after each chunk.
};

constexpr MempoolShape kMempoolShapes[] = {
    {"1 in-order client", 1, 0},
    {"8 interleaved clients", 8, 0},
    {"in-order + spammer spill", 1, 4},
};

struct MempoolResult {
  double add_ns_per_tx = 0.0;
  double take_ns_per_tx = 0.0;
  double commit_ns_per_tx = 0.0;
  size_t ids_tracked = 0;
};

// One replica's mempool under saturating clients: 200-tx chunks arrive, and every 400
// queued txs a block commits them in FIFO order. One block in four is this replica's own
// (TakeBatch, as under leader rotation); the rest were cut by other leaders, so commit
// evicts them from the queue front.
MempoolResult RunMempool(const MempoolShape& shape, uint64_t budget) {
  using Clock = std::chrono::steady_clock;
  constexpr uint32_t kChunk = 200;
  constexpr size_t kBlock = 400;
  Mempool pool;
  Rng rng(42);
  std::vector<uint32_t> next_seq(shape.clients, 0);
  std::deque<Transaction> fifo;  // The uncommitted txs, in queue order.
  Clock::duration add{};
  Clock::duration take{};
  Clock::duration commit{};
  uint64_t added = 0;
  uint64_t taken = 0;
  uint64_t committed = 0;
  const auto timed = [](Clock::duration* total, auto&& fn) {
    const auto start = Clock::now();
    fn();
    *total += Clock::now() - start;
  };
  for (uint64_t chunk = 0, blocks = 0; added < budget; ++chunk) {
    const uint32_t client = static_cast<uint32_t>(chunk % shape.clients);
    std::vector<Transaction> txs;
    for (uint32_t i = 0; i < kChunk; ++i) {
      txs.push_back(Transaction{Transaction::MakeId(client + 1, next_seq[client]++), 0, 256});
    }
    for (uint32_t i = 0; i < shape.spam_per_chunk; ++i) {
      txs.push_back(Transaction{rng.NextU64(), 0, 256});
    }
    timed(&add, [&] { pool.AddBatch(txs); });
    added += txs.size();
    fifo.insert(fifo.end(), txs.begin(), txs.end());
    while (fifo.size() >= kBlock) {
      std::vector<Transaction> block(fifo.begin(), fifo.begin() + kBlock);
      fifo.erase(fifo.begin(), fifo.begin() + kBlock);
      if (blocks++ % 4 == 0) {
        timed(&take, [&] { block = pool.TakeBatch(kBlock); });
        taken += block.size();
      }
      timed(&commit, [&] { pool.MarkCommitted(block); });
      committed += block.size();
    }
  }
  const auto per_tx = [](Clock::duration d, uint64_t n) {
    return n == 0 ? 0.0 : std::chrono::duration<double, std::nano>(d).count() / n;
  };
  return {per_tx(add, added), per_tx(take, taken), per_tx(commit, committed),
          pool.ids_tracked()};
}

int Main() {
  const uint64_t budget =
      static_cast<uint64_t>(2'000'000 * BenchScale()) < 100'000
          ? 100'000
          : static_cast<uint64_t>(2'000'000 * BenchScale());
  std::printf("# Simulator core — event-queue engines head-to-head (%llu events/profile)\n\n",
              static_cast<unsigned long long>(budget));
  TablePrinter table({"profile", "engine", "events/sec", "peak pending", "pool slabs",
                      "pool capacity", "boxed events"});
  for (const Profile& profile : kProfiles) {
    for (int e = 0; e < 2; ++e) {
      const bool calendar = e == 1;
      EngineResult r = calendar ? RunEngine<CalendarQueue>(profile, budget, 42)
                                : RunEngine<HeapQueue>(profile, budget, 42);
      table.AddRow({profile.name, calendar ? "calendar" : "heap",
                    TablePrinter::Num(r.ops_per_sec / 1e6, 3) + "M",
                    std::to_string(r.peak_pending), std::to_string(r.pool_slabs),
                    std::to_string(r.pool_capacity), std::to_string(r.boxed_events)});
      std::fprintf(stderr, "  done %s/%s\n", profile.name, calendar ? "calendar" : "heap");
    }
  }
  table.Print();
  std::printf("\nSteady-state protocol traffic schedules through the raw path: boxed\n");
  std::printf("events stay at zero and the pool's slab count bounds total allocation.\n");

  const uint64_t tx_budget = std::max<uint64_t>(
      200'000, static_cast<uint64_t>(4'000'000 * BenchScale()));
  std::printf("\n# Mempool — one replica's traffic shapes (%llu txs/shape, ns per tx)\n\n",
              static_cast<unsigned long long>(tx_budget));
  TablePrinter mempool_table(
      {"shape", "AddBatch ns/tx", "TakeBatch ns/tx", "MarkCommitted ns/tx", "ids tracked"});
  for (const MempoolShape& shape : kMempoolShapes) {
    const MempoolResult r = RunMempool(shape, tx_budget);
    mempool_table.AddRow({shape.name, TablePrinter::Num(r.add_ns_per_tx, 2),
                          TablePrinter::Num(r.take_ns_per_tx, 2),
                          TablePrinter::Num(r.commit_ns_per_tx, 2),
                          std::to_string(r.ids_tracked)});
  }
  mempool_table.Print();
  return 0;
}

}  // namespace
}  // namespace achilles

int main(int argc, char** argv) {
  achilles::BenchIo io("sim_core", &argc, argv);
  return io.Finish(achilles::Main());
}
