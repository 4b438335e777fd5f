// Checkpoint subsystem bench (src/checkpoint): what protocol-aware checkpointing costs
// and what it buys. Three measurements:
//   1. Checkpoint tax — steady-state throughput/latency with checkpointing off vs on,
//      per protocol. The tax is the vote/assemble crypto plus the truncation fsyncs.
//   2. Retention footprint — max per-replica log bytes over time. Without compaction the
//      WAL + block store grow linearly with committed height; with stable checkpoints the
//      retained suffix stays bounded near interval * kCatchupIntervals heights.
//   3. Rejoin latency — a replica crashes, the cluster runs ahead, it reboots: time until
//      its committed prefix reaches the frontier it missed, via full block backfill
//      (checkpointing off) vs snapshot state transfer (on).
#include "src/harness/bench_report.h"
#include "src/harness/experiment.h"

namespace achilles {
namespace {

ClusterConfig BaseConfig(Protocol protocol, uint64_t seed_salt) {
  ClusterConfig config;
  config.protocol = protocol;
  config.f = 1;
  config.batch_size = 100;
  config.payload_size = 64;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(250);
  config.client_rate_tps = 2000.0;
  config.seed = 0xc4e11904 + seed_salt;
  return config;
}

double MaxGauge(obs::MetricsRegistry& m, const char* name, uint32_t n) {
  double best = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    const obs::MetricsRegistry::Labels labels{{"node", std::to_string(i)}};
    best = std::max(best, m.GetGauge(name, labels)->value());
  }
  return best;
}

void BenchTax() {
  std::printf("# Checkpoint tax — steady state, LAN, f=1, interval 32\n\n");
  TablePrinter table({"protocol", "tps off", "tps on", "tax", "p50 off (ms)", "p50 on (ms)",
                      "stable ckpts", "log MB off", "log MB on"});
  for (const Protocol protocol :
       {Protocol::kAchilles, Protocol::kDamysusR, Protocol::kFlexiBft, Protocol::kRaft,
        Protocol::kMinBft}) {
    RunStats off_stats, on_stats;
    double off_bytes = 0.0, on_bytes = 0.0;
    uint64_t stable = 0;
    for (const bool enabled : {false, true}) {
      ClusterConfig config = BaseConfig(protocol, enabled ? 1 : 0);
      config.ckpt.enabled = enabled;
      config.ckpt.interval = 32;
      Cluster cluster(config);
      const RunStats stats = cluster.RunMeasured(Ms(500), Sec(3));
      const double bytes =
          MaxGauge(cluster.metrics(), "log.bytes_retained", cluster.num_replicas());
      if (enabled) {
        on_stats = stats;
        on_bytes = bytes;
        stable = cluster.checkpoint_manager()->checkpoints_assembled();
      } else {
        off_stats = stats;
        off_bytes = bytes;
      }
      BenchReport::Instance().RecordRun(config, stats, cluster);
    }
    const double tax = off_stats.throughput_tps <= 0.0
                           ? 0.0
                           : 100.0 * (off_stats.throughput_tps - on_stats.throughput_tps) /
                                 off_stats.throughput_tps;
    table.AddRow({ProtocolName(protocol), TablePrinter::Num(off_stats.throughput_tps, 0),
                  TablePrinter::Num(on_stats.throughput_tps, 0),
                  TablePrinter::Num(tax, 1) + "%", TablePrinter::Num(off_stats.commit_p50_ms),
                  TablePrinter::Num(on_stats.commit_p50_ms), std::to_string(stable),
                  TablePrinter::Num(off_bytes / 1e6), TablePrinter::Num(on_bytes / 1e6)});
    std::fprintf(stderr, "  tax done %s\n", ProtocolName(protocol));
  }
  table.Print();
  std::printf(
      "\nThe tax column is the throughput cost of voting, assembling, and truncating; the\n"
      "log MB columns already show compaction working (on << off at equal height).\n\n");
}

void BenchFootprint() {
  std::printf("# Retention footprint — max per-replica log bytes over time (Achilles)\n\n");
  TablePrinter table({"t (ms)", "bytes off", "bytes on", "entries off", "entries on",
                      "stable seq"});
  ClusterConfig off_config = BaseConfig(Protocol::kAchilles, 2);
  ClusterConfig on_config = BaseConfig(Protocol::kAchilles, 2);
  on_config.ckpt.enabled = true;
  on_config.ckpt.interval = 16;
  Cluster off_cluster(off_config);
  Cluster on_cluster(on_config);
  off_cluster.Start();
  on_cluster.Start();
  for (int step = 1; step <= 8; ++step) {
    off_cluster.sim().RunFor(Ms(500));
    on_cluster.sim().RunFor(Ms(500));
    off_cluster.RefreshFootprintGauges();
    on_cluster.RefreshFootprintGauges();
    const uint32_t n = off_cluster.num_replicas();
    table.AddRow({std::to_string(step * 500),
                  TablePrinter::Num(MaxGauge(off_cluster.metrics(), "log.bytes_retained", n), 0),
                  TablePrinter::Num(MaxGauge(on_cluster.metrics(), "log.bytes_retained", n), 0),
                  TablePrinter::Num(MaxGauge(off_cluster.metrics(), "log.entries_retained", n), 0),
                  TablePrinter::Num(MaxGauge(on_cluster.metrics(), "log.entries_retained", n), 0),
                  TablePrinter::Num(
                      MaxGauge(on_cluster.metrics(), "ckpt.last_stable_seq", n), 0)});
  }
  table.Print();
  std::printf(
      "\nWithout compaction the retained bytes grow linearly with committed height; with\n"
      "stable checkpoints every 16 heights they plateau at the retained suffix (the floor\n"
      "slack is interval * kCatchupIntervals = 32 heights of blocks).\n\n");
  std::fprintf(stderr, "  footprint done\n");
}

void BenchRejoin() {
  std::printf("# Rejoin latency — crash at 500 ms, reboot at 2000 ms (BRaft)\n\n");
  TablePrinter table({"transfer", "frontier h", "catch-up (ms)", "cluster MB",
                      "snapshot adopts"});
  for (const bool enabled : {false, true}) {
    ClusterConfig config = BaseConfig(Protocol::kRaft, 3);
    config.ckpt.enabled = enabled;
    config.ckpt.interval = 16;
    Cluster cluster(config);
    cluster.Start();
    cluster.sim().RunFor(Ms(500));
    const uint32_t victim = cluster.num_replicas() - 1;
    cluster.CrashReplica(victim);
    cluster.sim().RunFor(Ms(1500));
    const Height target = cluster.replica(0)->last_committed_height();
    cluster.net().ResetStats();
    const SimTime reboot_at = cluster.sim().Now();
    cluster.RebootReplica(victim);
    SimTime caught_up = -1;
    for (int i = 0; i < 2000; ++i) {
      cluster.sim().RunFor(Ms(5));
      const ReplicaBase* rep = cluster.replica(victim);
      if (rep != nullptr && rep->last_committed_height() >= target) {
        caught_up = cluster.sim().Now();
        break;
      }
    }
    const uint64_t adopts =
        enabled ? cluster.checkpoint_manager()->snapshot_adopts() : 0;
    table.AddRow({enabled ? "snapshot" : "backfill", std::to_string(target),
                  caught_up < 0 ? "DID NOT CATCH UP"
                                : TablePrinter::Num(ToMs(caught_up - reboot_at)),
                  TablePrinter::Num(static_cast<double>(cluster.net().bytes_sent()) / 1e6),
                  std::to_string(adopts)});
    std::fprintf(stderr, "  rejoin done (%s)\n", enabled ? "snapshot" : "backfill");
  }
  table.Print();
  std::printf(
      "\nBackfill replays the missed suffix block by block through normal replication;\n"
      "snapshot transfer ships one certified boundary state and resumes from there, so\n"
      "catch-up time and bytes stop scaling with the length of the outage.\n");
}

int Main() {
  BenchTax();
  BenchFootprint();
  BenchRejoin();
  return 0;
}

}  // namespace
}  // namespace achilles

int main(int argc, char** argv) {
  achilles::BenchIo io("checkpoint", &argc, argv);
  return io.Finish(achilles::Main());
}
