#include "src/harness/cluster.h"

#include <chrono>

#include "src/achilles/replica.h"
#include "src/common/check.h"
#include "src/damysus/replica.h"
#include "src/hotstuff/replica.h"
#include "src/minbft/replica.h"
#include "src/flexibft/replica.h"
#include "src/oneshot/replica.h"
#include "src/raft/replica.h"

namespace achilles {

namespace {

template <typename R>
std::unique_ptr<ReplicaBase> Make(const ReplicaContext& ctx, bool initial_launch) {
  return std::make_unique<R>(ctx, initial_launch);
}

}  // namespace

// clang-format off
const ProtocolTraits kProtocolTraits[kNumProtocols] = {
    // name        3f+1   replica class           in TEE counter seam   disk   rb-safe Alg.3  CFT
    {"Achilles",   false, Make<AchillesReplica>,  true,  false, true,  false, true,  true,  false},
    {"Achilles-C", false, Make<AchillesReplica>,  false, false, true,  false, true,  true,  false},
    {"Damysus",    false, Make<DamysusReplica>,   true,  false, true,  false, false, false, false},
    {"Damysus-R",  false, Make<DamysusReplica>,   true,  true,  true,  false, true,  false, false},
    {"OneShot",    false, Make<OneShotReplica>,   true,  false, true,  false, false, false, false},
    {"OneShot-R",  false, Make<OneShotReplica>,   true,  true,  true,  false, true,  false, false},
    {"FlexiBFT",   true,  Make<FlexiBftReplica>,  true,  true,  false, true,  false, false, false},
    {"BRaft",      false, Make<RaftReplica>,      false, false, false, true,  false, false, true},
    {"MinBFT",     false, Make<MinBftReplica>,    true,  true,  false, true,  false, false, false},
    {"HotStuff",   true,  Make<HotStuffReplica>,  false, false, false, true,  false, false, false},
};
// clang-format on

bool ProtocolFromName(std::string_view name, Protocol* out) {
  for (int i = 0; i < kNumProtocols; ++i) {
    if (name == kProtocolTraits[i].name) {
      *out = static_cast<Protocol>(i);
      return true;
    }
  }
  return false;
}

uint32_t ReplicasFor(Protocol protocol, uint32_t f) {
  return Traits(protocol).three_f ? 3 * f + 1 : 2 * f + 1;
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      n_(ReplicasFor(config.protocol, config.f)),
      recorder_(config.tracing, config.trace_capacity, config.journaling, config.critpath),
      sim_(config.seed),
      net_(&sim_, config.net),
      suite_(config.scheme, n_, config.seed ^ 0x5eedc0deULL),
      tracker_(n_) {
  const ProtocolTraits& traits = Traits(config_.protocol);
  // A quorum defense replaces the counter on the defense seam (the -R variants keep halting
  // on a detected rollback, via the backend).
  const bool defended =
      config_.defense != persist::DefenseKind::kLocal && traits.defense_seam;
  TeeConfig tee;
  tee.components_in_tee = traits.components_in_tee;
  tee.counter = traits.counter && !defended ? config_.counter : CounterSpec::None();

  // Hooks only see a recorder with a sink on; unobserved runs skip recording entirely.
  obs::Recorder* recorder = recorder_.active() ? &recorder_ : nullptr;
  tracker_.SetBreakdown(&breakdown_);
  tracker_.set_recorder(recorder);
  net_.AttachMetrics(&metrics_);

  if (defended) {
    persist::DefenseCosts defense_costs;
    defense_costs.one_way = config_.net.one_way_base;
    defense_costs.replica_write = config_.costs.defense_replica_write;
    defense_costs.replica_read = config_.costs.defense_replica_read;
    defense_costs.cert_op = config_.costs.defense_cert_op;
    defense_service_ = std::make_unique<persist::DefenseService>(n_, defense_costs);
  }
  for (uint32_t i = 0; i < n_; ++i) {
    hosts_.push_back(std::make_unique<Host>(&sim_, i));
    net_.AddHost(hosts_.back().get());
    platforms_.push_back(std::make_unique<NodePlatform>(hosts_.back().get(), &suite_,
                                                        config_.costs, tee, config_.seed));
    if (defended) {
      platforms_.back()->ConfigureDefense(config_.defense, defense_service_.get());
    }
  }
  replica_ptrs_.assign(n_, nullptr);
  byzantine_.assign(n_, ByzantineMode::kNone);
  if (config_.with_client) {
    hosts_.push_back(std::make_unique<Host>(&sim_, n_));
    net_.AddHost(hosts_.back().get());
  }
  if (config_.app_kv) {
    hosts_.push_back(std::make_unique<Host>(&sim_, kv_client_host_id()));
    net_.AddHost(hosts_.back().get());
    std::vector<Host*> replica_hosts;
    for (uint32_t i = 0; i < n_; ++i) {
      replica_hosts.push_back(hosts_[i].get());
    }
    kv_service_ = std::make_unique<app::KvService>(std::move(replica_hosts), &net_,
                                                   &tracker_, kv_client_host_id(),
                                                   config_.broken, &metrics_);
    tracker_.AddCommitListener([this](NodeId replica, const BlockPtr& block, SimTime now) {
      kv_service_->OnCommit(replica, block, now);
    });
    tracker_.AddProposeListener([this](NodeId proposer, const BlockPtr& block) {
      kv_service_->OnProposal(proposer, block);
    });
  }
  if (config_.ckpt.enabled) {
    std::vector<NodePlatform*> replica_platforms;
    for (uint32_t i = 0; i < n_; ++i) {
      replica_platforms.push_back(platforms_[i].get());
    }
    ckpt_manager_ = std::make_unique<checkpoint::CheckpointManager>(
        std::move(replica_platforms), &net_, &suite_, config_.costs, config_.ckpt,
        config_.broken, CheckpointQuorum(), &metrics_);
    ckpt_manager_->AttachReplicas(&replica_ptrs_);
    if (kv_service_ != nullptr) {
      ckpt_manager_->AttachKv(kv_service_.get());
      ckpt_manager_->SetNextSink(kv_service_.get());
    }
    // Registered after the KvService listener: boundary snapshots must see current mirrors.
    tracker_.AddCommitListener([this](NodeId replica, const BlockPtr& block, SimTime now) {
      ckpt_manager_->OnCommit(replica, block, now);
    });
  }
  for (auto& host : hosts_) {
    host->set_recorder(recorder);
    host->AttachMetrics(&metrics_);
  }
}

Cluster::~Cluster() = default;

ReplicaContext Cluster::ContextFor(uint32_t id) {
  ReplicaContext ctx;
  ctx.platform = platforms_[id].get();
  ctx.net = &net_;
  ctx.tracker = &tracker_;
  ctx.params.n = n_;
  ctx.params.f = config_.f;
  ctx.params.batch_size = config_.batch_size;
  ctx.params.base_timeout = config_.base_timeout;
  ctx.params.commit_fast_path = config_.commit_fast_path;
  ctx.params.broken = config_.broken;
  ctx.ckpt = config_.ckpt;
  // Checkpoint traffic is consumed first; everything else chains to the KvService.
  ctx.app = ckpt_manager_ != nullptr ? static_cast<AppMessageSink*>(ckpt_manager_.get())
                                     : static_cast<AppMessageSink*>(kv_service_.get());
  if (config_.with_client) {
    ctx.client_ids = {n_};
  }
  return ctx;
}

std::unique_ptr<ReplicaBase> Cluster::MakeReplica(uint32_t id, bool initial_launch) {
  return Traits(config_.protocol).make(ContextFor(id), initial_launch);
}

void Cluster::SetByzantine(uint32_t id, ByzantineMode mode) {
  ACHILLES_CHECK(!started_ && id < n_);
  byzantine_[id] = mode;
  if (mode != ByzantineMode::kNone) {
    tracker_.MarkByzantine(id);
  }
}

void Cluster::Start() {
  ACHILLES_CHECK(!started_);
  started_ = true;
  for (uint32_t i = 0; i < n_; ++i) {
    auto replica = MakeReplica(i, /*initial_launch=*/true);
    replica_ptrs_[i] = replica.get();
    if (byzantine_[i] != ByzantineMode::kNone) {
      hosts_[i]->BindProcess(std::make_unique<ByzantineShim>(
          std::move(replica), byzantine_[i], hosts_[i].get(), &net_, n_,
          config_.seed ^ (0xb00b5ULL + i)));
    } else {
      hosts_[i]->BindProcess(std::move(replica));
    }
  }
  if (config_.with_client) {
    ClientConfig cc;
    cc.payload_size = config_.payload_size;
    cc.rate_tps = config_.client_rate_tps;
    cc.chunk = std::max<size_t>(1, config_.batch_size / 2);
    cc.max_outstanding = 10 * config_.batch_size;
    cc.num_replicas = n_;
    hosts_[n_]->BindProcess(
        std::make_unique<ClientProcess>(hosts_[n_].get(), &net_, &tracker_, cc));
  }
  if (config_.app_kv) {
    Host* kv_host = hosts_[config_.with_client ? n_ + 1 : n_].get();
    auto kv_client = std::make_unique<KvClientProcess>(kv_host, &net_, n_, config_.f,
                                                       config_.kv_client, &metrics_);
    kv_client_ = kv_client.get();
    kv_host->BindProcess(std::move(kv_client));
  }
}

void Cluster::CrashReplica(uint32_t id) {
  ACHILLES_CHECK(id < n_);
  replica_ptrs_[id] = nullptr;
  hosts_[id]->Crash();
  if (kv_service_ != nullptr) {
    kv_service_->OnReplicaCrash(id);
  }
  if (ckpt_manager_ != nullptr) {
    ckpt_manager_->OnReplicaCrash(id);
  }
}

SimDuration Cluster::ReplicaInitDelay() const {
  const TeeConfig& tee = platforms_[0]->tee();
  return tee.enclave_boot + static_cast<SimDuration>(n_ - 1) * tee.connect_per_peer;
}

void Cluster::RebootReplica(uint32_t id) {
  ACHILLES_CHECK(id < n_);
  auto replica = MakeReplica(id, /*initial_launch=*/false);
  replica_ptrs_[id] = replica.get();
  hosts_[id]->Reboot(std::move(replica), ReplicaInitDelay());
  if (kv_service_ != nullptr) {
    // Boot silence starts at the moment the fresh incarnation binds.
    kv_service_->OnReplicaReboot(id, sim_.Now() + ReplicaInitDelay());
  }
  if (ckpt_manager_ != nullptr) {
    ckpt_manager_->OnReplicaReboot(id);
  }
}

RunStats Cluster::RunMeasured(SimDuration warmup, SimDuration measure) {
  if (!started_) {
    Start();
  }
  sim_.RunFor(warmup);
  tracker_.StartMeasurement(sim_.Now());
  net_.ResetStats();
  const uint64_t counter_before = TotalCounterWrites();
  const uint64_t blocks_before = tracker_.total_committed_blocks();
  const uint64_t events_before = sim_.executed_events();
  const auto wall_start = std::chrono::steady_clock::now();
  sim_.RunFor(measure);
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  tracker_.EndMeasurement(sim_.Now());

  // Simulator self-profiling: how hard the event loop worked for this measured window.
  // Gauges (not part of RunStats) so every bench's --json-out picks them up for free.
  const uint64_t events = sim_.executed_events() - events_before;
  metrics_.GetGauge("sim.events_processed")->Set(static_cast<double>(events));
  // Always materialize the rate gauges (zero when the clock was too coarse to observe
  // any wall time), so every JSON export — smoke runs included — carries the same keys.
  const double safe_wall = wall_sec > 0.0 ? wall_sec : 0.0;
  metrics_.GetGauge("sim.events_per_wall_sec")
      ->Set(safe_wall > 0.0 ? static_cast<double>(events) / safe_wall : 0.0);
  metrics_.GetGauge("sim.wall_ms_per_virtual_sec")
      ->Set(measure > 0 ? safe_wall * 1e3 / (static_cast<double>(measure) / kSecond) : 0.0);
  metrics_.GetGauge("sim.peak_pending_events")
      ->Set(static_cast<double>(sim_.peak_pending_events()));
  RefreshFootprintGauges();

  // Observability truncation gauges: how much the span ring and flight recorder dropped.
  // Always exported (zero when the sink is off) so trend guards can watch them.
  const obs::SpanTracer* tracer = recorder_.tracer();
  const obs::Journal* journal = recorder_.journal();
  metrics_.GetGauge("trace.dropped_spans")->Set(tracer ? tracer->dropped() : 0);
  metrics_.GetGauge("journal.events_recorded")->Set(journal ? journal->recorded() : 0);
  metrics_.GetGauge("journal.events_evicted")->Set(journal ? journal->evicted() : 0);

  RunStats stats;
  stats.throughput_tps = tracker_.ThroughputTps();
  stats.commit_latency_ms = tracker_.commit_latency().MeanMs();
  stats.commit_p50_ms = tracker_.commit_latency().PercentileMs(50);
  stats.commit_p99_ms = tracker_.commit_latency().PercentileMs(99);
  stats.e2e_latency_ms = tracker_.e2e_latency().MeanMs();
  stats.e2e_p99_ms = tracker_.e2e_latency().PercentileMs(99);
  stats.committed_blocks = tracker_.total_committed_blocks() - blocks_before;
  stats.committed_txs =
      static_cast<uint64_t>(stats.throughput_tps * (static_cast<double>(measure) / kSecond));
  stats.messages = net_.messages_sent();
  stats.bytes = net_.bytes_sent();
  stats.counter_writes = TotalCounterWrites() - counter_before;
  stats.safety_ok = !tracker_.safety_violated();
  stats.breakdown = breakdown_.MeanPerTx();
  if (const obs::CritPathCollector* critpath = recorder_.critpath()) {
    stats.critpath = critpath->Summarize();
    metrics_.GetGauge("critpath.activities")
        ->Set(static_cast<double>(critpath->activities()));
    metrics_.GetGauge("critpath.dropped_activities")
        ->Set(static_cast<double>(critpath->dropped_activities()));
    metrics_.GetGauge("critpath.dropped_segments")
        ->Set(static_cast<double>(critpath->dropped_segments()));
  }
  return stats;
}

void Cluster::RefreshFootprintGauges() {
  for (uint32_t i = 0; i < n_; ++i) {
    const obs::MetricsRegistry::Labels labels{{"node", std::to_string(i)}};
    const storage::HostStableStorage& disk = platforms_[i]->host_storage();
    uint64_t entries = disk.TotalWalRecords();
    uint64_t bytes = disk.TotalWalBytes();
    size_t pending = 0;  // A crashed replica's mempool is gone with it.
    size_t ids_tracked = 0;
    if (const ReplicaBase* rep = replica_ptrs_[i]) {
      entries += rep->store().size();
      bytes += rep->store().ApproxBytes();
      pending = rep->mempool().pending();
      ids_tracked = rep->mempool().ids_tracked();
    }
    metrics_.GetGauge("log.entries_retained", labels)->Set(static_cast<double>(entries));
    metrics_.GetGauge("log.bytes_retained", labels)->Set(static_cast<double>(bytes));
    metrics_.GetGauge("mempool.pending", labels)->Set(static_cast<double>(pending));
    metrics_.GetGauge("mempool.ids_tracked", labels)->Set(static_cast<double>(ids_tracked));
    if (ckpt_manager_ != nullptr) {
      metrics_.GetGauge("ckpt.last_stable_seq", labels)
          ->Set(static_cast<double>(ckpt_manager_->last_stable(i)));
    }
  }
}

uint64_t Cluster::TotalCounterWrites() const {
  uint64_t total = 0;
  for (const auto& platform : platforms_) {
    total += platform->counter().writes();
  }
  return total;
}

}  // namespace achilles
