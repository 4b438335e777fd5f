#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/consensus/metrics.h"
#include "src/harness/cluster.h"
#include "src/obs/breakdown.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"
#include "tools/json_reader.h"

namespace achilles {
namespace {

// --- Histogram buckets ---

TEST(HistogramTest, BucketBoundaries) {
  using obs::Histogram;
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-5), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  // Bucket i >= 1 holds [2^(i-1), 2^i): both edges must land in the right bucket.
  for (size_t i = 1; i < 62; ++i) {
    const int64_t lower = Histogram::BucketLowerBound(i);
    const int64_t upper = Histogram::BucketUpperBound(i);
    EXPECT_EQ(lower, int64_t{1} << (i - 1));
    EXPECT_EQ(upper, int64_t{1} << i);
    EXPECT_EQ(Histogram::BucketIndex(lower), i) << "lower edge of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(upper - 1), i) << "last value of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(upper), i + 1) << "upper edge belongs to next bucket";
  }
}

TEST(HistogramTest, RecordAndAggregates) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  for (int64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_EQ(h.bucket_count(1), 1u);  // {1}
  EXPECT_EQ(h.bucket_count(2), 2u);  // {2,3}
  EXPECT_EQ(h.bucket_count(7), 37u);  // {64..100}, bucket [64, 128)
}

TEST(HistogramTest, PercentileEndpointsAndMonotonicity) {
  obs::Histogram h;
  EXPECT_EQ(h.Percentile(50), 0.0);  // Empty.
  for (int64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(-10), 1.0);   // Clamped.
  EXPECT_DOUBLE_EQ(h.Percentile(200), 1000.0);
  double prev = 0.0;
  for (double p = 0; p <= 100; p += 5) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 1000.0);
    prev = v;
  }
  // Log-bucket interpolation is approximate but must stay within one bucket width.
  EXPECT_NEAR(h.Percentile(50), 500.0, 256.0);
}

TEST(HistogramTest, PercentileBucketBoundaryEdgeCases) {
  // Single sample: every quantile is that sample, exactly — no bucket-edge bias.
  {
    obs::Histogram h;
    h.Record(100);
    EXPECT_DOUBLE_EQ(h.Percentile(0), 100.0);
    EXPECT_DOUBLE_EQ(h.Percentile(50), 100.0);
    EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
  }
  // Two samples in different buckets: p0/p100 are the extremes; p50 must not jump past
  // either extreme even though the rank falls between buckets.
  {
    obs::Histogram h;
    h.Record(10);
    h.Record(1000);
    EXPECT_DOUBLE_EQ(h.Percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
    const double p50 = h.Percentile(50);
    EXPECT_GE(p50, 10.0);
    EXPECT_LE(p50, 1000.0);
  }
  // All samples identical at a power of two (a bucket's lower edge): interpolation must
  // report the value itself, not stretch across the [2^k, 2^(k+1)) range.
  {
    obs::Histogram h;
    for (int i = 0; i < 100; ++i) {
      h.Record(64);
    }
    for (double p : {0.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
      EXPECT_DOUBLE_EQ(h.Percentile(p), 64.0) << "p" << p;
    }
  }
  // Samples at the last representable value of a bucket (2^k - 1): clamping to the
  // observed extremes keeps every quantile at the value.
  {
    obs::Histogram h;
    for (int i = 0; i < 10; ++i) {
      h.Record(127);
    }
    EXPECT_DOUBLE_EQ(h.Percentile(50), 127.0);
    EXPECT_DOUBLE_EQ(h.Percentile(99), 127.0);
  }
  // A lone sample in an interior bucket between crowds: its quantile lands inside that
  // bucket's observed range, never at a neighbouring bucket edge.
  {
    obs::Histogram h;
    for (int i = 0; i < 4; ++i) {
      h.Record(2);
    }
    h.Record(40);  // Alone in bucket [32, 64).
    for (int i = 0; i < 4; ++i) {
      h.Record(1000);
    }
    const double p50 = h.Percentile(50);  // Rank 4 = the lone middle sample.
    EXPECT_GE(p50, 32.0);
    EXPECT_LT(p50, 64.0);
  }
  // Zeros are representable (bucket 0 is [0, 1)): all-zero population reports 0.
  {
    obs::Histogram h;
    h.Record(0);
    h.Record(0);
    EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.Percentile(100), 0.0);
  }
}

// --- Metrics registry ---

TEST(MetricsRegistryTest, KeysAreCanonical) {
  using Labels = obs::MetricsRegistry::Labels;
  EXPECT_EQ(obs::MetricsRegistry::Key("m", {}), "m");
  EXPECT_EQ(obs::MetricsRegistry::Key("m", Labels{{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
}

TEST(MetricsRegistryTest, CreateOrGetIsStable) {
  obs::MetricsRegistry reg;
  obs::Counter* c1 = reg.GetCounter("msgs", {{"proto", "achilles"}});
  obs::Counter* c2 = reg.GetCounter("msgs", {{"proto", "achilles"}});
  EXPECT_EQ(c1, c2);
  c1->Inc(3);
  EXPECT_EQ(c2->value(), 3u);
  EXPECT_NE(reg.GetCounter("msgs", {{"proto", "raft"}}), c1);
  reg.GetGauge("depth")->Set(2.5);
  reg.GetHistogram("lat")->Record(7);
  EXPECT_EQ(reg.size(), 4u);
  reg.ResetAll();
  EXPECT_EQ(c1->value(), 0u);
  EXPECT_EQ(reg.GetGauge("depth")->value(), 0.0);
  EXPECT_EQ(reg.GetHistogram("lat")->count(), 0u);
}

TEST(MetricsRegistryTest, ToJsonIsValidJson) {
  obs::MetricsRegistry reg;
  reg.GetCounter("net.messages")->Inc(42);
  reg.GetGauge("load", {{"host", "0"}})->Set(0.75);
  reg.GetHistogram("lat")->Record(1000);
  obs::JsonWriter w;
  reg.ToJson(&w);
  auto doc = obs::ParseJson(w.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const obs::JsonValue* msgs = doc->Get("net.messages");
  ASSERT_NE(msgs, nullptr);
  EXPECT_DOUBLE_EQ(msgs->number, 42.0);
  const obs::JsonValue* lat = doc->Get("lat");
  ASSERT_NE(lat, nullptr);
  ASSERT_TRUE(lat->is_object());
  EXPECT_DOUBLE_EQ(lat->Get("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(lat->Get("mean")->number, 1000.0);
}

// --- JSON round-trip ---

TEST(JsonTest, WriterParserRoundTrip) {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("name", "bench \"quoted\" \\ path\n")
      .Field("count", uint64_t{18446744073709551615ull})
      .Field("neg", int64_t{-42})
      .Field("pi", 3.14159)
      .Field("flag", true)
      .Key("null_field")
      .Null()
      .KeyBeginArray("xs");
  w.Int(1).Int(2).Int(3).EndArray();
  w.KeyBeginObject("nested").Field("k", "v").EndObject();
  w.EndObject();

  auto doc = obs::ParseJson(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Get("name")->string, "bench \"quoted\" \\ path\n");
  EXPECT_DOUBLE_EQ(doc->Get("neg")->number, -42.0);
  EXPECT_DOUBLE_EQ(doc->Get("pi")->number, 3.14159);
  EXPECT_TRUE(doc->Get("flag")->boolean);
  EXPECT_EQ(doc->Get("null_field")->kind, obs::JsonValue::Kind::kNull);
  ASSERT_TRUE(doc->Get("xs")->is_array());
  EXPECT_EQ(doc->Get("xs")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(doc->Get("xs")->array[1].number, 2.0);
  EXPECT_EQ(doc->Get("nested")->Get("k")->string, "v");
}

TEST(JsonTest, ParserRejectsMalformed) {
  EXPECT_FALSE(obs::ParseJson("{").has_value());
  EXPECT_FALSE(obs::ParseJson("{} trailing").has_value());
  EXPECT_FALSE(obs::ParseJson("{\"a\":}").has_value());
  EXPECT_FALSE(obs::ParseJson("[1,]").has_value());
}

// --- Span tracer ---

TEST(SpanTracerTest, NestingAndParentLinks) {
  obs::SpanTracer tracer;
  const uint64_t outer = tracer.Begin("handler", /*tid=*/0, Us(10));
  const uint64_t inner = tracer.Begin("verify", /*tid=*/0, Us(12), outer);
  tracer.End(inner, 0, Us(15));
  tracer.Instant("commit", /*tid=*/0, Us(16), outer, /*arg=*/7);
  tracer.End(outer, 0, Us(20));

  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, obs::SpanEvent::Kind::kBegin);
  EXPECT_NE(outer, 0u);
  EXPECT_NE(inner, outer);
  EXPECT_EQ(events[1].parent, outer);
  EXPECT_EQ(events[3].kind, obs::SpanEvent::Kind::kInstant);
  EXPECT_EQ(events[3].arg, 7u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(SpanTracerTest, RingBufferWrapsAndCountsDropped) {
  obs::SpanTracer tracer(/*capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    tracer.Instant("tick", 0, Us(i));
  }
  EXPECT_EQ(tracer.Events().size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  EXPECT_EQ(tracer.Events().front().ts, Us(12));  // Oldest survivor.
}

TEST(SpanTracerTest, ChromeTraceExportIsValidTraceEventJson) {
  obs::SpanTracer tracer;
  const uint64_t parent = tracer.Begin("propose", /*tid=*/1, Us(100), 0, /*arg=*/5);
  const uint64_t child = tracer.Begin("vote", /*tid=*/2, Us(150), parent);
  tracer.End(child, 2, Us(180));
  tracer.Instant("commit", 1, Us(200), parent, 5);
  tracer.End(parent, 1, Us(220));

  auto doc = obs::ParseJson(tracer.ExportChromeTrace());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  size_t complete = 0, instants = 0, flow_starts = 0, flow_ends = 0;
  for (const obs::JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    // Every event carries the fields the trace_event spec requires.
    ASSERT_NE(e.Get("ph"), nullptr);
    ASSERT_NE(e.Get("ts"), nullptr);
    ASSERT_NE(e.Get("pid"), nullptr);
    ASSERT_NE(e.Get("tid"), nullptr);
    ASSERT_NE(e.Get("name"), nullptr);
    const std::string& ph = e.Get("ph")->string;
    if (ph == "X") {
      ++complete;
      ASSERT_NE(e.Get("dur"), nullptr);
      EXPECT_GE(e.Get("dur")->number, 0.0);
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "s") {
      ++flow_starts;
    } else if (ph == "f") {
      ++flow_ends;
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instants, 1u);
  // parent(tid 1) -> child(tid 2) crosses tracks: exactly one flow arrow.
  EXPECT_EQ(flow_starts, 1u);
  EXPECT_EQ(flow_ends, 1u);

  // Timestamps are microseconds: the proposal span starts at 100 us.
  bool found_propose = false;
  for (const obs::JsonValue& e : events->array) {
    if (e.Get("ph")->string == "X" && e.Get("name")->string == "propose") {
      found_propose = true;
      EXPECT_DOUBLE_EQ(e.Get("ts")->number, 100.0);
      EXPECT_DOUBLE_EQ(e.Get("dur")->number, 120.0);
    }
  }
  EXPECT_TRUE(found_propose);
}

// --- Recorder ---

TEST(RecorderTest, SinksThatAreOffAreNeverBuilt) {
  const obs::Recorder off(/*tracing=*/false, obs::SpanTracer::kDefaultCapacity,
                          /*journaling=*/false, /*critpath=*/false);
  EXPECT_FALSE(off.active());
  EXPECT_EQ(off.tracer(), nullptr);
  EXPECT_EQ(off.journal(), nullptr);
  EXPECT_EQ(off.critpath(), nullptr);
  const obs::Recorder trace_only(/*tracing=*/true, 16, /*journaling=*/false,
                                 /*critpath=*/false);
  EXPECT_TRUE(trace_only.active());
  EXPECT_NE(trace_only.tracer(), nullptr);
  EXPECT_EQ(trace_only.journal(), nullptr);
  EXPECT_EQ(trace_only.critpath(), nullptr);
}

// One chain (origin -> send -> transit -> deliver -> handler -> commit -> confirm) feeds all
// three sinks once per record, each linking it with its own numbering.
TEST(RecorderTest, OneChainLinksEverySink) {
  obs::Recorder rec(/*tracing=*/true, 64, /*journaling=*/true, /*critpath=*/true);
  obs::Path sender;
  rec.Dispatch(0, "start", 0, 0, &sender.cause);
  rec.Origin(0, 0, 0, &sender.cause);
  sender.cause = rec.Event(0, obs::JournalKind::kSend, Us(1), sender.cause, 1, 64, "vote");
  rec.Transit(0, 1, "vote", Us(1), Us(1), Us(2), Us(3), /*nic=*/0, /*holds_nic=*/true,
              &sender.cause);
  rec.HandlerEnd(0, sender.cause, Us(1));
  obs::Path receiver = sender;
  receiver.cause =
      rec.Event(1, obs::JournalKind::kDeliver, Us(3), receiver.cause, 0, 64, "vote");
  rec.Dispatch(1, "vote", Us(3), Us(3), &receiver.cause);
  rec.Charge(receiver.cause, obs::Component::kCrypto, Us(1));
  rec.Event(1, obs::JournalKind::kCommit, Us(4), receiver.cause, /*height=*/7);
  rec.HandlerEnd(1, receiver.cause, Us(4));
  rec.Confirm(receiver, /*height=*/7, Us(4), /*submit_sum_ns=*/0, /*tx_count=*/1);

  // Journal: send <- deliver <- commit.
  const std::vector<obs::JournalRecord> records = rec.journal()->Events();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].parent, 0u);
  EXPECT_EQ(records[1].parent, records[0].seq);
  EXPECT_EQ(records[2].parent, records[1].seq);
  // Trace: the receiving span hangs off the sending span; the commit (a control kind) is
  // an instant inside it, and the flow kinds render nothing.
  const std::vector<obs::SpanEvent> events = rec.tracer()->Events();
  ASSERT_EQ(events.size(), 5u);  // begin start, end, begin vote, commit, end.
  EXPECT_EQ(events[2].kind, obs::SpanEvent::Kind::kBegin);
  EXPECT_EQ(events[2].parent, events[0].id);
  EXPECT_EQ(events[3].kind, obs::SpanEvent::Kind::kInstant);
  EXPECT_STREQ(events[3].name, "commit");
  EXPECT_EQ(events[3].parent, events[2].id);
  EXPECT_EQ(events[3].arg, 7u);
  // Critical path: one complete chain rooted at the origin, 4 us origin -> confirm.
  const obs::CritSummary s = rec.critpath()->Summarize();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.unanchored, 0u);
  EXPECT_DOUBLE_EQ(s.mean_ms, 0.004);
}

// --- Path invariant ---

TEST(BreakdownTest, PathMaintainsInvariant) {
  obs::Path path;
  path.Restart(Ms(5));
  path.Extend(obs::Component::kCpu, Us(10));
  path.CoverUntil(obs::Component::kNetPropagation, Ms(5) + Us(60));
  path.CoverUntil(obs::Component::kCrypto, Ms(5) + Us(40));  // Behind frontier: no-op.
  int64_t parts_sum = 0;
  for (int64_t p : path.parts) {
    parts_sum += p;
  }
  EXPECT_EQ(path.origin + parts_sum, path.covered_until);
  EXPECT_EQ(path.total(), Us(60));
  EXPECT_EQ(path.parts[static_cast<size_t>(obs::Component::kCrypto)], 0);
}

TEST(BreakdownTest, OnConfirmDecomposesExactly) {
  obs::BreakdownAttributor attr;
  obs::Path path;
  path.Restart(Ms(10));
  path.Extend(obs::Component::kCpu, Ms(1));
  path.Extend(obs::Component::kNetPropagation, Ms(2));
  // Block of 2 txs submitted at 6 ms and 8 ms, confirmed at covered_until + 1 ms residual.
  const SimTime now = path.covered_until + Ms(1);
  attr.OnConfirm(path, now, /*submit_sum_ns=*/Ms(6) + Ms(8), /*tx_count=*/2);
  const obs::BreakdownMs mean = attr.MeanPerTx();
  // Mean e2e latency = ((now-6ms) + (now-8ms)) / 2 = 7 ms.
  EXPECT_NEAR(mean.TotalMs(), 7.0, 1e-9);
  EXPECT_NEAR(mean.part(obs::Component::kIdle), 3.0, 1e-9);  // (4 + 2) / 2.
  EXPECT_NEAR(mean.part(obs::Component::kNetPropagation), 2.0, 1e-9);
  EXPECT_NEAR(mean.part(obs::Component::kCpu), 2.0, 1e-9);  // 1 ms charged + 1 ms residual.
  EXPECT_EQ(mean.tx_count, 2u);
  EXPECT_EQ(mean.block_count, 1u);
}

// --- LatencyRecorder shim (edge cases the histogram migration must preserve) ---

TEST(LatencyRecorderTest, EmptyRecorderReportsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.MeanMs(), 0.0);
  EXPECT_EQ(rec.PercentileMs(0), 0.0);
  EXPECT_EQ(rec.PercentileMs(50), 0.0);
  EXPECT_EQ(rec.PercentileMs(100), 0.0);
  EXPECT_EQ(rec.MaxMs(), 0.0);
}

TEST(LatencyRecorderTest, PercentileBoundsAndClamping) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.Record(Ms(i));
  }
  EXPECT_DOUBLE_EQ(rec.PercentileMs(0), 1.0);
  EXPECT_DOUBLE_EQ(rec.PercentileMs(100), 100.0);
  EXPECT_DOUBLE_EQ(rec.PercentileMs(-5), 1.0);    // Clamped to p0.
  EXPECT_DOUBLE_EQ(rec.PercentileMs(1000), 100.0);  // Clamped to p100.
  EXPECT_NEAR(rec.PercentileMs(50), 50.5, 1.0);
  EXPECT_DOUBLE_EQ(rec.MaxMs(), 100.0);
  EXPECT_EQ(rec.count(), 100u);
  rec.Reset();
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.PercentileMs(50), 0.0);
}

// --- Cluster-level acceptance: breakdown sums to e2e latency; tracing is free ---

ClusterConfig SmallConfig(bool tracing) {
  ClusterConfig config;
  config.protocol = Protocol::kAchilles;
  config.f = 1;
  config.batch_size = 50;
  config.payload_size = 64;
  config.net = NetworkConfig::Lan();
  config.seed = 42;
  config.tracing = tracing;
  return config;
}

TEST(ObsClusterTest, BreakdownSumsToMeanE2eLatency) {
  Cluster cluster(SmallConfig(false));
  const RunStats stats = cluster.RunMeasured(Ms(200), Sec(1));
  ASSERT_TRUE(stats.safety_ok);
  ASSERT_GT(stats.breakdown.tx_count, 0u);
  ASSERT_GT(stats.e2e_latency_ms, 0.0);
  // The decomposition is exact by construction; allow only float rounding, far inside the
  // 1% acceptance bound.
  EXPECT_NEAR(stats.breakdown.TotalMs(), stats.e2e_latency_ms,
              stats.e2e_latency_ms * 0.001);
  for (size_t i = 0; i < obs::kNumComponents; ++i) {
    EXPECT_GE(stats.breakdown.parts[i], 0.0)
        << obs::ComponentName(static_cast<obs::Component>(i));
  }
  // The causal chain must attribute real work to the big three.
  EXPECT_GT(stats.breakdown.part(obs::Component::kNetPropagation), 0.0);
  EXPECT_GT(stats.breakdown.part(obs::Component::kCpu), 0.0);
  EXPECT_GT(stats.breakdown.part(obs::Component::kCrypto), 0.0);
}

TEST(ObsClusterTest, SingleBlockRunDecomposesExactly) {
  // One deterministic commit: rate-limit the client so exactly the first blocks commit,
  // then check the breakdown against the recorded e2e mean with zero-throughput tolerance.
  ClusterConfig config = SmallConfig(false);
  config.client_rate_tps = 200.0;  // ~ one small batch per measurement window.
  Cluster cluster(config);
  const RunStats stats = cluster.RunMeasured(Ms(100), Ms(500));
  ASSERT_TRUE(stats.safety_ok);
  if (stats.breakdown.tx_count > 0) {
    EXPECT_NEAR(stats.breakdown.TotalMs(), stats.e2e_latency_ms,
                std::max(1e-6, stats.e2e_latency_ms * 0.001));
  }
}

TEST(ObsClusterTest, TracingIsZeroPerturbation) {
  RunStats off, on;
  {
    Cluster cluster(SmallConfig(false));
    off = cluster.RunMeasured(Ms(200), Sec(1));
    EXPECT_EQ(cluster.recorder().tracer(), nullptr);  // Off means no span ring at all.
  }
  {
    Cluster cluster(SmallConfig(true));
    on = cluster.RunMeasured(Ms(200), Sec(1));
    EXPECT_FALSE(cluster.recorder().tracer()->Events().empty());
  }
  // Bit-identical statistics: recording spans must not change a single simulated outcome.
  EXPECT_EQ(off.throughput_tps, on.throughput_tps);
  EXPECT_EQ(off.commit_latency_ms, on.commit_latency_ms);
  EXPECT_EQ(off.commit_p50_ms, on.commit_p50_ms);
  EXPECT_EQ(off.commit_p99_ms, on.commit_p99_ms);
  EXPECT_EQ(off.e2e_latency_ms, on.e2e_latency_ms);
  EXPECT_EQ(off.e2e_p99_ms, on.e2e_p99_ms);
  EXPECT_EQ(off.committed_blocks, on.committed_blocks);
  EXPECT_EQ(off.committed_txs, on.committed_txs);
  EXPECT_EQ(off.messages, on.messages);
  EXPECT_EQ(off.bytes, on.bytes);
  EXPECT_EQ(off.counter_writes, on.counter_writes);
  for (size_t i = 0; i < obs::kNumComponents; ++i) {
    EXPECT_EQ(off.breakdown.parts[i], on.breakdown.parts[i]);
  }
}

TEST(ObsClusterTest, ClusterTraceExportsValidChromeJson) {
  Cluster cluster(SmallConfig(true));
  cluster.RunMeasured(Ms(100), Ms(300));
  auto doc = obs::ParseJson(cluster.recorder().tracer()->ExportChromeTrace());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GT(events->array.size(), 10u);
  bool saw_commit = false;
  for (const obs::JsonValue& e : events->array) {
    if (e.Get("name") != nullptr && e.Get("name")->string == "commit") {
      saw_commit = true;
    }
  }
  EXPECT_TRUE(saw_commit);
}

TEST(ObsClusterTest, HostMetricsAreRegistered) {
  Cluster cluster(SmallConfig(false));
  cluster.RunMeasured(Ms(100), Ms(300));
  obs::MetricsRegistry& reg = cluster.metrics();
  EXPECT_GT(reg.GetCounter("net.messages")->value(), 0u);
  EXPECT_GT(reg.GetCounter("net.bytes")->value(), 0u);
  EXPECT_GT(reg.GetHistogram("host.handler_ns")->count(), 0u);
  EXPECT_GT(reg.GetHistogram("host.queue_wait_ns")->count(), 0u);
  EXPECT_GT(reg.GetHistogram("net.nic_wait_ns")->count(), 0u);
}

}  // namespace
}  // namespace achilles
