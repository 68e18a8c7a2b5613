// Telemetry layer unit tests: counter sharding exactness under threads,
// histogram bucket geometry and percentile error bounds, registry
// snapshots racing live recording, the trace ring, exporters, and a
// stats-socket round trip. This suite runs under ASan/UBSan in CI and
// has a dedicated TSan job (the counters, histograms, and trace ring are
// all written from concurrent threads here on purpose).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ipc/wire.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/stats_server.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_ring.hpp"

namespace ccp::telemetry {
namespace {

TEST(Counter, SingleThreadExact) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  for (int i = 0; i < 1000; ++i) c.inc();
  EXPECT_EQ(c.value(), 1000u);
  c.inc(42);
  EXPECT_EQ(c.value(), 1042u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ShardedAcrossThreadsExact) {
  // More threads than shards: early threads get exclusive cells
  // (load+store), later ones share the overflow cell (fetch_add). Either
  // way no increment may be lost.
  constexpr int kThreads = 32;
  constexpr uint64_t kIncsPerThread = 100'000;
  Counter c;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kIncsPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kIncsPerThread);
}

TEST(Gauge, SetAddSub) {
  Gauge g;
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST(Histogram, ValuesBelowSubBucketsAreExact) {
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::index_of(v), v);
    EXPECT_EQ(Histogram::bucket_lower(v), v);
    EXPECT_EQ(Histogram::bucket_upper(v), v);
  }
}

TEST(Histogram, BucketBoundsContainValue) {
  // Sweep power-of-two edges and in-between values across the full range.
  std::vector<uint64_t> values;
  for (int e = 3; e < 63; ++e) {
    const uint64_t p = 1ull << e;
    values.push_back(p - 1);
    values.push_back(p);
    values.push_back(p + 1);
    values.push_back(p + p / 3);
    values.push_back(p + p / 2);
  }
  for (const uint64_t v : values) {
    const size_t idx = Histogram::index_of(v);
    ASSERT_LT(idx, Histogram::kBuckets) << "v=" << v;
    EXPECT_LE(Histogram::bucket_lower(idx), v) << "v=" << v;
    EXPECT_GE(Histogram::bucket_upper(idx), v) << "v=" << v;
    // Relative error bound: bucket width <= lower/kSubBuckets (3.125%).
    const uint64_t lower = Histogram::bucket_lower(idx);
    const uint64_t width = Histogram::bucket_upper(idx) - lower + 1;
    EXPECT_LE(width, lower / Histogram::kSubBuckets + 1) << "v=" << v;
  }
}

TEST(Histogram, BucketsPartitionTheRange) {
  // Consecutive buckets tile the value space with no gaps or overlaps.
  for (size_t idx = 1; idx < 200; ++idx) {
    EXPECT_EQ(Histogram::bucket_lower(idx), Histogram::bucket_upper(idx - 1) + 1)
        << "idx=" << idx;
  }
}

TEST(Histogram, QuantilesWithinRelativeErrorBound) {
  Histogram h;
  constexpr uint64_t kN = 10'000;
  uint64_t sum = 0;
  for (uint64_t v = 1; v <= kN; ++v) {
    h.record(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), kN);
  EXPECT_EQ(h.sum(), sum);
  // Quantiles resolve to a bucket and interpolate within it; with 32
  // sub-buckets per octave the estimate is within ~3.2% of the true value.
  const double q50 = h.quantile(0.5);
  const double q99 = h.quantile(0.99);
  EXPECT_GE(q50, 0.5 * kN * 0.97);
  EXPECT_LE(q50, 0.5 * kN * 1.04 + 1);
  EXPECT_GE(q99, 0.99 * kN * 0.97);
  EXPECT_LE(q99, 0.99 * kN * 1.04 + 1);
  EXPECT_GE(h.quantile(1.0), static_cast<double>(kN));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, SnapshotQuantileMatchesLiveQuantile) {
  Histogram h;
  for (uint64_t v = 1; v <= 5000; ++v) h.record(v * 7);
  HistogramSample sample;
  h.collect(sample);
  EXPECT_EQ(sample.count, 5000u);
  EXPECT_EQ(sample.sum, h.sum());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(sample.quantile(q), h.quantile(q)) << "q=" << q;
  }
  EXPECT_GT(sample.mean(), 0.0);
  EXPECT_GE(sample.max(), 5000.0 * 7);
}

TEST(Registry, AddSnapshotRemove) {
  Counter c;
  Gauge g;
  Histogram h;
  auto& reg = MetricsRegistry::global();
  reg.add("test_registry_counter", &c);
  reg.add("test_registry_gauge", &g);
  reg.add("test_registry_hist", &h);
  c.inc(3);
  g.set(-4);
  h.record(100);

  const Snapshot snap = reg.snapshot();
  ASSERT_NE(snap.counter("test_registry_counter"), nullptr);
  EXPECT_EQ(snap.counter("test_registry_counter")->value, 3u);
  ASSERT_NE(snap.gauge("test_registry_gauge"), nullptr);
  EXPECT_EQ(snap.gauge("test_registry_gauge")->value, -4);
  ASSERT_NE(snap.histogram("test_registry_hist"), nullptr);
  EXPECT_EQ(snap.histogram("test_registry_hist")->count, 1u);

  reg.remove("test_registry_counter");
  reg.remove("test_registry_gauge");
  reg.remove("test_registry_hist");
  const Snapshot after = reg.snapshot();
  EXPECT_EQ(after.counter("test_registry_counter"), nullptr);
  EXPECT_EQ(after.gauge("test_registry_gauge"), nullptr);
  EXPECT_EQ(after.histogram("test_registry_hist"), nullptr);
}

TEST(Registry, SnapshotWhileRecordingIsConsistent) {
  // Writers hammer a counter and histogram while the main thread
  // snapshots in a loop. Snapshot values must be monotonic across
  // snapshots (counters never go backwards) and the final totals exact.
  Counter c;
  Histogram h;
  auto& reg = MetricsRegistry::global();
  reg.add("test_race_counter", &c);
  reg.add("test_race_hist", &h);

  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 200'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {}
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        c.inc();
        h.record(i & 0xFFFF);
      }
    });
  }
  go.store(true, std::memory_order_release);

  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const Snapshot snap = reg.snapshot();
    const auto* cs = snap.counter("test_race_counter");
    ASSERT_NE(cs, nullptr);
    EXPECT_GE(cs->value, last);
    last = cs->value;
    const auto* hs = snap.histogram("test_race_hist");
    ASSERT_NE(hs, nullptr);
    uint64_t bucket_total = 0;
    for (const auto& b : hs->buckets) bucket_total += b.count;
    // Bucket reads race the count_ read, so allow skew but no nonsense.
    EXPECT_LE(bucket_total, kWriters * kPerWriter);
  }
  for (auto& th : writers) th.join();

  EXPECT_EQ(c.value(), kWriters * kPerWriter);
  EXPECT_EQ(h.count(), kWriters * kPerWriter);
  reg.remove("test_race_counter");
  reg.remove("test_race_hist");
}

TEST(Snapshot, JsonAndPrometheusExporters) {
  Counter c;
  Histogram h;
  auto& reg = MetricsRegistry::global();
  reg.add("test_export_counter", &c);
  reg.add("test_export_hist", &h);
  c.inc(7);
  h.record(1000);

  const Snapshot snap = reg.snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"test_export_counter\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_export_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ns\""), std::string::npos);

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("test_export_counter 7"), std::string::npos) << prom;
  EXPECT_NE(prom.find("test_export_hist_count 1"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  reg.remove("test_export_counter");
  reg.remove("test_export_hist");
}

TEST(TraceRing, KeepsMostRecentAfterWrap) {
  TraceRing ring(64);
  EXPECT_EQ(ring.capacity(), 64u);
  for (uint64_t i = 0; i < 200; ++i) {
    ring.record(TraceKind::Report, static_cast<uint32_t>(i), double(i), 1000 + i);
  }
  EXPECT_EQ(ring.recorded(), 200u);
  const auto events = ring.dump();
  ASSERT_EQ(events.size(), 64u);
  // Oldest surviving event is #136 (200 - 64), newest is #199, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t_ns, 1000u + 136 + i);
    EXPECT_EQ(events[i].flow, 136u + i);
  }
}

TEST(TraceRing, ConcurrentWritersProduceOnlyValidEvents) {
  TraceRing ring(256);
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  std::atomic<bool> stop{false};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, &stop, w] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ring.record(TraceKind::SetCwnd, static_cast<uint32_t>(w), 1.5, ++i);
      }
    });
  }
  // Dump repeatedly while writers lap the ring; every event the reader
  // returns must be fully-written (kind/flow sane), never torn garbage.
  for (int i = 0; i < 200; ++i) {
    for (const auto& ev : ring.dump()) {
      EXPECT_EQ(ev.kind, TraceKind::SetCwnd);
      EXPECT_LT(ev.flow, static_cast<uint32_t>(kWriters));
      EXPECT_EQ(ev.value, 1.5);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();
}

TEST(TraceRing, GlobalEnableDisable) {
  EXPECT_EQ(trace_ring(), nullptr);
  enable_trace(128);
  ASSERT_NE(trace_ring(), nullptr);
  trace(TraceKind::FlowCreate, 1, 14600.0);
  EXPECT_EQ(trace_ring()->recorded(), 1u);
  disable_trace();
  EXPECT_EQ(trace_ring(), nullptr);
  trace(TraceKind::FlowCreate, 1, 14600.0);  // no-op when disabled
}

TEST(Telemetry, EnableDisableToggle) {
  EXPECT_TRUE(enabled());  // default on
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
}

TEST(StatsServer, SnapshotAndTraceRoundTrip) {
  const std::string path =
      "/tmp/ccp_telemetry_test_" + std::to_string(::getpid()) + ".sock";
  Counter c;
  MetricsRegistry::global().add("test_stats_rt_counter", &c);
  c.inc(99);
  enable_trace(64);
  trace(TraceKind::Report, 5, 1.0);
  trace(TraceKind::Urgent, 5, 2.0);

  {
    StatsServer server(path);
    auto client = StatsClient::connect(path);
    ASSERT_NE(client, nullptr);

    const auto snap = client->snapshot();
    ASSERT_TRUE(snap.has_value());
    EXPECT_GT(snap->wall_ns, 0u);
    const auto* cs = snap->counter("test_stats_rt_counter");
    ASSERT_NE(cs, nullptr);
    EXPECT_EQ(cs->value, 99u);

    const auto events = client->trace();
    ASSERT_TRUE(events.has_value());
    ASSERT_GE(events->size(), 2u);
    EXPECT_EQ((*events)[events->size() - 2].kind, TraceKind::Report);
    EXPECT_EQ(events->back().kind, TraceKind::Urgent);
    EXPECT_EQ(events->back().flow, 5u);
    EXPECT_EQ(events->back().value, 2.0);
  }
  disable_trace();
  MetricsRegistry::global().remove("test_stats_rt_counter");
  EXPECT_EQ(StatsClient::connect(path), nullptr) << "server gone after dtor";
}

TEST(StatsServer, EncodeDecodeSnapshotRoundTrip) {
  Snapshot in;
  in.wall_ns = 123456789;
  in.counters.push_back({"a_total", 42});
  in.gauges.push_back({"g", -17});
  HistogramSample hs;
  hs.name = "h_ns";
  hs.count = 2;
  hs.sum = 300;
  hs.buckets.push_back({127, 1});
  hs.buckets.push_back({255, 1});
  in.histograms.push_back(hs);

  ipc::Encoder enc;
  encode_snapshot(enc, in);
  ipc::Decoder dec(enc.buffer());
  const Snapshot out = decode_snapshot(dec);
  EXPECT_EQ(out.wall_ns, in.wall_ns);
  ASSERT_EQ(out.counters.size(), 1u);
  EXPECT_EQ(out.counters[0].name, "a_total");
  EXPECT_EQ(out.counters[0].value, 42u);
  ASSERT_EQ(out.gauges.size(), 1u);
  EXPECT_EQ(out.gauges[0].value, -17);
  ASSERT_EQ(out.histograms.size(), 1u);
  EXPECT_EQ(out.histograms[0].sum, 300u);
  ASSERT_EQ(out.histograms[0].buckets.size(), 2u);
  EXPECT_EQ(out.histograms[0].buckets[1].upper, 255u);
}

TEST(Snapshot, HostileCountsThrowWireError) {
  // One counter, gauge, histogram and bucket each; `hostile` replaces the
  // count at that position with 0xffffffff. A claimed count is checked
  // against the bytes present before anything is reserved for it.
  auto reply = [](int hostile) {
    auto count = [hostile](int at) { return at == hostile ? 0xffffffffu : 1u; };
    ipc::Encoder e;
    e.u64(1);
    e.u32(count(0));
    e.str("c");
    e.u64(2);
    e.u32(count(1));
    e.str("g");
    e.u64(3);
    e.u32(count(2));
    e.str("h");
    e.u64(4);
    e.u64(5);
    e.u32(count(3));
    e.u64(6);
    e.u64(7);
    return e.buffer();
  };
  {
    const auto bytes = reply(-1);
    ipc::Decoder dec(bytes);
    const Snapshot ok = decode_snapshot(dec);
    ASSERT_EQ(ok.histograms.size(), 1u);
    EXPECT_EQ(ok.histograms[0].buckets.size(), 1u);
  }
  for (int at = 0; at < 4; ++at) {
    const auto bytes = reply(at);
    ipc::Decoder dec(bytes);
    EXPECT_THROW(decode_snapshot(dec), ipc::WireError) << "count " << at;
  }
}

}  // namespace
}  // namespace ccp::telemetry
