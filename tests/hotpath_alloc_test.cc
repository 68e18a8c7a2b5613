// Proves the per-ACK hot path is allocation-free in steady state.
//
// A global operator-new hook counts heap allocations inside a counting
// window. After a warm-up phase (programs installed, encoder buffers and
// sample vectors grown to their steady-state capacity), driving ACKs,
// report batching, and frame flushes through the full datapath must
// perform ZERO allocations — the invariant the whole zero-alloc refactor
// (scratch messages, encode-into batcher, FlatMap flow tables, fixed-ring
// rate estimator) exists to uphold. See docs/PERF.md.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "datapath/datapath.hpp"
#include "datapath/prototype_datapath.hpp"
#include "datapath/shard.hpp"
#include "datapath/sharded_datapath.hpp"
#include "ipc/wire.hpp"
#include "lang/jit/jit.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_ring.hpp"
#include "util/time.hpp"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

// Replaceable global allocation functions (all sized/aligned variants
// forward here). Deallocation is intentionally not counted.
void* operator new(std::size_t n) {
  note_alloc();
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ccp::datapath {
namespace {

constexpr size_t kFlows = 8;
constexpr uint64_t kWarmupAcks = 400'000;
constexpr uint64_t kMeasuredAcks = 100'000;

/// Drives `acks` round-robin ACKs (with sends, RTT samples, and periodic
/// ticks so reports batch and flush) through `dp`.
template <typename Datapath>
void drive(Datapath& dp, std::vector<ipc::FlowId>& ids, TimePoint& now,
           uint64_t acks) {
  AckEvent ev;
  ev.bytes_acked = 1500;
  ev.packets_acked = 1;
  ev.bytes_in_flight = 64 * 1500;
  ev.packets_in_flight = 64;
  const Duration kRtt = Duration::from_millis(10);
  for (uint64_t i = 0; i < acks; ++i) {
    now += Duration::from_micros(1);
    auto* fl = dp.flow(ids[i % ids.size()]);
    ev.now = now;
    ev.rtt_sample =
        kRtt + Duration::from_nanos(static_cast<int64_t>(i % 1024) * 1000);
    fl->on_send(SendEvent{now, 1500});
    fl->on_ack(ev);
    if ((i & 255) == 255) dp.tick(now);
  }
}

uint64_t count_allocs_during(const std::function<void()>& body) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  body();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

TEST(HotPathAlloc, FoldModeSteadyStateIsAllocationFree) {
  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  // The frame sink borrows the bytes and must not need a copy: count only.
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  drive(dp, ids, now, kWarmupAcks);
  ASSERT_GT(frames, 0u) << "warm-up must exercise the report/flush path";

  const uint64_t before_frames = frames;
  const uint64_t allocs =
      count_allocs_during([&] { drive(dp, ids, now, kMeasuredAcks); });
  EXPECT_EQ(allocs, 0u)
      << "per-ACK fold path allocated in steady state";
  EXPECT_GT(frames, before_frames)
      << "measured window must include report flushes, not just folds";
}

TEST(HotPathAlloc, TelemetryAndTraceEnabledStaysAllocationFree) {
  // Same workload as FoldModeSteadyStateIsAllocationFree, but with the
  // full telemetry layer explicitly on AND the trace ring installed —
  // counters, histograms, per-report clock stamps, 1/1024 VM sampling,
  // and trace events must all record without touching the heap.
  telemetry::set_enabled(true);
  telemetry::enable_trace(4096);
  // Touch the global metrics/registry singletons before counting so their
  // one-time lazy construction doesn't land in the measured window.
  (void)telemetry::metrics().dp_acks.value();

  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  drive(dp, ids, now, kWarmupAcks);
  ASSERT_GT(frames, 0u);
  ASSERT_GT(telemetry::metrics().dp_reports.value(), 0u)
      << "telemetry must actually be recording in this configuration";
  ASSERT_GT(telemetry::trace_ring()->recorded(), 0u);

  const uint64_t allocs =
      count_allocs_during([&] { drive(dp, ids, now, kMeasuredAcks); });
  telemetry::disable_trace();
  EXPECT_EQ(allocs, 0u)
      << "telemetry recording allocated on the per-ACK hot path";
}

TEST(HotPathAlloc, SpansEnabledSteadyStateIsAllocationFree) {
  // Control-loop spans on: every report emit allocates a span id and
  // stamps it into the scratch message, and every close_span records
  // four stage histograms + the total and a SpanRing slot. None of that
  // may touch the heap — the ring is sized at enable time and the stamps
  // ride by value. The close side is driven explicitly since no agent is
  // attached in this harness.
  telemetry::set_enabled(true);
  telemetry::enable_spans(4096);
  (void)telemetry::metrics().dp_acks.value();

  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  drive(dp, ids, now, kWarmupAcks);
  ASSERT_GT(frames, 0u);

  const uint64_t allocs = count_allocs_during([&] {
    drive(dp, ids, now, kMeasuredAcks);
    telemetry::SpanStamp stamp;
    for (uint64_t i = 1; i <= 10'000; ++i) {
      stamp.span_id = i;
      stamp.emit_ns = i * 10;
      stamp.agent_recv_ns = i * 10 + 2;
      stamp.agent_send_ns = i * 10 + 4;
      telemetry::close_span(stamp, i * 10 + 6, i * 10 + 8,
                            static_cast<uint32_t>(i % kFlows),
                            telemetry::SpanCommand::UpdateFields);
    }
  });
  telemetry::disable_spans();
  EXPECT_EQ(allocs, 0u)
      << "span stamping or close_span allocated in steady state";
  EXPECT_GT(telemetry::metrics().loop_total_ns.count(), 0u);
}

TEST(HotPathAlloc, ProfilerEnabledSteadyStateIsAllocationFree) {
  // The sampled cycle profiler armed at a hot 1-in-64 rate: the per-ACK
  // gate, the rdtsc stamps on sampled ACKs, and prof_commit's counter
  // increments must all run without heap traffic.
  telemetry::set_enabled(true);
  telemetry::set_profile_sample(64);
  (void)telemetry::metrics().dp_acks.value();

  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  drive(dp, ids, now, kWarmupAcks);
  ASSERT_GT(frames, 0u);
  const uint64_t samples_before =
      telemetry::metrics()
          .prof_samples[size_t(telemetry::ProfStage::Measure)]
          .value();
  ASSERT_GT(samples_before, 0u)
      << "profiler must actually be sampling in this configuration";

  const uint64_t allocs =
      count_allocs_during([&] { drive(dp, ids, now, kMeasuredAcks); });
  telemetry::set_profile_sample(0);
  EXPECT_EQ(allocs, 0u)
      << "sampled cycle profiler allocated on the per-ACK path";
  EXPECT_GT(telemetry::metrics()
                .prof_samples[size_t(telemetry::ProfStage::Measure)]
                .value(),
            samples_before)
      << "measured window must include profiler samples";
}

TEST(HotPathAlloc, VectorModeSteadyStateIsAllocationFree) {
  DatapathConfig dcfg;
  // Flush each vector report in its own frame. Batching them would make
  // the frame size depend on how many flows' report phases coincide in a
  // flush window; a once-in-a-blue-moon deeper coincidence legitimately
  // grows the encoder buffer (amortized-zero, not strictly zero), which
  // is not what this test is pinning down.
  dcfg.flush_interval = Duration::zero();
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  for (size_t i = 0; i < kFlows; ++i) {
    auto& fl = dp.create_flow(fcfg, "reno", now);
    fl.set_vector_mode(true);
    ids.push_back(fl.id());
  }
  drive(dp, ids, now, kWarmupAcks);
  ASSERT_GT(frames, 0u);

  const uint64_t before_frames = frames;
  const uint64_t allocs =
      count_allocs_during([&] { drive(dp, ids, now, kMeasuredAcks); });
  EXPECT_EQ(allocs, 0u)
      << "per-ACK vector-sample path allocated in steady state";
  EXPECT_GT(frames, before_frames);
}

TEST(HotPathAlloc, ShardedSteadyStateIsAllocationFree) {
  // The per-ACK path with the flow table partitioned across shards, the
  // full telemetry layer (per-shard counters included) on, and the trace
  // ring installed. Each shard is driven through its own flow table and
  // lane; poll() — the quiescent point where installs would be picked up
  // — runs inside the measured window with an empty command queue, so
  // the epoch check itself is also covered by the zero-alloc invariant.
  telemetry::set_enabled(true);
  telemetry::enable_trace(4096);
  (void)telemetry::metrics().dp_acks.value();

  constexpr uint32_t kShards = 2;
  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  std::vector<CcpDatapath::FrameTx> lane_txs;
  for (uint32_t s = 0; s < kShards; ++s) {
    lane_txs.push_back([&frames](std::span<const uint8_t>) { ++frames; });
  }
  ShardedDatapath dp(dcfg, std::move(lane_txs));
  ASSERT_EQ(dp.num_shards(), kShards);

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::array<std::vector<ipc::FlowId>, kShards> ids;
  FlowConfig fcfg;
  for (uint32_t s = 0; s < kShards; ++s) {
    for (size_t i = 0; i < kFlows / kShards; ++i) {
      const ipc::FlowId id = dp.alloc_flow_id(s);
      dp.shard(s).create_flow(id, fcfg, "reno", now);
      ids[s].push_back(id);
    }
  }

  // Drives `acks` ACKs round-robin across both shards' flows, polling
  // each shard every 256 of its ACKs (same cadence as drive()).
  const auto drive_shards = [&](uint64_t acks) {
    AckEvent ev;
    ev.bytes_acked = 1500;
    ev.packets_acked = 1;
    ev.bytes_in_flight = 64 * 1500;
    ev.packets_in_flight = 64;
    const Duration kRtt = Duration::from_millis(10);
    for (uint64_t i = 0; i < acks; ++i) {
      now += Duration::from_micros(1);
      Shard& shard = dp.shard(i % kShards);
      auto* fl = shard.flow(ids[i % kShards][(i / kShards) % ids[0].size()]);
      ev.now = now;
      ev.rtt_sample =
          kRtt + Duration::from_nanos(static_cast<int64_t>(i % 1024) * 1000);
      fl->on_send(SendEvent{now, 1500});
      fl->on_ack(ev);
      if ((i & 255) == 255) {
        dp.shard(0).poll(now);
        dp.shard(1).poll(now);
      }
    }
  };

  // Warm-up includes a real install on every flow so command application
  // (program swap, fold reset) happens before the measured window — the
  // steady state being pinned down is "programs installed, ACKs folding".
  drive_shards(kWarmupAcks / 2);
  ipc::InstallMsg ins;
  ins.program_text =
      "fold { r := r + Pkt.bytes_acked init 0; }\n"
      "control { WaitRtts(1.0); Report(); }";
  for (uint32_t s = 0; s < kShards; ++s) {
    for (const ipc::FlowId id : ids[s]) {
      ins.flow_id = id;
      dp.handle_frame(ipc::encode_frame(ipc::Message{ins}));
    }
  }
  drive_shards(kWarmupAcks / 2);
  ASSERT_GT(frames, 0u);
  ASSERT_EQ(dp.control_stats().commands_routed, kFlows);
  ASSERT_EQ(dp.shard(0).commands_applied() + dp.shard(1).commands_applied(),
            kFlows)
      << "installs must have been applied at a poll() before measuring";
  ASSERT_GT(telemetry::shard_stats(0).acks.value(), 0u);
  ASSERT_GT(telemetry::shard_stats(1).acks.value(), 0u);

  const uint64_t allocs = count_allocs_during([&] { drive_shards(kMeasuredAcks); });
  telemetry::disable_trace();
  EXPECT_EQ(allocs, 0u)
      << "sharded per-ACK path allocated in steady state";
}

TEST(HotPathAlloc, JitSteadyStateIsAllocationFree) {
  // Native fold execution: compilation happens once at install (and may
  // allocate — it's a rare event), but the JIT steady state afterwards —
  // ACKs dispatched straight into generated code, including the 1/1024
  // jit_exec_ns sampling — must be exactly as allocation-free as the
  // interpreter. On builds without a JIT this degrades to the
  // interpreter path and must still hold.
  const lang::jit::JitMode saved_mode = lang::jit::mode();
  lang::jit::set_mode(lang::jit::JitMode::On);
  telemetry::set_enabled(true);
  (void)telemetry::metrics().dp_acks.value();

  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  if (lang::jit::available()) {
    for (const ipc::FlowId id : ids) {
      ASSERT_TRUE(dp.flow(id)->jit_active())
          << "default program must lower to native code when a JIT exists";
    }
  }
  drive(dp, ids, now, kWarmupAcks);
  ASSERT_GT(frames, 0u);

  const uint64_t allocs =
      count_allocs_during([&] { drive(dp, ids, now, kMeasuredAcks); });
  lang::jit::set_mode(saved_mode);
  EXPECT_EQ(allocs, 0u) << "JIT-dispatched per-ACK path allocated in steady state";
}

/// Burst intake (on_ack_batch): prefetch sweeps over a fixed on-stack
/// chunk, then the scalar per-ACK calls. Steady state — 32-ACK bursts over
/// flows running two different programs, telemetry on — must be exactly as
/// allocation-free as the scalar per-ACK path under the given fold engine.
void expect_burst_intake_allocation_free(lang::jit::JitMode mode) {
  const lang::jit::JitMode saved_mode = lang::jit::mode();
  lang::jit::set_mode(mode);
  telemetry::set_enabled(true);
  (void)telemetry::metrics().dp_acks.value();

  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  // Half the flows get a second program, so consecutive ACKs of a burst
  // alternate between programs.
  ipc::InstallMsg ins;
  ins.program_text =
      "fold { r := r + Pkt.bytes_acked init 0;\n"
      "       m := ewma(m, Pkt.rtt, 0.25) init 0; }\n"
      "control { WaitRtts(1.0); Report(); }";
  for (size_t i = 0; i < kFlows / 2; ++i) {
    ins.flow_id = ids[i];
    dp.handle_frame(ipc::encode_frame(ipc::Message{ins}), now);
  }

  // Burst buffer preallocated outside the counting window; clear() keeps
  // capacity, so refilling it is heap-silent.
  std::vector<FlowAck> burst;
  burst.reserve(32);
  const auto drive_batch = [&](uint64_t acks) {
    const Duration kRtt = Duration::from_millis(10);
    for (uint64_t i = 0; i < acks;) {
      burst.clear();
      for (size_t b = 0; b < 32 && i < acks; ++b, ++i) {
        now += Duration::from_micros(1);
        FlowAck fa;
        fa.flow_id = ids[i % ids.size()];
        fa.sent_bytes = 1500;
        fa.ev.now = now;
        fa.ev.bytes_acked = 1500;
        fa.ev.packets_acked = 1;
        fa.ev.bytes_in_flight = 64 * 1500;
        fa.ev.packets_in_flight = 64;
        fa.ev.rtt_sample =
            kRtt + Duration::from_nanos(static_cast<int64_t>(i % 1024) * 1000);
        burst.push_back(fa);
      }
      dp.on_ack_batch(burst);
      if ((i & 255) == 0) dp.tick(now);
    }
  };

  drive_batch(kWarmupAcks);
  ASSERT_GT(frames, 0u);

  const uint64_t allocs =
      count_allocs_during([&] { drive_batch(kMeasuredAcks); });
  lang::jit::set_mode(saved_mode);
  EXPECT_EQ(allocs, 0u) << "burst intake allocated in steady state";
}

TEST(HotPathAlloc, BatchModeSteadyStateIsAllocationFree) {
  // Burst intake with JIT-compiled folds.
  expect_burst_intake_allocation_free(lang::jit::JitMode::On);
}

TEST(HotPathAlloc, BatchInterpreterSteadyStateIsAllocationFree) {
  // Same burst workload with the JIT off: every fold runs through the
  // bytecode interpreter, which must hold the same invariant.
  expect_burst_intake_allocation_free(lang::jit::JitMode::Off);
}

TEST(HotPathAlloc, JitVerifySteadyStateIsAllocationFree) {
  // Belt-and-braces mode: every ACK runs BOTH engines and bit-compares
  // the fold state into shadow buffers presized at install. Even this
  // must not touch the heap per ACK — Verify is meant to be deployable
  // on live traffic while qualifying the JIT.
  const lang::jit::JitMode saved_mode = lang::jit::mode();
  lang::jit::set_mode(lang::jit::JitMode::Verify);
  telemetry::set_enabled(true);
  (void)telemetry::metrics().dp_acks.value();
  const uint64_t mismatches_before =
      telemetry::metrics().jit_verify_mismatches.value();

  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  if (lang::jit::available()) {
    for (const ipc::FlowId id : ids) {
      ASSERT_TRUE(dp.flow(id)->fold().jit_verifying());
    }
  }
  drive(dp, ids, now, kWarmupAcks);
  ASSERT_GT(frames, 0u);

  const uint64_t allocs =
      count_allocs_during([&] { drive(dp, ids, now, kMeasuredAcks); });
  lang::jit::set_mode(saved_mode);
  EXPECT_EQ(allocs, 0u) << "Verify-mode cross-check allocated in steady state";
  EXPECT_EQ(telemetry::metrics().jit_verify_mismatches.value(),
            mismatches_before)
      << "JIT and interpreter diverged while driving the default program";
}

TEST(HotPathAlloc, WatchdogEnabledSteadyStateIsAllocationFree) {
  // The resilience watchdog armed on every flow (both knobs set), with
  // thresholds the workload never reaches: the per-ACK staleness check —
  // idle computation included — must not cost an allocation. This is the
  // configuration the <2% bench_hotpath overhead target measures.
  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  fcfg.agent_timeout = Duration::from_secs(10);  // > the whole virtual run
  fcfg.watchdog_rtts = 4.0;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  // An agent install arms the watchdog (it only guards agent-programmed
  // flows); after this the agent goes silent but the timeout never fires.
  ipc::InstallMsg ins;
  ins.program_text =
      "fold { r := r + Pkt.bytes_acked init 0; }\n"
      "control { WaitRtts(1.0); Report(); }";
  for (const ipc::FlowId id : ids) {
    ins.flow_id = id;
    dp.handle_frame(ipc::encode_frame(ipc::Message{ins}), now);
  }

  drive(dp, ids, now, kWarmupAcks);
  ASSERT_GT(frames, 0u);
  for (const ipc::FlowId id : ids) {
    ASSERT_FALSE(dp.flow(id)->in_fallback())
        << "watchdog must stay armed-but-quiet in this configuration";
  }

  const uint64_t allocs =
      count_allocs_during([&] { drive(dp, ids, now, kMeasuredAcks); });
  EXPECT_EQ(allocs, 0u)
      << "armed watchdog check allocated on the per-ACK path";
}

TEST(HotPathAlloc, FallbackSteadyStateIsAllocationFree) {
  // Flows *inside* the watchdog fallback: the transition itself may
  // allocate (it is a rare install), but the NewReno fallback program's
  // steady per-ACK fold/control execution must be as allocation-free as
  // any agent program.
  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  fcfg.agent_timeout = Duration::from_millis(50);
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  ipc::InstallMsg ins;
  ins.program_text =
      "fold { r := r + Pkt.bytes_acked init 0; }\n"
      "control { WaitRtts(1.0); Report(); }";
  for (const ipc::FlowId id : ids) {
    ins.flow_id = id;
    dp.handle_frame(ipc::encode_frame(ipc::Message{ins}), now);
  }

  // Warm-up: the agent never speaks again, so every flow trips the 50 ms
  // watchdog early in the run and spends the rest in fallback.
  drive(dp, ids, now, kWarmupAcks);
  for (const ipc::FlowId id : ids) {
    ASSERT_TRUE(dp.flow(id)->in_fallback());
  }

  const uint64_t allocs =
      count_allocs_during([&] { drive(dp, ids, now, kMeasuredAcks); });
  EXPECT_EQ(allocs, 0u)
      << "in-fallback NewReno path allocated in steady state";
  for (const ipc::FlowId id : ids) {
    EXPECT_TRUE(dp.flow(id)->in_fallback());
  }
}

TEST(HotPathAlloc, SteadyChurnIsAllocationFree) {
  // Flow churn at capacity: the op mix of bench_hotpath's churn engine
  // (Zipf-ish batch ACKs + close->create->install cycles) must allocate
  // nothing once the table's slots, free list, and index have settled —
  // every create is served by a parked slot (CcpFlow::reset_for_reuse),
  // the hint stays interned, and the index neither grows nor shrinks.
  // The test's own frame construction reuses one Encoder so the counting
  // window sees only datapath work.
  DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  uint64_t frames = 0;
  CcpDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  // The install message and its frame encoder live outside the loop and
  // are mutated/reused in place — Message holds the program text by
  // value, so rebuilding it per op would charge a string copy to the
  // counting window that the datapath never performs.
  ipc::Message install_msg{ipc::InstallMsg{}};
  auto& ins = std::get<ipc::InstallMsg>(install_msg);
  ins.program_text =
      "fold { r := r + Pkt.bytes_acked init 0; }\n"
      "control { WaitRtts(1.0); Report(); }";
  ipc::Encoder enc;

  std::vector<FlowAck> burst;
  burst.reserve(32);
  uint64_t seq = 0;
  const auto drive_churn = [&](uint64_t acks) {
    const Duration kRtt = Duration::from_millis(10);
    for (uint64_t i = 0; i < acks;) {
      burst.clear();
      for (size_t b = 0; b < 32 && i < acks; ++b, ++i) {
        now += Duration::from_micros(1);
        FlowAck fa;
        fa.flow_id = ids[i % ids.size()];
        fa.sent_bytes = 1500;
        fa.ev.now = now;
        fa.ev.bytes_acked = 1500;
        fa.ev.packets_acked = 1;
        fa.ev.bytes_in_flight = 64 * 1500;
        fa.ev.packets_in_flight = 64;
        fa.ev.rtt_sample =
            kRtt + Duration::from_nanos(static_cast<int64_t>(i % 1024) * 1000);
        burst.push_back(fa);
      }
      dp.on_ack_batch(burst);
      // One close->create->install op per burst, round-robin victims.
      const size_t j = static_cast<size_t>(++seq % ids.size());
      dp.close_flow(ids[j], now);
      ids[j] = dp.create_flow(fcfg, "reno", now).id();
      ins.flow_id = ids[j];
      enc.clear();
      ipc::encode_frame_into(enc, install_msg);
      dp.handle_frame(enc.buffer(), now);
      if ((i & 255) == 0) dp.tick(now);
    }
  };

  drive_churn(kWarmupAcks);
  ASSERT_GT(frames, 0u);
  const uint64_t recycles_before = dp.flow_table().stats().recycles;

  const uint64_t allocs =
      count_allocs_during([&] { drive_churn(kMeasuredAcks); });
  EXPECT_EQ(allocs, 0u)
      << "steady close->create->install churn allocated";
  EXPECT_GT(dp.flow_table().stats().recycles, recycles_before)
      << "measured window must include recycled creates";
  EXPECT_EQ(dp.flow_table().stats().recycles,
            dp.flow_table().stats().closes)
      << "every churn create must be served by a parked slot";
}

TEST(HotPathAlloc, PrototypeDatapathSteadyStateIsAllocationFree) {
  DatapathConfig dcfg;
  uint64_t frames = 0;
  PrototypeDatapath dp(dcfg, [&frames](std::span<const uint8_t>) { ++frames; });

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  FlowConfig fcfg;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(fcfg, "reno", now).id());
  }
  drive(dp, ids, now, kWarmupAcks);
  ASSERT_GT(frames, 0u);

  const uint64_t allocs =
      count_allocs_during([&] { drive(dp, ids, now, kMeasuredAcks); });
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace ccp::datapath
