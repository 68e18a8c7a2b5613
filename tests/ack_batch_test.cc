// End-to-end equivalence of the burst ACK intake.
//
// The contract (CcpDatapath::on_ack_batch): feeding a burst of ACKs
// through on_ack_batch produces the exact byte stream the scalar
// on_send/on_ack sequence produces in arrival order — same frames, same
// bytes — whatever the fold engine (JIT, interpreter, Verify), program
// mix, vector mode, watchdog state or profiler sampling. The twin
// harness here drives two identically-configured datapaths with the
// same randomized workload, one per-ACK and one in bursts, and compares
// the captured frames byte for byte.
//
// Telemetry is disabled for the twin comparisons so emitted_ns/span_id
// are deterministic zeros.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "datapath/datapath.hpp"
#include "datapath/flow.hpp"
#include "lang/jit/jit.hpp"
#include "telemetry/telemetry.hpp"

namespace ccp::datapath {
namespace {

using lang::jit::JitMode;

/// Pure-arithmetic program (ewma/min/max/if only). `loss` is urgent so
/// urgent emission gets exercised; `$gain` gives flows sharing the
/// program different install-time vars.
constexpr const char* kPureProgram = R"(
fold {
  volatile acked := acked + Pkt.bytes_acked            init 0;
  rtt            := ewma(rtt, Pkt.rtt, 0.125)          init 0;
  minrtt         := if(Pkt.rtt > 0, min(minrtt, Pkt.rtt), minrtt) init 0x7fffffff;
  thr            := max(thr, Pkt.rcv_rate * $gain)     init 0;
  volatile loss  := loss + Pkt.lost                    init 0 urgent;
}
control {
  WaitRtts(1.0);
  Report();
}
)";

/// Same shape but with a pow() fold: the JIT lowers it to a libm helper
/// call, so the program spills its slots to memory.
constexpr const char* kLibmProgram = R"(
fold {
  volatile acked := acked + Pkt.bytes_acked  init 0;
  p              := pow(Pkt.rtt + 1, 0.5)    init 0;
  volatile loss  := loss + Pkt.lost          init 0 urgent;
}
control {
  WaitRtts(1.0);
  Report();
}
)";

struct TelemetryGuard {
  explicit TelemetryGuard(bool on) : saved(telemetry::enabled()) {
    telemetry::set_enabled(on);
  }
  ~TelemetryGuard() { telemetry::set_enabled(saved); }
  bool saved;
};

struct JitModeGuard {
  explicit JitModeGuard(JitMode m) : saved(lang::jit::mode()) {
    lang::jit::set_mode(m);
  }
  ~JitModeGuard() { lang::jit::set_mode(saved); }
  JitMode saved;
};

struct FrameLog {
  std::vector<std::vector<uint8_t>> frames;
  CcpDatapath::FrameTx tx() {
    return [this](std::span<const uint8_t> f) {
      frames.emplace_back(f.begin(), f.end());
    };
  }
};

TimePoint at_us(int64_t us) {
  return TimePoint::epoch() + Duration::from_micros(us);
}

ipc::InstallMsg install_msg(ipc::FlowId id, const char* text,
                            std::vector<std::string> names = {},
                            std::vector<double> values = {},
                            bool vector_mode = false) {
  ipc::InstallMsg msg;
  msg.flow_id = id;
  msg.program_text = text;
  msg.var_names = std::move(names);
  msg.var_values = std::move(values);
  msg.vector_mode = vector_mode;
  return msg;
}

/// Two identical datapaths: `scalar` is driven one ACK at a time,
/// `batch` through on_ack_batch. Any install/create applies to both.
struct Twin {
  FrameLog scalar_log, batch_log;
  CcpDatapath scalar{DatapathConfig{}, scalar_log.tx()};
  CcpDatapath batch{DatapathConfig{}, batch_log.tx()};

  void create(ipc::FlowId id, TimePoint now, double watchdog_rtts = 0) {
    FlowConfig cfg;
    cfg.mss = 1460;
    cfg.init_cwnd_bytes = 14600;
    cfg.min_cwnd_bytes = 2920;
    cfg.watchdog_rtts = watchdog_rtts;
    scalar.create_flow_with_id(id, cfg, "twin", now);
    batch.create_flow_with_id(id, cfg, "twin", now);
  }

  void install(const ipc::InstallMsg& msg, TimePoint now) {
    scalar.flow(msg.flow_id)->install(msg, now);
    batch.flow(msg.flow_id)->install(msg, now);
  }

  /// Replays one burst on both sides: the scalar side walks it in
  /// arrival order exactly as a per-ACK stack would.
  void drive(const std::vector<FlowAck>& burst) {
    for (const FlowAck& fa : burst) {
      CcpFlow* flow = scalar.flow(fa.flow_id);
      if (flow == nullptr) continue;
      if (fa.sent_bytes > 0) flow->on_send(SendEvent{fa.ev.now, fa.sent_bytes});
      flow->on_ack(fa.ev);
    }
    batch.on_ack_batch(burst);
  }

  void expect_equal_frames() {
    ASSERT_EQ(scalar_log.frames.size(), batch_log.frames.size());
    for (size_t i = 0; i < scalar_log.frames.size(); ++i) {
      ASSERT_EQ(scalar_log.frames[i], batch_log.frames[i])
          << "frame " << i << " diverged";
    }
  }
};

/// Randomized mixed workload: pure-arithmetic flows, a libm flow, default
/// programs, a vector-mode flow, different var bindings on a shared
/// program, unknown ids, same-flow duplicates within one burst, losses
/// and ECN marks to trip the urgent registers.
void run_mixed_workload(uint64_t seed, int rounds) {
  Twin twin;
  const TimePoint t0 = at_us(1000);
  for (ipc::FlowId id = 1; id <= 7; ++id) twin.create(id, t0);
  twin.install(install_msg(1, kPureProgram, {"gain"}, {1.0}), t0);
  twin.install(install_msg(2, kPureProgram, {"gain"}, {1.0}), t0);
  twin.install(install_msg(3, kLibmProgram), t0);
  // Flow 4 and 7 keep the default program. Flow 5 runs vector mode.
  // Flow 6 shares kPureProgram with different vars.
  twin.install(install_msg(5, kPureProgram, {"gain"}, {1.0}, true), t0);
  twin.install(install_msg(6, kPureProgram, {"gain"}, {2.5}), t0);

  std::mt19937_64 rng(seed);
  int64_t us = 2000;
  for (int round = 0; round < rounds; ++round) {
    std::vector<FlowAck> burst;
    const size_t n = 1 + rng() % 40;  // 1..40 ACKs per burst
    for (size_t i = 0; i < n; ++i) {
      us += 1 + static_cast<int64_t>(rng() % 200);
      FlowAck fa;
      fa.flow_id = 1 + rng() % 8;  // id 8 does not exist: skipped
      fa.sent_bytes = (rng() % 3 == 0) ? 1460 * (1 + rng() % 4) : 0;
      fa.ev.now = at_us(us);
      fa.ev.bytes_acked = 1460 * (1 + rng() % 3);
      fa.ev.packets_acked = static_cast<uint32_t>(fa.ev.bytes_acked / 1460);
      fa.ev.rtt_sample = Duration::from_micros(8000 + rng() % 4000);
      fa.ev.ecn = rng() % 31 == 0;
      fa.ev.newly_lost_packets = rng() % 53 == 0 ? 1 : 0;
      fa.ev.bytes_in_flight = 14600 + rng() % 50000;
      fa.ev.packets_in_flight =
          static_cast<uint32_t>(fa.ev.bytes_in_flight / 1460);
      burst.push_back(fa);
    }
    twin.drive(burst);
  }
  twin.expect_equal_frames();
}

TEST(AckBatch, MatchesScalarPath_JitOn) {
  TelemetryGuard quiet(false);
  JitModeGuard jit(JitMode::On);
  run_mixed_workload(0xacce5501, 300);
}

TEST(AckBatch, MatchesScalarPath_Interpreter) {
  TelemetryGuard quiet(false);
  JitModeGuard jit(JitMode::Off);
  run_mixed_workload(0xacce5502, 300);
}

TEST(AckBatch, MatchesScalarPath_Verify) {
  TelemetryGuard quiet(false);
  JitModeGuard jit(JitMode::Verify);
  const uint64_t before = telemetry::metrics().jit_verify_mismatches.value();
  run_mixed_workload(0xacce5503, 200);
  // Both engines ran every fold (JIT on a shadow, interpreter
  // authoritative): they must agree bit for bit.
  EXPECT_EQ(telemetry::metrics().jit_verify_mismatches.value(), before);
}

TEST(AckBatch, SameFlowTwicePerBurstMatchesScalar) {
  TelemetryGuard quiet(false);
  JitModeGuard jit(JitMode::On);
  Twin twin;
  const TimePoint t0 = at_us(1000);
  twin.create(1, t0);
  twin.create(2, t0);
  twin.install(install_msg(1, kPureProgram, {"gain"}, {1.0}), t0);
  twin.install(install_msg(2, kPureProgram, {"gain"}, {1.0}), t0);
  // Flow 1 appears three times in one burst: each repeat must fold on
  // top of the previous repeat's registers, exactly as three separate
  // per-ACK calls would.
  std::vector<FlowAck> burst;
  for (int i = 0; i < 3; ++i) {
    FlowAck fa;
    fa.flow_id = (i == 1) ? 2u : 1u;
    fa.ev.now = at_us(2000 + 100 * i);
    fa.ev.bytes_acked = 1460;
    fa.ev.packets_acked = 1;
    fa.ev.rtt_sample = Duration::from_micros(9000 + 10 * i);
    burst.push_back(fa);
  }
  // Duplicate flow 1 again, back to back.
  burst.push_back(burst[0]);
  burst.back().ev.now = at_us(2400);
  twin.drive(burst);
  twin.expect_equal_frames();

  // Fold state must match too, not just emitted frames.
  const auto& a = twin.scalar.flow(1)->fold().state();
  const auto& b = twin.batch.flow(1)->fold().state();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "fold " << i;
}

TEST(AckBatch, WatchdogExpiryMatchesScalar) {
  TelemetryGuard quiet(false);
  JitModeGuard jit(JitMode::On);
  Twin twin;
  const TimePoint t0 = at_us(1000);
  twin.create(1, t0, /*watchdog_rtts=*/4);
  twin.create(2, t0, /*watchdog_rtts=*/4);
  twin.install(install_msg(1, kPureProgram, {"gain"}, {1.0}), t0);
  twin.install(install_msg(2, kPureProgram, {"gain"}, {1.0}), t0);
  // Warm up RTT estimates so the watchdog arms, then jump far past the
  // deadline: fallback entry emits mid-burst, and those messages must
  // land in arrival order exactly as on the per-ACK side.
  int64_t us = 2000;
  for (int i = 0; i < 20; ++i) {
    std::vector<FlowAck> burst;
    for (ipc::FlowId id = 1; id <= 2; ++id) {
      FlowAck fa;
      fa.flow_id = id;
      fa.ev.now = at_us(us += 500);
      fa.ev.bytes_acked = 1460;
      fa.ev.packets_acked = 1;
      fa.ev.rtt_sample = Duration::from_micros(10000);
      burst.push_back(fa);
    }
    twin.drive(burst);
  }
  us += 60'000'000;  // a minute of agent silence
  for (int i = 0; i < 10; ++i) {
    std::vector<FlowAck> burst;
    for (ipc::FlowId id = 1; id <= 2; ++id) {
      FlowAck fa;
      fa.flow_id = id;
      fa.ev.now = at_us(us += 500);
      fa.ev.bytes_acked = 1460;
      fa.ev.packets_acked = 1;
      fa.ev.rtt_sample = Duration::from_micros(10000);
      burst.push_back(fa);
    }
    twin.drive(burst);
  }
  twin.expect_equal_frames();
  EXPECT_TRUE(twin.batch.flow(1)->in_fallback());
  EXPECT_EQ(twin.scalar.flow(1)->in_fallback(),
            twin.batch.flow(1)->in_fallback());
}

TEST(AckBatch, ProfilerSampledAcksMatchScalar) {
  // The cycle profiler stamps sampled ACKs inside on_ack. The smallest
  // sampling period (1 rounds up to 2) samples every other ACK of every
  // flow, so the burst intake runs sampled and unsampled ACKs
  // interleaved; neither may change a byte.
  TelemetryGuard quiet(false);
  JitModeGuard jit(JitMode::On);
  telemetry::set_profile_sample(1);
  run_mixed_workload(0xacce5504, 200);
  telemetry::set_profile_sample(0);
}

}  // namespace
}  // namespace ccp::datapath
