// What every registered algorithm sees when a flow goes idle: a real
// datapath and agent over an inproc transport, a steady ACK stream,
// then an idle stretch of five report intervals. The datapath sends one
// empty Measurement for the stretch and suppresses the rest, so each
// algorithm handles exactly one zero-ACK report; the cwnd and rate it
// leaves in the datapath afterwards are pinned per algorithm.
// Suite name matches the CI sanitizer -R filter.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "algorithms/registry.hpp"
#include "datapath/datapath.hpp"
#include "ipc/transport.hpp"
#include "ipc/wire.hpp"
#include "telemetry/telemetry.hpp"
#include "util/time.hpp"

namespace ccp {
namespace {

constexpr int kActiveMs = 300;     // ~30 RTTs of ACKs: past every startup
constexpr int kAcksPerMs = 5;      // 1500 B each: 60 Mbit/s
constexpr int kIdleIntervals = 5;  // one empty report + four suppressed
constexpr int kIdleCapMs = 5'000;  // bound on the idle stretch, virtual time

/// The enforcement state each algorithm leaves in the datapath after
/// the idle stretch.
struct Pinned {
  const char* algorithm;
  uint64_t cwnd_bytes;
  double rate_bps;
};

constexpr Pinned kPinned[] = {
    {"bbr", 149940, 9371250},
    {"cubic", 723123, 0},
    {"dctcp", 513298, 0},
    {"htcp", 818065, 0},
    {"pcc", 314212, 1571062.5},
    {"reno", 517770, 0},
    {"sprout", 1379014, 6895074.3198394775},
    {"timely", 15000, 30000},
    {"vegas", 41250, 0},
    {"vegas_vector", 41250, 0},
};

struct IdleRun {
  uint64_t zero_ack_measurements = 0;  // delivered during the idle stretch
  uint64_t acks_fed = 0;               // events folded: ACKs and the loss
  uint64_t acks_reported = 0;          // sum of num_acks_folded delivered
  uint64_t reports_sent = 0;
  uint64_t agent_measurements = 0;
  uint64_t cwnd_bytes = 0;
  double rate_bps = 0;
};

IdleRun run_idle(const std::string& algorithm) {
  telemetry::set_enabled(true);
  IdleRun out;
  bool idle = false;
  auto pair = ipc::make_inproc_pair();
  datapath::CcpDatapath dp(datapath::DatapathConfig{},
                           [&](std::span<const uint8_t> f) {
                             for (const ipc::Message& msg : ipc::decode_frame(f)) {
                               const auto* m = std::get_if<ipc::MeasurementMsg>(&msg);
                               if (m == nullptr) continue;
                               out.acks_reported += m->num_acks_folded;
                               if (idle && m->num_acks_folded == 0) {
                                 ++out.zero_ack_measurements;
                               }
                             }
                             pair.a->send_frame(f);
                           });
  agent::CcpAgent agent(agent::AgentConfig{}, [&](std::span<const uint8_t> f) {
    pair.b->send_frame(f);
  });
  algorithms::register_builtin_algorithms(agent);

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  // No smoothing: the datapath's cwnd is the algorithm's latest decision,
  // not an ACK-clocked ramp toward it.
  datapath::FlowConfig cfg;
  cfg.smooth_cwnd = false;
  const ipc::FlowId id = dp.create_flow(cfg, algorithm, now).id();
  const ipc::FrameSink agent_rx = [&](std::span<const uint8_t> f) {
    agent.handle_frame(f);
  };
  const ipc::FrameSink dp_rx = [&](std::span<const uint8_t> f) {
    dp.handle_frame(f, now);
  };
  const auto step = [&] {
    now += Duration::from_millis(1);
    dp.tick(now);
    pair.b->drain_frames(agent_rx);
    pair.a->drain_frames(dp_rx);
  };
  step();

  datapath::FlowAck fa;
  fa.flow_id = id;
  fa.sent_bytes = 1500;
  fa.ev.bytes_acked = 1500;
  fa.ev.packets_acked = 1;
  fa.ev.rtt_sample = Duration::from_millis(10);
  fa.ev.bytes_in_flight = 20 * 1500;
  fa.ev.packets_in_flight = 20;
  for (int ms = 0; ms < kActiveMs; ++ms) {
    std::vector<datapath::FlowAck> burst(kAcksPerMs, fa);
    for (int i = 0; i < kAcksPerMs; ++i) {
      burst[i].ev.now = now + Duration::from_micros(200 * i);
    }
    dp.on_ack_batch(burst);
    out.acks_fed += kAcksPerMs;
    // One loss halfway: loss-based algorithms leave slow start.
    if (ms == kActiveMs / 2) {
      dp.flow(id)->on_loss(datapath::LossEvent{now, 1, fa.ev.bytes_in_flight});
      ++out.acks_fed;  // a folded event, counted in num_acks_folded
    }
    step();
  }

  // Idle from the last ACK on: the report that carries the last ACKs (if
  // one is still due), then kIdleIntervals Report() ops that fold
  // nothing, of which the first is sent and the rest are suppressed.
  datapath::CcpFlow* flow = dp.flow(id);
  idle = true;
  const uint64_t suppressed0 = telemetry::metrics().dp_reports_suppressed.value();
  for (int ms = 0; ms < kIdleCapMs; ++ms) {
    if (telemetry::metrics().dp_reports_suppressed.value() - suppressed0 ==
        kIdleIntervals - 1) {
      break;
    }
    step();
  }
  EXPECT_EQ(telemetry::metrics().dp_reports_suppressed.value() - suppressed0,
            static_cast<uint64_t>(kIdleIntervals - 1))
      << algorithm << ": idle stretch did not reach " << kIdleIntervals
      << " report intervals";

  out.reports_sent = flow->reports_sent();
  out.agent_measurements = agent.stats().measurements;
  out.cwnd_bytes = flow->cwnd_bytes();
  out.rate_bps = flow->pacing_rate_bps();
  return out;
}

void expect_idle_reports_once(const std::string& algorithm) {
  const Pinned* pin = nullptr;
  for (const Pinned& p : kPinned) {
    if (algorithm == p.algorithm) pin = &p;
  }
  ASSERT_NE(pin, nullptr) << algorithm << " has no pinned values";
  const IdleRun run = run_idle(algorithm);
  EXPECT_EQ(run.zero_ack_measurements, 1u) << algorithm;
  // Suppression loses no ACK and no report: every ACK was reported, and
  // the agent handled every report the flow sent.
  EXPECT_EQ(run.acks_reported, run.acks_fed) << algorithm;
  EXPECT_EQ(run.agent_measurements, run.reports_sent) << algorithm;
  EXPECT_EQ(run.cwnd_bytes, pin->cwnd_bytes) << algorithm;
  EXPECT_NEAR(run.rate_bps, pin->rate_bps, 1e-9 * std::abs(pin->rate_bps))
      << algorithm;
}

TEST(IdleReports, EveryRegisteredAlgorithmIsPinned) {
  std::vector<std::string> pinned;
  for (const Pinned& p : kPinned) pinned.emplace_back(p.algorithm);
  EXPECT_EQ(pinned, algorithms::builtin_algorithm_names());
}

TEST(IdleReports, Bbr) { expect_idle_reports_once("bbr"); }
TEST(IdleReports, Cubic) { expect_idle_reports_once("cubic"); }
TEST(IdleReports, Dctcp) { expect_idle_reports_once("dctcp"); }
TEST(IdleReports, Htcp) { expect_idle_reports_once("htcp"); }
TEST(IdleReports, Pcc) { expect_idle_reports_once("pcc"); }
TEST(IdleReports, Reno) { expect_idle_reports_once("reno"); }
TEST(IdleReports, Sprout) { expect_idle_reports_once("sprout"); }
TEST(IdleReports, Timely) { expect_idle_reports_once("timely"); }
TEST(IdleReports, Vegas) { expect_idle_reports_once("vegas"); }
TEST(IdleReports, VegasVector) { expect_idle_reports_once("vegas_vector"); }

}  // namespace
}  // namespace ccp
