// Tests for the second datapath (the paper's §3 prototype) and the
// agent's capability translation — the executable form of "write once,
// run everywhere" (§1).
#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "datapath/prototype_datapath.hpp"
#include "sim/ccp_host.hpp"
#include "sim/dumbbell.hpp"
#include "telemetry/telemetry.hpp"

namespace ccp {
namespace {

using namespace sim;

TimePoint at_ms(int64_t ms) { return TimePoint::epoch() + Duration::from_millis(ms); }

datapath::AckEvent ack_at(TimePoint now, uint64_t bytes = 1000) {
  datapath::AckEvent ev;
  ev.now = now;
  ev.bytes_acked = bytes;
  ev.packets_acked = 1;
  ev.rtt_sample = Duration::from_millis(10);
  return ev;
}

TEST(PrototypeDatapath, AnnouncesLimitedCapability) {
  std::vector<ipc::Message> sent;
  datapath::PrototypeDatapath dp(
      datapath::DatapathConfig{},
      [&](std::span<const uint8_t> frame) {
        for (auto& m : ipc::decode_frame(frame)) sent.push_back(std::move(m));
      });
  dp.create_flow(datapath::FlowConfig{}, "reno", at_ms(0));
  ASSERT_FALSE(sent.empty());
  const auto& create = std::get<ipc::CreateMsg>(sent[0]);
  EXPECT_FALSE(create.supports_programs);
}

TEST(PrototypeDatapath, RejectsInstallAcceptsDirectControl) {
  std::vector<ipc::Message> sent;
  datapath::PrototypeDatapath dp(
      datapath::DatapathConfig{},
      [&](std::span<const uint8_t> frame) {
        for (auto& m : ipc::decode_frame(frame)) sent.push_back(std::move(m));
      });
  auto& flow = dp.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "", at_ms(0));

  ipc::InstallMsg install;
  install.flow_id = flow.id();
  install.program_text = "control { Report(); }";
  dp.handle_frame(ipc::encode_frame(ipc::Message(install)), at_ms(1));
  EXPECT_EQ(dp.unsupported_msgs(), 1u);

  ipc::DirectControlMsg dc;
  dc.flow_id = flow.id();
  dc.cwnd_bytes = 99 * 1460.0;
  dc.rate_bps = 5e6;
  dp.handle_frame(ipc::encode_frame(ipc::Message(dc)), at_ms(2));
  // Smooth increase: target set; ramp via ACKs.
  for (int ms = 3; ms < 200; ++ms) flow.on_ack(ack_at(at_ms(ms), 1460));
  EXPECT_EQ(flow.cwnd_bytes(), 99u * 1460u);
  EXPECT_DOUBLE_EQ(flow.pacing_rate_bps(), 5e6);
}

TEST(PrototypeDatapath, MalformedFrameIsCounted) {
  datapath::PrototypeDatapath dp(datapath::DatapathConfig{},
                                 [](std::span<const uint8_t>) {});
  auto& flow = dp.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "", at_ms(0));
  const uint64_t c0 = telemetry::metrics().dp_decode_errors.value();
  const std::vector<uint8_t> junk = {0xff, 0xff};  // claims 65,535 messages
  dp.handle_frame(junk, at_ms(1));
  EXPECT_EQ(telemetry::metrics().dp_decode_errors.value() - c0, 1u);

  // The datapath keeps serving the agent after the drop.
  ipc::DirectControlMsg dc;
  dc.flow_id = flow.id();
  dc.rate_bps = 7e6;
  dp.handle_frame(ipc::encode_frame(ipc::Message(dc)), at_ms(2));
  EXPECT_DOUBLE_EQ(flow.pacing_rate_bps(), 7e6);
  EXPECT_EQ(telemetry::metrics().dp_decode_errors.value() - c0, 1u);
}

TEST(PrototypeDatapath, ReportsFixedLayoutOncePerRtt) {
  std::vector<ipc::MeasurementMsg> reports;
  datapath::PrototypeDatapath dp(
      datapath::DatapathConfig{},
      [&](std::span<const uint8_t> frame) {
        for (auto& m : ipc::decode_frame(frame)) {
          if (auto* meas = std::get_if<ipc::MeasurementMsg>(&m)) {
            reports.push_back(*meas);
          }
        }
      });
  auto& flow = dp.create_flow(datapath::FlowConfig{1000, 10000}, "", at_ms(0));
  for (int ms = 1; ms <= 60; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  ASSERT_GE(reports.size(), 3u);
  ASSERT_LE(reports.size(), 8u);  // ~once per 10 ms RTT
  EXPECT_EQ(reports.back().fields.size(), ipc::prototype_field_names().size());
  // acked accumulates between reports and the rtt field carries the EWMA.
  EXPECT_GT(reports.back().fields[0], 0.0);
  EXPECT_NEAR(reports.back().fields[6], 10000.0, 500.0);
}

TEST(PrototypeDatapath, AgentTranslationDrivesReno) {
  // Full loop in the simulator: reno in the agent, prototype datapath on
  // the host. The agent never sends Install; everything arrives as
  // DirectControl, and the flow still does AIMD.
  EventQueue q;
  auto cfg = DumbbellConfig::make(50e6, Duration::from_millis(10), 1.0);
  Dumbbell net(q, cfg);
  SimPrototypeHost host(q, CcpHostConfig{});
  auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
  const TimePoint end = TimePoint::epoch() + Duration::from_secs(8);
  host.start(end);
  auto& snd = net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch());
  q.run_until(end);

  const double tput = snd.delivered_bytes() * 8.0 / 8 / 1e6;
  EXPECT_GT(tput, 30.0);  // the link is well used...
  EXPECT_GT(flow.reports_sent(), 100u);  // ...with per-RTT reporting
  EXPECT_EQ(host.datapath().unsupported_msgs(), 0u);  // agent never Installed
  EXPECT_GT(host.agent().stats().measurements, 100u);
}

TEST(PrototypeDatapath, SameAlgorithmBothDatapathsComparable) {
  auto run_full = [] {
    EventQueue q;
    auto cfg = DumbbellConfig::make(50e6, Duration::from_millis(10), 1.0);
    Dumbbell net(q, cfg);
    SimCcpHost host(q, CcpHostConfig{});
    auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
    const TimePoint end = TimePoint::epoch() + Duration::from_secs(8);
    host.start(end);
    auto& snd = net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch());
    q.run_until(end);
    return snd.delivered_bytes() * 8.0 / 8 / 1e6;
  };
  auto run_proto = [] {
    EventQueue q;
    auto cfg = DumbbellConfig::make(50e6, Duration::from_millis(10), 1.0);
    Dumbbell net(q, cfg);
    SimPrototypeHost host(q, CcpHostConfig{});
    auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
    const TimePoint end = TimePoint::epoch() + Duration::from_secs(8);
    host.start(end);
    auto& snd = net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch());
    q.run_until(end);
    return snd.delivered_bytes() * 8.0 / 8 / 1e6;
  };
  const double full = run_full();
  const double proto = run_proto();
  // Same algorithm, two datapaths: macroscopic behavior must agree.
  EXPECT_NEAR(proto, full, full * 0.25);
}

TEST(PrototypeDatapath, CloseFlowCleansUp) {
  std::vector<ipc::Message> sent;
  datapath::PrototypeDatapath dp(
      datapath::DatapathConfig{},
      [&](std::span<const uint8_t> frame) {
        for (auto& m : ipc::decode_frame(frame)) sent.push_back(std::move(m));
      });
  auto& flow = dp.create_flow(datapath::FlowConfig{}, "", at_ms(0));
  const ipc::FlowId id = flow.id();
  dp.close_flow(id, at_ms(1));
  EXPECT_EQ(dp.num_flows(), 0u);
  EXPECT_EQ(dp.flow(id), nullptr);
  bool saw_close = false;
  for (const auto& m : sent) {
    if (std::holds_alternative<ipc::FlowCloseMsg>(m)) saw_close = true;
  }
  EXPECT_TRUE(saw_close);
}

}  // namespace
}  // namespace ccp
