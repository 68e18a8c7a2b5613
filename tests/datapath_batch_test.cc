#include <gtest/gtest.h>

#include "datapath/datapath.hpp"

namespace ccp::datapath {
namespace {

TimePoint at_ms(int64_t ms) { return TimePoint::epoch() + Duration::from_millis(ms); }

struct FrameLog {
  std::vector<std::vector<ipc::Message>> frames;
  CcpDatapath::FrameTx tx() {
    return [this](std::span<const uint8_t> frame) {
      frames.push_back(ipc::decode_frame(frame));
    };
  }
  size_t total_msgs() const {
    size_t n = 0;
    for (const auto& f : frames) n += f.size();
    return n;
  }
};

TEST(CcpDatapath, CreateFlowAnnouncesToAgent) {
  FrameLog log;
  CcpDatapath dp(DatapathConfig{}, log.tx());
  FlowConfig cfg;
  cfg.mss = 1460;
  dp.create_flow(cfg, "cubic", at_ms(0));
  ASSERT_EQ(log.frames.size(), 1u);
  const auto& create = std::get<ipc::CreateMsg>(log.frames[0][0]);
  EXPECT_EQ(create.alg_hint, "cubic");
  EXPECT_EQ(create.mss, 1460u);
  EXPECT_EQ(dp.num_flows(), 1u);
}

TEST(CcpDatapath, FlowIdsAreUniqueAndLookupWorks) {
  FrameLog log;
  CcpDatapath dp(DatapathConfig{}, log.tx());
  auto& f1 = dp.create_flow(FlowConfig{}, "", at_ms(0));
  auto& f2 = dp.create_flow(FlowConfig{}, "", at_ms(0));
  EXPECT_NE(f1.id(), f2.id());
  EXPECT_EQ(dp.flow(f1.id()), &f1);
  EXPECT_EQ(dp.flow(f2.id()), &f2);
  EXPECT_EQ(dp.flow(9999), nullptr);
}

TEST(CcpDatapath, CloseFlowNotifiesAndRemoves) {
  FrameLog log;
  CcpDatapath dp(DatapathConfig{}, log.tx());
  auto& flow = dp.create_flow(FlowConfig{}, "", at_ms(0));
  const ipc::FlowId id = flow.id();
  dp.close_flow(id, at_ms(1));
  EXPECT_EQ(dp.num_flows(), 0u);
  EXPECT_EQ(dp.flow(id), nullptr);
  bool saw_close = false;
  for (const auto& frame : log.frames) {
    for (const auto& msg : frame) {
      if (std::holds_alternative<ipc::FlowCloseMsg>(msg)) saw_close = true;
    }
  }
  EXPECT_TRUE(saw_close);
  // Closing twice is harmless.
  dp.close_flow(id, at_ms(2));
}

TEST(CcpDatapath, CloseRidesTheNextCreateFrame) {
  FrameLog log;
  DatapathConfig cfg;
  cfg.flush_interval = Duration::from_millis(10);
  CcpDatapath dp(cfg, log.tx());
  const ipc::FlowId old_id = dp.create_flow(FlowConfig{}, "", at_ms(0)).id();
  ASSERT_EQ(log.frames.size(), 1u);  // the Create is urgent
  dp.close_flow(old_id, at_ms(1));
  EXPECT_EQ(log.frames.size(), 1u) << "a close alone must not send a frame";
  EXPECT_EQ(dp.num_flows(), 0u);
  const ipc::FlowId new_id = dp.create_flow(FlowConfig{}, "", at_ms(1)).id();
  ASSERT_EQ(log.frames.size(), 2u);
  const auto& frame = log.frames.back();
  ASSERT_EQ(frame.size(), 2u);
  ASSERT_TRUE(std::holds_alternative<ipc::FlowCloseMsg>(frame[0]));
  EXPECT_EQ(std::get<ipc::FlowCloseMsg>(frame[0]).flow_id, old_id);
  ASSERT_TRUE(std::holds_alternative<ipc::CreateMsg>(frame[1]));
  EXPECT_EQ(std::get<ipc::CreateMsg>(frame[1]).flow_id, new_id);
}

TEST(CcpDatapath, TickPastTheIntervalFlushesALoneClose) {
  FrameLog log;
  DatapathConfig cfg;
  cfg.flush_interval = Duration::from_millis(10);
  CcpDatapath dp(cfg, log.tx());
  const ipc::FlowId a = dp.create_flow(FlowConfig{}, "", at_ms(0)).id();
  const size_t frames0 = log.frames.size();
  dp.tick(at_ms(20));
  dp.close_flow(a, at_ms(20));
  dp.tick(at_ms(29));  // 9 ms old: still held
  EXPECT_EQ(log.frames.size(), frames0);
  dp.tick(at_ms(30));
  ASSERT_EQ(log.frames.size(), frames0 + 1);
  ASSERT_EQ(log.frames.back().size(), 1u);
  EXPECT_EQ(std::get<ipc::FlowCloseMsg>(log.frames.back()[0]).flow_id, a);
  // flush() delivers a held close too.
  const ipc::FlowId b = dp.create_flow(FlowConfig{}, "", at_ms(31)).id();
  dp.close_flow(b, at_ms(31));
  EXPECT_EQ(log.frames.size(), frames0 + 2);  // only b's Create went out
  dp.flush();
  ASSERT_EQ(log.frames.size(), frames0 + 3);
  ASSERT_EQ(log.frames.back().size(), 1u);
  EXPECT_EQ(std::get<ipc::FlowCloseMsg>(log.frames.back()[0]).flow_id, b);
}

TEST(CcpDatapath, ZeroFlushIntervalSendsCloseAtOnce) {
  FrameLog log;
  CcpDatapath dp(DatapathConfig{}, log.tx());  // flush_interval == 0
  const ipc::FlowId id = dp.create_flow(FlowConfig{}, "", at_ms(0)).id();
  const size_t frames0 = log.frames.size();
  dp.close_flow(id, at_ms(1));
  ASSERT_EQ(log.frames.size(), frames0 + 1);
  ASSERT_EQ(log.frames.back().size(), 1u);
  EXPECT_EQ(std::get<ipc::FlowCloseMsg>(log.frames.back()[0]).flow_id, id);
}

TEST(CcpDatapath, ZeroFlushIntervalSendsImmediately) {
  FrameLog log;
  DatapathConfig cfg;
  cfg.flush_interval = Duration::zero();
  CcpDatapath dp(cfg, log.tx());
  auto& flow = dp.create_flow(FlowConfig{}, "", at_ms(0));
  const size_t frames_before = log.frames.size();
  // Drive ACKs through one RTT to force a report.
  for (int ms = 1; ms <= 15; ++ms) {
    AckEvent ev;
    ev.now = at_ms(ms);
    ev.bytes_acked = 1000;
    ev.packets_acked = 1;
    ev.rtt_sample = Duration::from_millis(10);
    flow.on_ack(ev);
  }
  EXPECT_GT(log.frames.size(), frames_before);
}

TEST(CcpDatapath, BatchingCoalescesReportsAcrossFlows) {
  FrameLog log;
  DatapathConfig cfg;
  cfg.flush_interval = Duration::from_millis(100);  // hold everything
  cfg.max_batch_msgs = 1000;
  CcpDatapath dp(cfg, log.tx());
  std::vector<CcpFlow*> flows;
  for (int i = 0; i < 5; ++i) {
    flows.push_back(&dp.create_flow(FlowConfig{}, "", at_ms(0)));
  }
  // Creates are urgent: they flushed immediately.
  const size_t frames_after_create = log.frames.size();

  dp.tick(at_ms(0));
  for (int ms = 1; ms <= 15; ++ms) {
    for (auto* flow : flows) {
      AckEvent ev;
      ev.now = at_ms(ms);
      ev.bytes_acked = 1000;
      ev.packets_acked = 1;
      ev.rtt_sample = Duration::from_millis(10);
      flow->on_ack(ev);
    }
    dp.tick(at_ms(ms));
  }
  // Reports are pending, none sent yet (within flush interval).
  EXPECT_EQ(log.frames.size(), frames_after_create);
  dp.tick(at_ms(200));  // past the flush interval
  ASSERT_GT(log.frames.size(), frames_after_create);
  // The flushed frame must contain multiple flows' reports.
  EXPECT_GE(log.frames.back().size(), 5u);
}

TEST(CcpDatapath, MaxBatchForcesFlush) {
  FrameLog log;
  DatapathConfig cfg;
  cfg.flush_interval = Duration::from_secs(10);
  cfg.max_batch_msgs = 3;
  CcpDatapath dp(cfg, log.tx());
  auto& flow = dp.create_flow(FlowConfig{}, "", at_ms(0));
  const size_t frames_before = log.frames.size();
  dp.tick(at_ms(0));
  for (int ms = 1; ms <= 100; ++ms) {
    AckEvent ev;
    ev.now = at_ms(ms);
    ev.bytes_acked = 1000;
    ev.packets_acked = 1;
    ev.rtt_sample = Duration::from_millis(10);
    flow.on_ack(ev);
    dp.tick(at_ms(ms));
  }
  // ~10 reports hit the 3-message cap: frames went out.
  EXPECT_GT(log.frames.size(), frames_before);
  for (size_t i = frames_before; i < log.frames.size(); ++i) {
    EXPECT_LE(log.frames[i].size(), 3u);
  }
}

TEST(CcpDatapath, UrgentBypassesBatching) {
  FrameLog log;
  DatapathConfig cfg;
  cfg.flush_interval = Duration::from_secs(10);
  CcpDatapath dp(cfg, log.tx());
  auto& flow = dp.create_flow(FlowConfig{}, "", at_ms(0));
  const size_t frames_before = log.frames.size();
  LossEvent loss;
  loss.now = at_ms(1);
  flow.on_loss(loss);
  ASSERT_GT(log.frames.size(), frames_before);
  bool saw_urgent = false;
  for (const auto& msg : log.frames.back()) {
    if (std::holds_alternative<ipc::UrgentMsg>(msg)) saw_urgent = true;
  }
  EXPECT_TRUE(saw_urgent);
}

TEST(CcpDatapath, MalformedFrameCountedAndDropped) {
  FrameLog log;
  CcpDatapath dp(DatapathConfig{}, log.tx());
  std::vector<uint8_t> junk = {0xff, 0xff, 0x00, 0x01};
  dp.handle_frame(junk, at_ms(0));
  EXPECT_EQ(dp.stats().decode_errors, 1u);
}

TEST(CcpDatapath, BadInstallCountedFlowSurvives) {
  FrameLog log;
  CcpDatapath dp(DatapathConfig{}, log.tx());
  auto& flow = dp.create_flow(FlowConfig{}, "", at_ms(0));
  ipc::InstallMsg bad;
  bad.flow_id = flow.id();
  bad.program_text = "this is not a program";
  dp.handle_frame(ipc::encode_frame(ipc::Message(bad)), at_ms(1));
  EXPECT_EQ(dp.stats().install_errors, 1u);
  EXPECT_EQ(dp.num_flows(), 1u);
}

TEST(CcpDatapath, InstallForUnknownFlowIgnored) {
  FrameLog log;
  CcpDatapath dp(DatapathConfig{}, log.tx());
  ipc::InstallMsg msg;
  msg.flow_id = 424242;
  msg.program_text = "control { Report(); }";
  EXPECT_NO_THROW(dp.handle_frame(ipc::encode_frame(ipc::Message(msg)), at_ms(0)));
}

TEST(CcpDatapath, DispatchesInstallToRightFlow) {
  FrameLog log;
  CcpDatapath dp(DatapathConfig{}, log.tx());
  FlowConfig fcfg;
  fcfg.smooth_cwnd = false;
  auto& f1 = dp.create_flow(fcfg, "", at_ms(0));
  auto& f2 = dp.create_flow(fcfg, "", at_ms(0));
  ipc::InstallMsg msg;
  msg.flow_id = f2.id();
  msg.program_text = "control { Cwnd(77000); WaitRtts(1.0); Report(); }";
  dp.handle_frame(ipc::encode_frame(ipc::Message(msg)), at_ms(1));
  EXPECT_EQ(f2.cwnd_bytes(), 77000u);
  EXPECT_NE(f1.cwnd_bytes(), 77000u);
}

TEST(CcpDatapath, StatsCountTraffic) {
  FrameLog log;
  CcpDatapath dp(DatapathConfig{}, log.tx());
  dp.create_flow(FlowConfig{}, "", at_ms(0));
  EXPECT_EQ(dp.stats().frames_sent, 1u);
  EXPECT_EQ(dp.stats().msgs_sent, 1u);
  EXPECT_GT(dp.stats().bytes_sent, 0u);
}

}  // namespace
}  // namespace ccp::datapath
