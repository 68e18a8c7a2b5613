#include <gtest/gtest.h>

#include "builtin_installs.hpp"
#include "datapath/flow.hpp"
#include "lang/error.hpp"
#include "telemetry/telemetry.hpp"

namespace ccp::datapath {
namespace {

/// Collects everything a flow emits.
struct SinkLog {
  std::vector<ipc::MeasurementMsg> reports;
  std::vector<ipc::UrgentMsg> urgents;

  MessageSink sink() {
    return [this](ipc::Message msg, bool) {
      if (auto* m = std::get_if<ipc::MeasurementMsg>(&msg)) reports.push_back(*m);
      if (auto* u = std::get_if<ipc::UrgentMsg>(&msg)) urgents.push_back(*u);
    };
  }
};

FlowConfig config() {
  FlowConfig cfg;
  cfg.mss = 1000;
  cfg.init_cwnd_bytes = 10000;
  cfg.min_cwnd_bytes = 2000;
  return cfg;
}

AckEvent ack_at(TimePoint now, uint64_t bytes = 1000,
                Duration rtt = Duration::from_millis(10)) {
  AckEvent ev;
  ev.now = now;
  ev.bytes_acked = bytes;
  ev.packets_acked = 1;
  ev.rtt_sample = rtt;
  return ev;
}

TimePoint at_ms(int64_t ms) { return TimePoint::epoch() + Duration::from_millis(ms); }

/// Report() ops that sent nothing (ccp_dp_reports_suppressed_total); the
/// tests that read it switch telemetry recording on first.
uint64_t suppressed_reports() {
  return telemetry::metrics().dp_reports_suppressed.value();
}

ipc::InstallMsg install_msg(ipc::FlowId id, const std::string& text,
                            std::vector<std::string> names = {},
                            std::vector<double> values = {}) {
  ipc::InstallMsg msg;
  msg.flow_id = id;
  msg.program_text = text;
  msg.var_names = std::move(names);
  msg.var_values = std::move(values);
  return msg;
}

TEST(CcpFlow, DefaultProgramReportsOncePerRtt) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  // Feed one ACK per ms for 50 ms at RTT 10 ms.
  for (int ms = 1; ms <= 50; ++ms) {
    flow.on_ack(ack_at(at_ms(ms)));
  }
  // ~5 RTTs elapsed: expect roughly 4-6 reports.
  EXPECT_GE(log.reports.size(), 3u);
  EXPECT_LE(log.reports.size(), 7u);
  // Reports carry the default program's fields; acked sums ~10 ACKs.
  EXPECT_GT(log.reports.back().num_acks_folded, 5u);
}

TEST(CcpFlow, ReportSeqIncrements) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  for (int ms = 1; ms <= 100; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  ASSERT_GE(log.reports.size(), 2u);
  for (size_t i = 1; i < log.reports.size(); ++i) {
    EXPECT_EQ(log.reports[i].report_seq, log.reports[i - 1].report_seq + 1);
  }
}

TEST(CcpFlow, LossTriggersUrgent) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  flow.on_ack(ack_at(at_ms(1)));
  LossEvent loss;
  loss.now = at_ms(2);
  loss.lost_packets = 1;
  flow.on_loss(loss);
  ASSERT_EQ(log.urgents.size(), 1u);
  EXPECT_EQ(log.urgents[0].kind, ipc::UrgentKind::Loss);
}

TEST(CcpFlow, TimeoutTriggersUrgent) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  flow.on_ack(ack_at(at_ms(1)));
  flow.on_timeout(TimeoutEvent{at_ms(300)});
  ASSERT_GE(log.urgents.size(), 1u);
  EXPECT_EQ(log.urgents.back().kind, ipc::UrgentKind::Timeout);
}

TEST(CcpFlow, InstallAppliesCwndImmediately) {
  SinkLog log;
  FlowConfig cfg = config();
  cfg.smooth_cwnd = false;
  CcpFlow flow(1, cfg, log.sink());
  flow.install(install_msg(1, R"(
    control { Cwnd($c); WaitRtts(1.0); Report(); }
  )", {"c"}, {50000.0}), at_ms(1));
  EXPECT_EQ(flow.cwnd_bytes(), 50000u);
}

TEST(CcpFlow, SmoothCwndRampsAckClocked) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());  // smooth_cwnd default on
  flow.install(install_msg(1, R"(
    control { Cwnd($c); WaitRtts(1.0); Report(); }
  )", {"c"}, {50000.0}), at_ms(1));
  // Increase is a target, not a jump.
  EXPECT_EQ(flow.cwnd_bytes(), 10000u);
  flow.on_ack(ack_at(at_ms(2), 3000));
  EXPECT_EQ(flow.cwnd_bytes(), 13000u);
  flow.on_ack(ack_at(at_ms(3), 40000));
  EXPECT_EQ(flow.cwnd_bytes(), 50000u);  // clamped at target
}

TEST(CcpFlow, CwndDecreaseIsImmediate) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  flow.install(install_msg(1, R"(
    control { Cwnd($c); WaitRtts(1.0); Report(); }
  )", {"c"}, {4000.0}), at_ms(1));
  EXPECT_EQ(flow.cwnd_bytes(), 4000u);
}

TEST(CcpFlow, CwndClampsToConfiguredBounds) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  flow.install(install_msg(1, R"(
    control { Cwnd(1); WaitRtts(1.0); Report(); }
  )"), at_ms(1));
  EXPECT_EQ(flow.cwnd_bytes(), 2000u);  // min_cwnd_bytes
}

TEST(CcpFlow, RateApplied) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  flow.install(install_msg(1, R"(
    control { Rate($r); WaitRtts(1.0); Report(); }
  )", {"r"}, {1.25e6}), at_ms(1));
  EXPECT_DOUBLE_EQ(flow.pacing_rate_bps(), 1.25e6);
}

TEST(CcpFlow, BadProgramRejectedOldKeepsRunning) {
  SinkLog log;
  FlowConfig cfg = config();
  cfg.smooth_cwnd = false;
  CcpFlow flow(1, cfg, log.sink());
  flow.install(install_msg(1, "control { Cwnd(30000); WaitRtts(1.0); Report(); }"),
               at_ms(1));
  EXPECT_EQ(flow.cwnd_bytes(), 30000u);
  EXPECT_THROW(flow.install(install_msg(1, "control { Cwnd(1 }"), at_ms(2)),
               lang::ProgramError);
  EXPECT_THROW(flow.install(install_msg(1, "control { Cwnd(9999999); }"), at_ms(2)),
               lang::ProgramError);  // no Report
  // Old program still enforced.
  EXPECT_EQ(flow.cwnd_bytes(), 30000u);
  for (int ms = 2; ms < 30; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  EXPECT_FALSE(log.reports.empty());
}

TEST(CcpFlow, UnboundVariableRejected) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  EXPECT_THROW(
      flow.install(install_msg(1, "control { Cwnd($c); WaitRtts(1.0); Report(); }"),
                   at_ms(1)),
      lang::ProgramError);
  EXPECT_THROW(
      flow.install(install_msg(1, "control { Cwnd($c); WaitRtts(1.0); Report(); }",
                               {"nope"}, {1.0}),
                   at_ms(1)),
      lang::ProgramError);
}

TEST(CcpFlow, WaitUsesAbsoluteTime) {
  telemetry::set_enabled(true);
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  flow.install(install_msg(1, R"(
    control { Wait(5000); Report(); }
  )"), at_ms(0));  // 5 ms wait
  const uint64_t suppressed0 = suppressed_reports();
  flow.tick(at_ms(4));
  EXPECT_TRUE(log.reports.empty());
  EXPECT_EQ(suppressed_reports() - suppressed0, 0u);
  // The flow never folds an event, so each Report() step is suppressed:
  // the counter shows when the program reached one.
  flow.tick(at_ms(6));
  EXPECT_TRUE(log.reports.empty());
  EXPECT_EQ(suppressed_reports() - suppressed0, 1u);
  // Program loops: another Report() ~5 ms later.
  flow.tick(at_ms(12));
  EXPECT_TRUE(log.reports.empty());
  EXPECT_EQ(suppressed_reports() - suppressed0, 2u);
}

TEST(CcpFlow, WaitRttsScalesWithMeasuredRtt) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  // Prime the RTT estimate at 20 ms.
  for (int i = 1; i <= 5; ++i) {
    flow.on_ack(ack_at(at_ms(i), 1000, Duration::from_millis(20)));
  }
  log.reports.clear();
  flow.install(install_msg(1, R"(
    control { WaitRtts(2.0); Report(); }
  )"), at_ms(10));
  flow.tick(at_ms(30));  // 20 ms < 2 RTTs (40 ms)
  EXPECT_TRUE(log.reports.empty());
  flow.tick(at_ms(55));
  EXPECT_EQ(log.reports.size(), 1u);
}

TEST(CcpFlow, ControlProgramPulsePattern) {
  // The paper's BBR pulse: verify rates actually alternate in the
  // datapath without agent involvement.
  telemetry::set_enabled(true);
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  flow.install(install_msg(1, R"(
    control {
      Rate(1.25 * $r); WaitRtts(1.0); Report();
      Rate(0.75 * $r); WaitRtts(1.0); Report();
      Rate($r);        WaitRtts(6.0); Report();
    }
  )", {"r"}, {1e6}), at_ms(0));
  const uint64_t suppressed0 = suppressed_reports();
  // RTT defaults to 10 ms (default_report_interval) before samples.
  EXPECT_DOUBLE_EQ(flow.pacing_rate_bps(), 1.25e6);
  flow.tick(at_ms(11));
  EXPECT_DOUBLE_EQ(flow.pacing_rate_bps(), 0.75e6);
  // No ACK ever arrives, so every Report() step is suppressed while the
  // pulse keeps running.
  EXPECT_TRUE(log.reports.empty());
  EXPECT_EQ(suppressed_reports() - suppressed0, 1u);
  flow.tick(at_ms(22));
  EXPECT_DOUBLE_EQ(flow.pacing_rate_bps(), 1e6);
  EXPECT_TRUE(log.reports.empty());
  EXPECT_EQ(suppressed_reports() - suppressed0, 2u);
  flow.tick(at_ms(83));  // 6 RTTs later
  EXPECT_DOUBLE_EQ(flow.pacing_rate_bps(), 1.25e6);  // looped
  EXPECT_TRUE(log.reports.empty());
  EXPECT_EQ(suppressed_reports() - suppressed0, 3u);
}

TEST(CcpFlow, IdleIntervalReportsOnce) {
  telemetry::set_enabled(true);
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  const auto program = install_msg(1, R"(
    fold { volatile acked := acked + Pkt.bytes_acked init 0; }
    control { Wait(10000); Report(); }
  )");
  flow.install(program, at_ms(0));
  for (int ms = 1; ms <= 9; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  flow.tick(at_ms(10));
  ASSERT_EQ(log.reports.size(), 1u);
  EXPECT_EQ(log.reports[0].num_acks_folded, 9u);

  // The first interval without an event still reports, empty.
  flow.tick(at_ms(20));
  ASSERT_EQ(log.reports.size(), 2u);
  EXPECT_EQ(log.reports[1].num_acks_folded, 0u);
  EXPECT_DOUBLE_EQ(log.reports[1].fields[0], 0.0);

  // Then silence: k idle intervals send nothing and count k skips.
  const uint64_t suppressed0 = suppressed_reports();
  for (int ms = 30; ms <= 50; ms += 10) flow.tick(at_ms(ms));
  EXPECT_EQ(log.reports.size(), 2u);
  EXPECT_EQ(suppressed_reports() - suppressed0, 3u);

  // One ACK: the next report carries exactly it, with a contiguous seq
  // and the volatile summed from its reset at the last report sent.
  flow.on_ack(ack_at(at_ms(55), 1500));
  flow.tick(at_ms(60));
  ASSERT_EQ(log.reports.size(), 3u);
  EXPECT_EQ(log.reports[2].num_acks_folded, 1u);
  EXPECT_EQ(log.reports[2].report_seq, 2u);
  EXPECT_DOUBLE_EQ(log.reports[2].fields[0], 1500.0);

  // After activity the next empty interval reports once more.
  flow.tick(at_ms(70));
  ASSERT_EQ(log.reports.size(), 4u);
  EXPECT_EQ(log.reports[3].num_acks_folded, 0u);
  flow.tick(at_ms(80));
  EXPECT_EQ(log.reports.size(), 4u);

  // An install starts a new program whose first report goes out, empty
  // or not.
  flow.install(program, at_ms(85));
  flow.tick(at_ms(95));
  ASSERT_EQ(log.reports.size(), 5u);
  EXPECT_EQ(log.reports[4].num_acks_folded, 0u);
  flow.tick(at_ms(105));
  EXPECT_EQ(log.reports.size(), 5u);

  // A recycled slot starts quiet: the default program (WaitRtts(1.0) at
  // the 10 ms default RTT, then Report()) sends nothing, and neither does
  // an install, until the new flow folds its first event.
  flow.park();
  flow.reset_for_reuse(2, config());
  flow.tick(at_ms(110));
  flow.tick(at_ms(120));
  flow.install(install_msg(2, "control { Wait(10000); Report(); }"), at_ms(120));
  flow.tick(at_ms(130));
  EXPECT_EQ(log.reports.size(), 5u);
  EXPECT_EQ(suppressed_reports() - suppressed0, 7u);
  flow.on_ack(ack_at(at_ms(135)));
  flow.tick(at_ms(140));
  ASSERT_EQ(log.reports.size(), 6u);
  EXPECT_EQ(log.reports[5].flow_id, 2u);
  EXPECT_EQ(log.reports[5].report_seq, 0u);
  EXPECT_EQ(log.reports[5].num_acks_folded, 1u);
}

TEST(CcpFlow, IdleWithWatchdogArmedStillReports) {
  telemetry::set_enabled(true);
  SinkLog log;
  FlowConfig cfg = config();
  cfg.agent_timeout = Duration::from_secs(10);  // armed, never reached here
  CcpFlow flow(1, cfg, log.sink());
  flow.install(install_msg(1, R"(
    control { Wait(10000); Report(); }
  )"), at_ms(0));
  const uint64_t suppressed0 = suppressed_reports();
  for (int ms = 10; ms <= 50; ms += 10) flow.tick(at_ms(ms));
  // Every idle interval reports: an agent that answers reports keeps
  // the watchdog fed through them.
  ASSERT_EQ(log.reports.size(), 5u);
  for (const auto& r : log.reports) EXPECT_EQ(r.num_acks_folded, 0u);
  EXPECT_EQ(suppressed_reports(), suppressed0);
  EXPECT_FALSE(flow.in_fallback());
}

TEST(CcpFlow, UpdateFieldsTakesEffect) {
  SinkLog log;
  FlowConfig cfg = config();
  cfg.smooth_cwnd = false;
  CcpFlow flow(1, cfg, log.sink());
  flow.install(install_msg(1, R"(
    control { Cwnd($c); WaitRtts(1.0); Report(); }
  )", {"c"}, {20000.0}), at_ms(0));
  EXPECT_EQ(flow.cwnd_bytes(), 20000u);
  ipc::UpdateFieldsMsg upd;
  upd.flow_id = 1;
  upd.var_values = {40000.0};
  flow.update_fields(upd, at_ms(10));
  // Applied at the next control-loop pass (per-RTT cadence).
  flow.tick(at_ms(15));
  EXPECT_EQ(flow.cwnd_bytes(), 40000u);
}

TEST(CcpFlow, DirectControlOverrides) {
  SinkLog log;
  FlowConfig cfg = config();
  cfg.smooth_cwnd = false;
  CcpFlow flow(1, cfg, log.sink());
  ipc::DirectControlMsg msg;
  msg.flow_id = 1;
  msg.cwnd_bytes = 123000.0;
  msg.rate_bps = 5e6;
  flow.direct_control(msg, at_ms(1));
  EXPECT_EQ(flow.cwnd_bytes(), 123000u);
  EXPECT_DOUBLE_EQ(flow.pacing_rate_bps(), 5e6);
}

TEST(CcpFlow, VectorModeShipsRawSamples) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  auto msg = install_msg(1, R"(
    control { Cwnd($c); WaitRtts(1.0); Report(); }
  )", {"c"}, {20000.0});
  msg.vector_mode = true;
  flow.install(msg, at_ms(0));
  for (int ms = 1; ms <= 12; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  ASSERT_FALSE(log.reports.empty());
  const auto& report = log.reports[0];
  EXPECT_TRUE(report.is_vector);
  EXPECT_EQ(report.fields.size(),
            report.num_acks_folded * CcpFlow::kVectorFieldsPerPkt);
}

TEST(CcpFlow, UrgentFoldRegisterFires) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  flow.install(install_msg(1, R"(
    fold { ecn := ecn + Pkt.ecn init 0 urgent; }
    control { Cwnd(20000); WaitRtts(1.0); Report(); }
  )"), at_ms(0));
  AckEvent ev = ack_at(at_ms(1));
  ev.ecn = true;
  flow.on_ack(ev);
  ASSERT_EQ(log.urgents.size(), 1u);
  EXPECT_EQ(log.urgents[0].kind, ipc::UrgentKind::Ecn);
}

TEST(CcpFlow, SrttTracksSamples) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  for (int i = 1; i <= 30; ++i) {
    flow.on_ack(ack_at(at_ms(i), 1000, Duration::from_millis(25)));
  }
  EXPECT_NEAR(flow.srtt().millis(), 25, 2);
}

TEST(CcpFlowWatchdog, FallsBackWhenAgentGoesSilent) {
  SinkLog log;
  FlowConfig cfg = config();
  cfg.agent_timeout = Duration::from_millis(100);
  CcpFlow flow(1, cfg, log.sink());
  // Agent programs the flow once...
  flow.install(install_msg(1, R"(
    control { Cwnd($c); WaitRtts(1.0); Report(); }
  )", {"c"}, {50000.0}), at_ms(0));
  EXPECT_FALSE(flow.in_fallback());
  // ...then goes silent while ACKs keep arriving.
  for (int ms = 1; ms <= 150; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  EXPECT_TRUE(flow.in_fallback());
}

TEST(CcpFlowWatchdog, FallbackRunsAimdWithoutAgent) {
  SinkLog log;
  FlowConfig cfg = config();
  cfg.agent_timeout = Duration::from_millis(50);
  cfg.smooth_cwnd = false;
  CcpFlow flow(1, cfg, log.sink());
  flow.install(install_msg(1, R"(
    control { Cwnd($c); WaitRtts(1.0); Report(); }
  )", {"c"}, {40000.0}), at_ms(0));
  for (int ms = 1; ms <= 80; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  ASSERT_TRUE(flow.in_fallback());
  const uint64_t before_growth = flow.cwnd_bytes();
  // The fallback grows additively on clean ACKs, applied once per RTT.
  for (int ms = 81; ms <= 130; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  EXPECT_GT(flow.cwnd_bytes(), before_growth);
  // ...and halves (at the next control pass) after loss.
  const uint64_t before_loss = flow.cwnd_bytes();
  LossEvent loss;
  loss.now = at_ms(131);
  loss.lost_packets = 3;
  flow.on_loss(loss);
  for (int ms = 132; ms <= 155; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  EXPECT_LT(flow.cwnd_bytes(), before_loss);
}

TEST(CcpFlowWatchdog, AgentContactClearsFallback) {
  SinkLog log;
  FlowConfig cfg = config();
  cfg.agent_timeout = Duration::from_millis(50);
  cfg.smooth_cwnd = false;
  CcpFlow flow(1, cfg, log.sink());
  flow.install(install_msg(1, R"(
    control { Cwnd($c); WaitRtts(1.0); Report(); }
  )", {"c"}, {40000.0}), at_ms(0));
  for (int ms = 1; ms <= 80; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  ASSERT_TRUE(flow.in_fallback());
  // The agent comes back and reinstalls: fallback ends.
  flow.install(install_msg(1, R"(
    control { Cwnd($c); WaitRtts(1.0); Report(); }
  )", {"c"}, {30000.0}), at_ms(90));
  EXPECT_FALSE(flow.in_fallback());
  EXPECT_EQ(flow.cwnd_bytes(), 30000u);
}

TEST(CcpFlowWatchdog, NeverTriggersBeforeFirstProgram) {
  // The default program is agentless by design; the watchdog must not
  // "fall back" from it.
  SinkLog log;
  FlowConfig cfg = config();
  cfg.agent_timeout = Duration::from_millis(50);
  CcpFlow flow(1, cfg, log.sink());
  for (int ms = 1; ms <= 200; ++ms) flow.on_ack(ack_at(at_ms(ms)));
  EXPECT_FALSE(flow.in_fallback());
}

TEST(CcpFlowWatchdog, DisabledByDefault) {
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  flow.install(install_msg(1, R"(
    control { Cwnd($c); WaitRtts(1.0); Report(); }
  )", {"c"}, {40000.0}), at_ms(0));
  for (int ms = 1; ms <= 10000; ms += 10) flow.on_ack(ack_at(at_ms(ms)));
  EXPECT_FALSE(flow.in_fallback());
}

// --- rate recording latch ---

ipc::InstallMsg to_install_msg(const test_support::RecordedInstall& rec) {
  ipc::InstallMsg msg = install_msg(1, rec.text);
  for (const auto& [name, value] : rec.vars) {
    msg.var_names.push_back(name);
    msg.var_values.push_back(value);
  }
  msg.vector_mode = rec.vector_mode;
  return msg;
}

/// The recorded install of `algorithm` (a registry name, or "bbr ProbeBW").
ipc::InstallMsg builtin_install(const std::string& algorithm) {
  for (const auto& rec : test_support::builtin_installs()) {
    if (rec.algorithm == algorithm) return to_install_msg(rec);
  }
  ADD_FAILURE() << "no built-in install for " << algorithm;
  return {};
}

/// What the latch must say for the flow's installed program.
void expect_latch_matches_program(const CcpFlow& flow, const std::string& what) {
  const lang::CompiledProgram* prog = flow.fold().program();
  ASSERT_NE(prog, nullptr) << what;
  EXPECT_EQ(flow.snd_rate().recording(),
            flow.vector_mode() || prog->reads_pkt_field(lang::PktField::SndRateBps))
      << what;
  EXPECT_EQ(flow.rcv_rate().recording(),
            flow.vector_mode() || prog->reads_pkt_field(lang::PktField::RcvRateBps))
      << what;
}

TEST(RateRecording, LatchFollowsEveryBuiltinProgram) {
  SinkLog log;
  {
    CcpFlow flow(1, config(), log.sink());
    expect_latch_matches_program(flow, "default");
    EXPECT_TRUE(flow.snd_rate().recording());
    EXPECT_TRUE(flow.rcv_rate().recording());
  }
  {
    FlowConfig cfg = config();
    cfg.agent_timeout = Duration::from_millis(50);
    CcpFlow flow(1, cfg, log.sink());
    flow.install(builtin_install("bbr"), at_ms(0));
    for (int ms = 1; ms <= 80; ++ms) flow.on_ack(ack_at(at_ms(ms)));
    ASSERT_TRUE(flow.in_fallback());
    expect_latch_matches_program(flow, "fallback");
    EXPECT_FALSE(flow.snd_rate().recording());
    EXPECT_FALSE(flow.rcv_rate().recording());
  }
  for (const auto& rec : test_support::builtin_installs()) {
    const std::string& name = rec.algorithm;
    const ipc::InstallMsg msg = to_install_msg(rec);
    CcpFlow flow(1, config(), log.sink());
    flow.install(msg, at_ms(0));
    EXPECT_EQ(flow.vector_mode(), msg.vector_mode) << name;
    expect_latch_matches_program(flow, name);
    // The latch follows vector-mode switches too.
    flow.set_vector_mode(!msg.vector_mode);
    expect_latch_matches_program(flow, name + " (vector mode switched)");
  }
  // Spot checks against the program texts themselves.
  for (const char* name : {"reno", "cubic", "dctcp"}) {
    CcpFlow flow(1, config(), log.sink());
    flow.install(builtin_install(name), at_ms(0));
    EXPECT_FALSE(flow.snd_rate().recording()) << name;
    EXPECT_FALSE(flow.rcv_rate().recording()) << name;
  }
  CcpFlow probe_bw(1, config(), log.sink());
  probe_bw.install(builtin_install("bbr ProbeBW"), at_ms(0));
  EXPECT_FALSE(probe_bw.snd_rate().recording());
  EXPECT_TRUE(probe_bw.rcv_rate().recording());
}

TEST(RateRecording, WindowProgramsRecordNothing) {
  for (const char* name : {"reno", "cubic", "dctcp"}) {
    SinkLog log;
    CcpFlow flow(1, config(), log.sink());
    flow.install(builtin_install(name), at_ms(0));
    for (int i = 1; i <= 200; ++i) {
      const TimePoint now = at_ms(0) + Duration::from_micros(100 * i);
      flow.on_send(SendEvent{now, 1000});
      flow.on_ack(ack_at(now));
    }
    LossEvent loss;
    loss.now = at_ms(25);
    loss.lost_packets = 1;
    flow.on_loss(loss);
    EXPECT_EQ(flow.snd_rate().total_bytes(), 0u) << name;
    EXPECT_EQ(flow.rcv_rate().total_bytes(), 0u) << name;
    EXPECT_EQ(flow.last_pkt().snd_rate_bps, 0.0) << name;
    EXPECT_EQ(flow.last_pkt().rcv_rate_bps, 0.0) << name;
    EXPECT_FALSE(log.urgents.empty()) << name << ": the loss still folds";
  }
  // A loss right after switching away from a rate reader reports 0, not
  // the paused estimators' stale history.
  SinkLog log;
  CcpFlow flow(1, config(), log.sink());
  for (int ms = 1; ms <= 20; ++ms) {
    flow.on_send(SendEvent{at_ms(ms), 1000});
    flow.on_ack(ack_at(at_ms(ms)));
  }
  ASSERT_GT(flow.last_pkt().snd_rate_bps, 0.0);
  flow.install(builtin_install("reno"), at_ms(20));
  LossEvent loss;
  loss.now = at_ms(21);
  loss.lost_packets = 1;
  flow.on_loss(loss);
  EXPECT_EQ(flow.last_pkt().snd_rate_bps, 0.0);
  EXPECT_EQ(flow.last_pkt().rcv_rate_bps, 0.0);
}

/// Feeds `flow` sends and ACKs (1 ms apart, one 30 ms gap so history
/// expires) plus a loss, checking every packet view's rates against
/// standalone estimators fed the same events. A paused estimator must
/// report 0. The flow's rate window settles at the constant 10 ms RTT on
/// its first ACK, so the references use that window from the start.
void expect_rates_match_reference(CcpFlow& flow, TimePoint start,
                                  const std::string& what) {
  RateEstimator ref_snd(Duration::from_millis(10));
  RateEstimator ref_rcv(Duration::from_millis(10));
  const bool snd = flow.snd_rate().recording();
  const bool rcv = flow.rcv_rate().recording();
  ASSERT_TRUE(snd || rcv) << what;
  TimePoint now = start;
  for (int i = 1; i <= 120; ++i) {
    now = now + Duration::from_micros(i == 60 ? 30'000 : 1'000);
    const uint64_t bytes = 1000 + 100 * static_cast<uint64_t>(i % 7);
    flow.on_send(SendEvent{now, bytes});
    flow.on_ack(ack_at(now, bytes));
    ref_snd.on_bytes(bytes, now);
    ref_rcv.on_bytes(bytes, now);
    EXPECT_EQ(flow.last_pkt().snd_rate_bps, snd ? ref_snd.rate_bps_cached(now) : 0.0)
        << what << " ack " << i;
    EXPECT_EQ(flow.last_pkt().rcv_rate_bps, rcv ? ref_rcv.rate_bps_cached(now) : 0.0)
        << what << " ack " << i;
    if (i == 90) {
      LossEvent loss;
      loss.now = now;
      loss.lost_packets = 1;
      flow.on_loss(loss);
      EXPECT_EQ(flow.last_pkt().snd_rate_bps, snd ? ref_snd.rate_bps(now) : 0.0)
          << what << " loss";
      EXPECT_EQ(flow.last_pkt().rcv_rate_bps, rcv ? ref_rcv.rate_bps(now) : 0.0)
          << what << " loss";
    }
  }
  EXPECT_GT(snd ? flow.last_pkt().snd_rate_bps : flow.last_pkt().rcv_rate_bps, 0.0)
      << what;
}

TEST(RateRecording, ObservedRatesMatchStandaloneEstimator) {
  SinkLog log;
  {
    CcpFlow flow(1, config(), log.sink());
    expect_rates_match_reference(flow, at_ms(0), "default");
  }
  {
    CcpFlow flow(1, config(), log.sink());
    flow.install(builtin_install("bbr"), at_ms(0));
    expect_rates_match_reference(flow, at_ms(0), "bbr Startup");
  }
  {
    CcpFlow flow(1, config(), log.sink());
    flow.install(builtin_install("bbr ProbeBW"), at_ms(0));
    expect_rates_match_reference(flow, at_ms(0), "bbr ProbeBW");
  }
  {
    // A program that reads neither rate: vector samples alone keep both
    // estimators recording.
    CcpFlow flow(1, config(), log.sink());
    ipc::InstallMsg msg = install_msg(1, "control { WaitRtts(1.0); Report(); }");
    msg.vector_mode = true;
    flow.install(msg, at_ms(0));
    expect_rates_match_reference(flow, at_ms(0), "vector mode");
    ASSERT_FALSE(log.reports.empty());
  }
}

TEST(RateRecording, ResumeStartsFromEmptyHistory) {
  SinkLog log;
  FlowConfig cfg = config();
  // Longer than the whole post-resume run below, so the watchdog does not
  // fire a second time.
  cfg.agent_timeout = Duration::from_millis(200);
  CcpFlow flow(1, cfg, log.sink());
  const ipc::InstallMsg bbr = builtin_install("bbr");
  flow.install(bbr, at_ms(0));
  // The agent goes silent: the watchdog swaps in the fallback program,
  // which reads no rate, and both estimators pause.
  for (int ms = 1; ms <= 230; ++ms) {
    flow.on_send(SendEvent{at_ms(ms), 1000});
    flow.on_ack(ack_at(at_ms(ms)));
  }
  ASSERT_TRUE(flow.in_fallback());
  const uint64_t snd_before = flow.snd_rate().total_bytes();
  const uint64_t rcv_before = flow.rcv_rate().total_bytes();
  EXPECT_GT(snd_before, 0u);
  for (int ms = 231; ms <= 250; ++ms) {
    flow.on_send(SendEvent{at_ms(ms), 1000});
    flow.on_ack(ack_at(at_ms(ms)));
  }
  EXPECT_EQ(flow.snd_rate().total_bytes(), snd_before);
  EXPECT_EQ(flow.rcv_rate().total_bytes(), rcv_before);
  // The agent returns and reinstalls BBR: the rates it sees are those of
  // a fresh estimator fed only the post-resume events.
  flow.install(bbr, at_ms(250));
  EXPECT_FALSE(flow.in_fallback());
  expect_rates_match_reference(flow, at_ms(250), "bbr after fallback");
  EXPECT_FALSE(flow.in_fallback());
}

}  // namespace
}  // namespace ccp::datapath
