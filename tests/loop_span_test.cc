// Deterministic end-to-end control-loop span tests: a real agent and a
// real datapath wired over inproc IPC, spans enabled, ACKs driven until
// reports flow and the agent's commands close spans back at the
// datapath. Asserts that every stage histogram is populated and that the
// stage sums telescope to the total; the datapath closes each span
// synchronously when it handles the command.
// Suite names match the CI sanitizer/TSan -R filters.
#include <gtest/gtest.h>

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

constexpr size_t kFlows = 2;
constexpr uint64_t kAcks = 100'000;  // ~10 virtual RTTs => several reports

void reset_loop_histograms() {
  telemetry::Metrics& m = telemetry::metrics();
  m.loop_emit_to_agent_ns.reset();
  m.loop_agent_handler_ns.reset();
  m.loop_agent_to_enqueue_ns.reset();
  m.loop_enqueue_to_apply_ns.reset();
  m.loop_total_ns.reset();
}

void check_loop_histograms() {
  telemetry::Metrics& m = telemetry::metrics();
  const telemetry::Histogram* stages[] = {
      &m.loop_emit_to_agent_ns, &m.loop_agent_handler_ns,
      &m.loop_agent_to_enqueue_ns, &m.loop_enqueue_to_apply_ns};
  // Every hop stamps with the same monotonic clock, so each close
  // records all four stages plus the total: equal counts everywhere.
  const uint64_t closes = m.loop_total_ns.count();
  ASSERT_GT(closes, 0u) << "no spans completed the full loop";
  uint64_t stage_sum = 0;
  for (const telemetry::Histogram* h : stages) {
    EXPECT_EQ(h->count(), closes);
    stage_sum += h->sum();
  }
  // The stages are differences of five reads of one clock, so they
  // telescope: sum(stages) == total, exactly.
  EXPECT_EQ(stage_sum, m.loop_total_ns.sum());
}

void check_span_ring_ordering() {
  ASSERT_NE(telemetry::span_ring(), nullptr);
  const auto spans = telemetry::span_ring()->dump();
  ASSERT_GT(spans.size(), 0u);
  for (const telemetry::CompletedSpan& sp : spans) {
    EXPECT_GT(sp.span_id, 0u);
    EXPECT_LE(sp.emit_ns, sp.agent_recv_ns);
    EXPECT_LE(sp.agent_recv_ns, sp.agent_send_ns);
    EXPECT_LE(sp.agent_send_ns, sp.enqueue_ns);
    EXPECT_LE(sp.enqueue_ns, sp.apply_ns);
  }
}

TEST(TelemetryLoopSpans, SingleDatapathFullLoopPopulatesEveryStage) {
  telemetry::set_enabled(true);
  telemetry::enable_spans(1024);
  reset_loop_histograms();

  auto pair = ipc::make_inproc_pair();
  datapath::DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  datapath::CcpDatapath dp(
      dcfg, [&](std::span<const uint8_t> f) { pair.a->send_frame(f); });
  agent::AgentConfig acfg;
  agent::CcpAgent agent(
      acfg, [&](std::span<const uint8_t> f) { pair.b->send_frame(f); });
  algorithms::register_builtin_algorithms(agent);

  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  for (size_t i = 0; i < kFlows; ++i) {
    ids.push_back(dp.create_flow(datapath::FlowConfig{}, "reno", now).id());
  }
  const ipc::FrameSink agent_rx = [&](std::span<const uint8_t> f) {
    agent.handle_frame(f);
  };
  const ipc::FrameSink dp_rx = [&](std::span<const uint8_t> f) {
    dp.handle_frame(f, now);
  };
  pair.b->drain_frames(agent_rx);
  pair.a->drain_frames(dp_rx);

  datapath::AckEvent ev;
  ev.bytes_acked = 1500;
  ev.packets_acked = 1;
  ev.bytes_in_flight = 64 * 1500;
  ev.packets_in_flight = 64;
  for (uint64_t i = 0; i < kAcks; ++i) {
    now += Duration::from_micros(1);
    auto* fl = dp.flow(ids[i % kFlows]);
    ev.now = now;
    ev.rtt_sample = Duration::from_millis(10);
    fl->on_send(datapath::SendEvent{now, 1500});
    fl->on_ack(ev);
    if ((i & 255) == 255) {
      dp.tick(now);
      pair.b->drain_frames(agent_rx);
      pair.a->drain_frames(dp_rx);
    }
  }

  ASSERT_GT(telemetry::metrics().dp_reports.value(), 0u);
  check_loop_histograms();
  check_span_ring_ordering();
  telemetry::disable_spans();
}

}  // namespace
}  // namespace ccp
