// Full-stack integration over *real* OS IPC: the agent runs in its own
// thread behind a Unix domain socket (or shm ring), exactly as deployed,
// while this thread drives the datapath with synthetic ACKs. This is the
// Figure 1 architecture with no simulator shortcuts.
#include <gtest/gtest.h>

#include <mutex>
#include <thread>

#include "agent/transport_loop.hpp"
#include "algorithms/registry.hpp"
#include "datapath/datapath.hpp"
#include "ipc/transport.hpp"

namespace ccp {
namespace {

struct RealStack {
  // The agent lives on its loop thread, which holds this lock while it
  // handles a frame; the test body reads agent state only under it.
  std::mutex agent_mu;
  ipc::TransportPair channel;
  std::unique_ptr<agent::CcpAgent> agent;
  std::unique_ptr<agent::TransportLoop> agent_loop;
  std::unique_ptr<datapath::CcpDatapath> dp;

  explicit RealStack(ipc::TransportPair pair, const std::string& default_alg)
      : channel(std::move(pair)) {
    agent::AgentConfig cfg;
    cfg.default_algorithm = default_alg;
    agent = std::make_unique<agent::CcpAgent>(cfg, [this](std::span<const uint8_t> f) {
      channel.b->send_frame(f);
    });
    algorithms::register_builtin_algorithms(*agent);
    agent_loop = std::make_unique<agent::TransportLoop>(
        *channel.b, [this](std::span<const uint8_t> f) {
          std::lock_guard<std::mutex> hold(agent_mu);
          agent->handle_frame(f);
        });
    dp = std::make_unique<datapath::CcpDatapath>(
        datapath::DatapathConfig{},
        [this](std::span<const uint8_t> f) { channel.a->send_frame(f); });
  }

  ~RealStack() { agent_loop->stop(); }

  agent::AgentStats agent_stats() {
    std::lock_guard<std::mutex> hold(agent_mu);
    return agent->stats();
  }
  size_t agent_flows() {
    std::lock_guard<std::mutex> hold(agent_mu);
    return agent->num_flows();
  }

  void pump(TimePoint now) {
    while (auto frame = channel.a->try_recv_frame()) {
      dp->handle_frame(*frame, now);
    }
    dp->tick(now);
  }

  /// Waits (wall-clock) until `pred` holds, pumping commands, or fails.
  template <typename Pred>
  bool wait_for(Pred pred, Duration timeout = Duration::from_secs(5)) {
    const TimePoint deadline = monotonic_now() + timeout;
    while (monotonic_now() < deadline) {
      pump(monotonic_now());
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }
};

datapath::AckEvent ack_now(uint64_t bytes = 1460) {
  datapath::AckEvent ev;
  ev.now = monotonic_now();
  ev.bytes_acked = bytes;
  ev.packets_acked = 1;
  ev.rtt_sample = Duration::from_millis(10);
  return ev;
}

class RealIpcTest : public ::testing::TestWithParam<int> {
 protected:
  ipc::TransportPair make_pair() {
    return GetParam() == 0
               ? ipc::make_unix_socket_pair()
               : ipc::make_shm_ring_pair(1 << 18, ipc::ShmWaitMode::Blocking);
  }
};

TEST_P(RealIpcTest, AgentInstallsProgramOverTheWire) {
  RealStack stack(make_pair(), "reno");
  auto& flow = stack.dp->create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno",
                                     monotonic_now());
  // Reno's init() Install travels agent -> socket -> datapath. The
  // default program also defines "acked", so distinguish by a register
  // only the default program has ("snd") having disappeared.
  ASSERT_TRUE(stack.wait_for([&] {
    return stack.agent_stats().installs_sent >= 1 &&
           flow.fold().program()->fold_index("snd") < 0;
  }));
  EXPECT_EQ(stack.agent_stats().flows_created, 1u);
  EXPECT_GE(flow.fold().program()->fold_index("acked"), 0);
}

TEST_P(RealIpcTest, SlowStartGrowsWindowEndToEnd) {
  RealStack stack(make_pair(), "reno");
  auto& flow = stack.dp->create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno",
                                     monotonic_now());
  ASSERT_TRUE(stack.wait_for([&] { return flow.fold().installed(); }));
  const uint64_t w0 = flow.cwnd_bytes();
  // Drive ~5 RTTs of ACKs; reports flow out, window updates flow back.
  const bool grew = stack.wait_for([&] {
    flow.on_ack(ack_now());
    return flow.cwnd_bytes() > 2 * w0;
  });
  EXPECT_TRUE(grew);
  EXPECT_GT(stack.agent_stats().measurements, 0u);
}

TEST_P(RealIpcTest, UrgentLossRoundTripCutsWindow) {
  // Vegas grows one packet per RTT, so its model tracks the (synthetic)
  // ACK-driven datapath window closely — which makes the halving after
  // an urgent loss observable at the datapath. (Reno's slow-start model
  // would race far ahead of this artificial ACK stream.)
  RealStack stack(make_pair(), "vegas");
  auto& flow = stack.dp->create_flow(datapath::FlowConfig{1460, 10 * 1460}, "vegas",
                                     monotonic_now());
  ASSERT_TRUE(stack.wait_for(
      [&] { return stack.agent_stats().installs_sent >= 1; }));
  // Grow to >20 packets (one packet per ~10 ms report)...
  ASSERT_TRUE(stack.wait_for(
      [&] {
        flow.on_ack(ack_now());
        return flow.cwnd_bytes() > 20 * 1460u;
      },
      Duration::from_secs(10)));
  // ...let in-flight updates land, then inject the loss.
  stack.wait_for([&] { return false; }, Duration::from_millis(200));
  const uint64_t before = flow.cwnd_bytes();
  flow.on_loss(datapath::LossEvent{monotonic_now(), 1, before});
  const bool halved = stack.wait_for(
      [&] { return flow.cwnd_bytes() < before * 3 / 4; });
  EXPECT_TRUE(halved);
  EXPECT_GT(stack.agent_stats().urgents, 0u);
}

TEST_P(RealIpcTest, FlowCloseReachesAgent) {
  RealStack stack(make_pair(), "reno");
  auto& flow = stack.dp->create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno",
                                     monotonic_now());
  ASSERT_TRUE(stack.wait_for([&] { return stack.agent_flows() == 1; }));
  stack.dp->close_flow(flow.id(), monotonic_now());
  EXPECT_TRUE(stack.wait_for([&] { return stack.agent_flows() == 0; }));
}

TEST_P(RealIpcTest, ManyFlowsMultiplexOneChannel) {
  RealStack stack(make_pair(), "reno");
  std::vector<datapath::CcpFlow*> flows;
  for (int i = 0; i < 10; ++i) {
    flows.push_back(&stack.dp->create_flow(datapath::FlowConfig{1460, 10 * 1460},
                                           i % 2 == 0 ? "reno" : "cubic",
                                           monotonic_now()));
  }
  ASSERT_TRUE(stack.wait_for([&] { return stack.agent_flows() == 10; }));
  // Every flow independently reaches an installed program and grows.
  for (auto* flow : flows) {
    ASSERT_TRUE(stack.wait_for([&] { return flow->fold().installed(); }));
  }
  const bool all_grew = stack.wait_for([&] {
    bool ok = true;
    for (auto* flow : flows) {
      flow->on_ack(ack_now());
      ok = ok && flow->cwnd_bytes() > 15 * 1460u;
    }
    return ok;
  });
  EXPECT_TRUE(all_grew);
}

INSTANTIATE_TEST_SUITE_P(Transports, RealIpcTest, ::testing::Values(0, 1),
                         [](const auto& info) {
                           return info.param == 0 ? "UnixSocket" : "ShmRing";
                         });

}  // namespace
}  // namespace ccp
