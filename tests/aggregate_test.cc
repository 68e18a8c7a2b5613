// Tests for the Congestion-Manager-style aggregate controller (§5).
#include <gtest/gtest.h>

#include "agent/aggregate.hpp"
#include "algorithms/native/native_reno.hpp"
#include "sim/ccp_host.hpp"
#include "sim/dumbbell.hpp"

namespace ccp {
namespace {

using namespace sim;

TimePoint at_s(double s) { return TimePoint::epoch() + Duration::from_secs_f(s); }

struct GroupRun {
  double group_tput_mbps = 0;       // combined, over group members
  double outsider_tput_mbps = 0;    // the competing standalone flow
  std::vector<double> member_tputs;
  uint64_t loss_episodes = 0;
};

/// `n_group` member flows (in one aggregate) vs one standalone reno flow
/// on a shared bottleneck.
GroupRun run_group(int n_group, std::vector<double> weights = {},
                   double secs = 25.0) {
  EventQueue q;
  auto cfg = DumbbellConfig::make(50e6, Duration::from_millis(10), 1.0);
  Dumbbell net(q, cfg);
  SimCcpHost host(q, CcpHostConfig{});

  agent::AggregateGroup group;
  if (weights.empty()) weights.assign(n_group, 1.0);
  for (int i = 0; i < n_group; ++i) {
    host.agent().register_algorithm("agg" + std::to_string(i),
                                    group.member_factory(weights[i]));
  }

  const TimePoint end = at_s(secs);
  host.start(end);

  std::vector<TcpSender*> members;
  for (int i = 0; i < n_group; ++i) {
    auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460},
                                  "agg" + std::to_string(i));
    members.push_back(&net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch()));
  }
  algorithms::native::NativeReno outsider(1460, 10 * 1460);
  auto& out_snd = net.add_flow(TcpSenderConfig{}, &outsider, TimePoint::epoch());

  q.run_until(end);

  GroupRun result;
  for (auto* snd : members) {
    const double t = snd->delivered_bytes() * 8.0 / secs / 1e6;
    result.member_tputs.push_back(t);
    result.group_tput_mbps += t;
  }
  result.outsider_tput_mbps = out_snd.delivered_bytes() * 8.0 / secs / 1e6;
  result.loss_episodes = group.loss_episodes();
  return result;
}

TEST(Aggregate, GroupCompetesAsOneFlow) {
  // Three flows in one aggregate vs one standalone flow: the aggregate
  // should take ~one flow's share (CM ensemble sharing), not three.
  const GroupRun r = run_group(3);
  EXPECT_GT(r.group_tput_mbps + r.outsider_tput_mbps, 40.0);  // link used
  const double ratio = r.group_tput_mbps / r.outsider_tput_mbps;
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.2);  // far from the 3.0 of independent flows
}

TEST(Aggregate, MembersShareEqually) {
  const GroupRun r = run_group(3);
  ASSERT_EQ(r.member_tputs.size(), 3u);
  const double mean = r.group_tput_mbps / 3.0;
  for (double t : r.member_tputs) {
    EXPECT_NEAR(t, mean, mean * 0.3);
  }
}

TEST(Aggregate, WeightsSkewTheSplit) {
  const GroupRun r = run_group(2, {3.0, 1.0});
  ASSERT_EQ(r.member_tputs.size(), 2u);
  // Member 0 has 3x the weight: expect roughly 3x the goodput.
  const double ratio = r.member_tputs[0] / std::max(0.001, r.member_tputs[1]);
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 4.5);
}

TEST(Aggregate, SingleMemberBehavesLikeNormalFlow) {
  const GroupRun r = run_group(1);
  const double ratio = r.group_tput_mbps / r.outsider_tput_mbps;
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(Aggregate, ReactsToLoss) {
  const GroupRun r = run_group(2);
  // A shared 50 Mbit bottleneck against reno guarantees loss episodes.
  EXPECT_GT(r.loss_episodes, 0u);
}

TEST(Aggregate, IdleMemberDoesNotStallTheGroup) {
  // One member finishes its transfer early and goes idle: its datapath
  // flow sends one empty report, then none. The bulk members' rounds
  // must keep ending, so the group window keeps growing and every later
  // loss episode still cuts it.
  EventQueue q;
  auto cfg = DumbbellConfig::make(50e6, Duration::from_millis(10), 1.0);
  Dumbbell net(q, cfg);
  SimCcpHost host(q, CcpHostConfig{});
  agent::AggregateGroup group;
  host.agent().register_algorithm("agg", group.member_factory());
  const TimePoint end = at_s(20.0);
  host.start(end);

  std::vector<TcpSender*> members;
  for (int i = 0; i < 3; ++i) {
    TcpSenderConfig snd_cfg;
    if (i == 2) snd_cfg.bytes_to_send = 200 * 1460;
    auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "agg");
    members.push_back(&net.add_flow(snd_cfg, &flow, TimePoint::epoch()));
  }
  algorithms::native::NativeReno outsider(1460, 10 * 1460);
  net.add_flow(TcpSenderConfig{}, &outsider, TimePoint::epoch());

  q.run_until(at_s(5.0));
  ASSERT_EQ(members[2]->delivered_bytes(), 200u * 1460);  // idle from here
  const uint64_t episodes_at_idle = group.loss_episodes();
  double prev = group.aggregate_cwnd_bytes();
  int grew = 0;
  for (double t = 5.1; t <= 20.0; t += 0.1) {
    q.run_until(at_s(t));
    if (group.aggregate_cwnd_bytes() > prev) ++grew;
    prev = group.aggregate_cwnd_bytes();
  }
  EXPECT_GT(grew, 50);
  EXPECT_GE(group.loss_episodes() - episodes_at_idle, 2u);
}

TEST(Aggregate, MemberChurnIsSafe) {
  agent::AggregateGroup group;
  auto factory = group.member_factory();
  agent::FlowInfo info;
  info.id = 1;
  info.mss = 1460;
  // Members can be created and destroyed without flows ever attaching.
  {
    auto a = factory(info);
    auto b = factory(info);
    EXPECT_EQ(group.num_members(), 0u);  // join happens at init()
  }
  EXPECT_EQ(group.num_members(), 0u);
}

}  // namespace
}  // namespace ccp
