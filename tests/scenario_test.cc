// Scenario harness end-to-end: parking-lot routing, RTT spread, flow
// stop semantics, runner determinism, and the qualitative behavior of
// the built-in scenario library.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "algorithms/native/native_cubic.hpp"
#include "scenario/library.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/topology.hpp"

namespace ccp::scenario {
namespace {

ScenarioSpec three_hop_spec() {
  ScenarioSpec spec;
  spec.name = "t";
  spec.topology = Topology::kParkingLot;
  for (int i = 0; i < 3; ++i) {
    LinkSpec link;
    link.rate_bps = 48e6;
    link.delay = Duration::from_millis(1);
    spec.links.push_back(link);
  }
  FlowGroupSpec g;
  g.alg = "native:cubic";
  g.name = "g";
  spec.groups.push_back(g);
  return spec;
}

TEST(Network, ParkingLotRoutesOnlyThroughPathHops) {
  sim::EventQueue q;
  ScenarioSpec spec = three_hop_spec();
  Network net(q, spec, 1);

  algorithms::native::NativeCubic long_cc(1460, 10 * 1460);
  algorithms::native::NativeCubic cross_cc(1460, 10 * 1460);
  sim::TcpSenderConfig scfg;
  auto& long_snd =
      net.add_flow(scfg, &long_cc, TimePoint::epoch(), {0, 2});
  auto& cross_snd =
      net.add_flow(scfg, &cross_cc, TimePoint::epoch(), {1, 1});
  q.run_until(TimePoint::epoch() + Duration::from_secs(2));

  EXPECT_GT(long_snd.delivered_bytes(), 0u);
  EXPECT_GT(cross_snd.delivered_bytes(), 0u);
  // The cross flow enters at hop 1 and exits after it: hops 0 and 2
  // carry only the long flow, hop 1 carries both.
  EXPECT_GT(net.hop(1).stats().delivered_pkts,
            net.hop(0).stats().delivered_pkts);
  EXPECT_GT(net.hop(1).stats().delivered_pkts,
            net.hop(2).stats().delivered_pkts);
}

TEST(Network, BaseRttSumsPathAndExtra) {
  sim::EventQueue q;
  ScenarioSpec spec = three_hop_spec();
  spec.links.pop_back();  // two hops, 1 ms each
  Network net(q, spec, 1);
  algorithms::native::NativeCubic cc(1460, 10 * 1460);
  sim::TcpSenderConfig scfg;
  net.add_flow(scfg, &cc, TimePoint::epoch(),
               {0, 1, Duration::from_millis(10)});
  net.add_flow(scfg, &cc, TimePoint::epoch(), {1, 1});
  // Flow 0: 10 ms extra + 2 x (1 + 1) ms propagation.
  EXPECT_EQ(net.base_rtt(0).millis(), 14);
  // Flow 1: single hop, no extra.
  EXPECT_EQ(net.base_rtt(1).millis(), 2);
}

TEST(Runner, StoppedFlowGoesQuietButKeepsItsStats) {
  ScenarioSpec spec = parse_spec(
      "scenario stop_test\n"
      "duration 6\n"
      "link rate=48Mbps delay=5ms\n"
      "group name=a alg=cubic stop=2\n"
      "group name=b alg=cubic\n");
  const Scorecard card = run_scenario(spec);
  ASSERT_EQ(card.flows.size(), 2u);
  const FlowScore& stopped = card.flows[0];
  EXPECT_DOUBLE_EQ(stopped.stop_secs, 2.0);
  EXPECT_GT(stopped.throughput_mbps, 0.0);
  // After the stop (allowing one RTT of drain), the flow delivers nothing.
  for (const util::SeriesPoint& p : stopped.tput_mbps) {
    if (p.t_secs > 3.0) {
      EXPECT_DOUBLE_EQ(p.value, 0.0) << "t=" << p.t_secs;
    }
  }
  // The survivor takes over the link.
  EXPECT_GT(card.flows[1].throughput_mbps, stopped.throughput_mbps);
}

TEST(Runner, DeterministicForSameSeed) {
  ScenarioSpec spec = parse_spec(
      "scenario det\n"
      "duration 4\n"
      "seed 13\n"
      "link rate=24Mbps delay=10ms loss=0.005 rate@2s=12Mbps\n"
      "group name=c alg=cubic\n"
      "group name=b alg=bbr\n");
  const std::string a = run_scenario(spec).json();
  const std::string b = run_scenario(spec).json();
  EXPECT_EQ(a, b);

  spec.seed = 14;
  EXPECT_NE(run_scenario(spec).json(), a);
}

TEST(Runner, ScorecardAccounting) {
  const Scorecard card = run_scenario(builtin_scenario("wireless_loss"));
  EXPECT_EQ(card.scenario, "wireless_loss");
  ASSERT_EQ(card.hops.size(), 1u);
  EXPECT_GT(card.hops[0].random_drops, 0u);  // the lossy link actually lost
  EXPECT_GT(card.aggregate_mbps, 0.0);
  EXPECT_GT(card.jain, 0.0);
  EXPECT_LE(card.jain, 1.0);
  uint64_t rexmits = 0;
  double share = 0;
  for (const FlowScore& f : card.flows) {
    rexmits += f.retransmits;
    share += f.share;
    EXPECT_GE(f.rtt_p50_ms, 40.0);  // never below the base RTT
    EXPECT_GE(f.qdelay_p95_ms, f.qdelay_p50_ms);
  }
  EXPECT_EQ(card.total_retransmits, rexmits);
  EXPECT_NEAR(share, 1.0, 1e-9);
  EXPECT_NE(card.json().find("\"scenario\""), std::string::npos);
  EXPECT_EQ(card.summary_rows().size(), card.flows.size());
}

double group_share(const Scorecard& card, const std::string& group) {
  double share = 0;
  for (const FlowScore& f : card.flows) {
    if (f.group == group) share += f.share;
  }
  return share;
}

TEST(Library, BbrBeatsCubicInShallowBuffers) {
  const Scorecard card = run_scenario(builtin_scenario("cubic_vs_bbr"));
  EXPECT_GT(group_share(card, "bbr"), 0.6);
}

TEST(Library, CubicBeatsBbrInDeepBuffers) {
  const Scorecard card = run_scenario(builtin_scenario("cubic_vs_bbr_deep"));
  EXPECT_GT(group_share(card, "cubic"), 0.6);
}

TEST(Library, RttUnfairnessFavorsShortRtt) {
  const Scorecard card = run_scenario(builtin_scenario("rtt_unfairness"));
  ASSERT_EQ(card.flows.size(), 4u);
  // Flow 0 has the shortest RTT (10 ms), flow 3 the longest (70 ms).
  EXPECT_GT(card.flows[0].share, card.flows[3].share);
  EXPECT_GT(card.flows[0].rtt_p50_ms, 9.0);
  EXPECT_GT(card.flows[3].rtt_p50_ms, 69.0);
}

TEST(Library, CoupledBundleCompetesLikeOneFlow) {
  const Scorecard card = run_scenario(builtin_scenario("multipath_coupled"));
  const double bundle = group_share(card, "mp");
  EXPECT_GT(bundle, 0.35);
  EXPECT_LT(bundle, 0.65);
}

TEST(Library, ParkingLotLongFlowPaysMultiBottleneckToll) {
  const Scorecard card = run_scenario(builtin_scenario("parking_lot"));
  const double long_share = group_share(card, "long");
  // Each hop's fair split is 1/2; the long flow traverses three lossy
  // queues and lands well below any single cross flow.
  for (int hop = 0; hop < 3; ++hop) {
    EXPECT_LT(long_share,
              group_share(card, "cross" + std::to_string(hop)));
  }
}

TEST(Library, TwoSameCcaFlowsConverge) {
  ScenarioSpec spec = parse_spec(
      "scenario conv\n"
      "duration 12\n"
      "link rate=48Mbps delay=5ms\n"
      "group name=a alg=cubic\n"
      "group name=b alg=cubic start=2\n");
  const Scorecard card = run_scenario(spec);
  EXPECT_GE(card.convergence_secs, 0.0);
  EXPECT_LT(card.convergence_secs, 10.0);
}

// ---- golden scorecards ----
//
// Every built-in scenario, cut to 3 s, at seeds 1 and 7, pinned by a
// 64-bit FNV-1a digest of its scorecard JSON. The simulator's event
// order decides every byte of a scorecard, so these catch any refactor
// of the event core, links or TCP that moves a single event. A rate
// schedule is compressed by the same factor as the duration so the
// variable-rate path stays inside the window. On a mismatch the message
// carries the new digest; update a constant only for a change that is
// meant to alter simulated behaviour.

constexpr double kGoldenSecs = 3.0;

uint64_t fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void expect_golden(const std::string& name, uint64_t seed, uint64_t digest) {
  ScenarioSpec spec = builtin_scenario(name);
  const double scale = kGoldenSecs / spec.duration_secs;
  spec.duration_secs = kGoldenSecs;
  for (LinkSpec& link : spec.links) {
    for (sim::RateChange& change : link.rate_schedule) change.at = change.at * scale;
  }
  spec.seed = seed;
  EXPECT_EQ(hex64(fnv1a64(run_scenario(spec).json())), hex64(digest))
      << name << " seed " << seed;
}

TEST(ScenarioGolden, CubicVsBbr) {
  expect_golden("cubic_vs_bbr", 1, 0xeb5f6a037b246988ULL);
  expect_golden("cubic_vs_bbr", 7, 0xf8e8c36eca4866daULL);
}

TEST(ScenarioGolden, CubicVsBbrDeep) {
  expect_golden("cubic_vs_bbr_deep", 1, 0xfec73830fd682b4aULL);
  expect_golden("cubic_vs_bbr_deep", 7, 0x98bbcff7ba8e7c8cULL);
}

TEST(ScenarioGolden, ParkingLot) {
  expect_golden("parking_lot", 1, 0x33b00b10eb80e1afULL);
  expect_golden("parking_lot", 7, 0x314f389695ade199ULL);
}

TEST(ScenarioGolden, WirelessLoss) {
  expect_golden("wireless_loss", 1, 0x8e79d176082fc333ULL);
  expect_golden("wireless_loss", 7, 0x905c76ba6aabd99eULL);
}

TEST(ScenarioGolden, RttUnfairness) {
  expect_golden("rtt_unfairness", 1, 0xb8db8ba54590d350ULL);
  expect_golden("rtt_unfairness", 7, 0x6342adf379b7fa5aULL);
}

TEST(ScenarioGolden, MultipathCoupled) {
  expect_golden("multipath_coupled", 1, 0x13f12b62237faa90ULL);
  expect_golden("multipath_coupled", 7, 0x695b8b36837a8f4eULL);
}

}  // namespace
}  // namespace ccp::scenario
