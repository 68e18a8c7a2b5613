#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/native/native_cubic.hpp"
#include "algorithms/native/native_reno.hpp"
#include "sim/dumbbell.hpp"
#include "sim/tcp.hpp"

namespace ccp::sim {
namespace {

TimePoint at_ms(int64_t ms) { return TimePoint::epoch() + Duration::from_millis(ms); }

// ------------------------------------------------------------- receiver

struct AckLog {
  std::vector<Packet> acks;
  TcpReceiver::Egress egress() {
    return [this](Packet p) { acks.push_back(p); };
  }
};

Packet seg(uint64_t seq, uint32_t len, TimePoint ts = {}) {
  Packet p;
  p.seq = seq;
  p.len = len;
  p.ts_val = ts;
  return p;
}

TEST(TcpReceiver, CumulativeAckAdvances) {
  EventQueue q;
  AckLog log;
  TcpReceiver rx(q, 0, {}, log.egress());
  rx.on_data(seg(0, 1000));
  rx.on_data(seg(1000, 1000));
  ASSERT_EQ(log.acks.size(), 2u);
  EXPECT_EQ(log.acks[0].ack_seq, 1000u);
  EXPECT_EQ(log.acks[1].ack_seq, 2000u);
  EXPECT_TRUE(log.acks[1].is_ack);
}

TEST(TcpReceiver, OutOfOrderBuffersAndSacks) {
  EventQueue q;
  AckLog log;
  TcpReceiver rx(q, 0, {}, log.egress());
  rx.on_data(seg(0, 1000));
  rx.on_data(seg(2000, 1000));  // hole at 1000
  ASSERT_EQ(log.acks.size(), 2u);
  EXPECT_EQ(log.acks[1].ack_seq, 1000u);  // dupack
  ASSERT_EQ(log.acks[1].num_sacks, 1);
  EXPECT_EQ(log.acks[1].sack_start[0], 2000u);
  EXPECT_EQ(log.acks[1].sack_end[0], 3000u);
  // Filling the hole advances past everything buffered.
  rx.on_data(seg(1000, 1000));
  EXPECT_EQ(log.acks[2].ack_seq, 3000u);
  EXPECT_EQ(log.acks[2].num_sacks, 0);
}

TEST(TcpReceiver, MergesAdjacentOooRanges) {
  EventQueue q;
  AckLog log;
  TcpReceiver rx(q, 0, {}, log.egress());
  rx.on_data(seg(2000, 1000));
  rx.on_data(seg(4000, 1000));
  rx.on_data(seg(3000, 1000));  // bridges the two ranges
  ASSERT_EQ(log.acks.size(), 3u);
  ASSERT_EQ(log.acks[2].num_sacks, 1);
  EXPECT_EQ(log.acks[2].sack_start[0], 2000u);
  EXPECT_EQ(log.acks[2].sack_end[0], 5000u);
}

TEST(TcpReceiver, SackBlocksCapAtFourWithTriggerFirst) {
  EventQueue q;
  AckLog log;
  TcpReceiver rx(q, 0, {}, log.egress());
  // Seven ranges above a hole at 0: more than the four blocks carry.
  for (uint64_t start = 2000; start <= 14000; start += 2000) {
    rx.on_data(seg(start, 1000));
  }
  const auto blocks = [](const Packet& ack) {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (uint8_t i = 0; i < ack.num_sacks; ++i) {
      out.push_back({ack.sack_start[i], ack.sack_end[i]});
    }
    return out;
  };
  using Blocks = std::vector<std::pair<uint64_t, uint64_t>>;
  // The triggering range first, then the lowest ranges.
  EXPECT_EQ(blocks(log.acks.back()),
            (Blocks{{14000, 15000}, {2000, 3000}, {4000, 5000}, {6000, 7000}}));
  // A trigger among the lowest ranges is not repeated; the next range
  // up takes its place.
  rx.on_data(seg(4000, 1000));
  EXPECT_EQ(blocks(log.acks.back()),
            (Blocks{{4000, 5000}, {2000, 3000}, {6000, 7000}, {8000, 9000}}));
}

TEST(TcpReceiver, DuplicateDataReAcked) {
  EventQueue q;
  AckLog log;
  TcpReceiver rx(q, 0, {}, log.egress());
  rx.on_data(seg(0, 1000));
  rx.on_data(seg(0, 1000));  // duplicate
  ASSERT_EQ(log.acks.size(), 2u);
  EXPECT_EQ(log.acks[1].ack_seq, 1000u);
}

TEST(TcpReceiver, EchoesTimestampAndCe) {
  EventQueue q;
  AckLog log;
  TcpReceiver rx(q, 0, {}, log.egress());
  Packet p = seg(0, 1000, at_ms(123));
  p.ce = true;
  rx.on_data(p);
  ASSERT_EQ(log.acks.size(), 1u);
  EXPECT_EQ(log.acks[0].ts_echo, at_ms(123));
  EXPECT_TRUE(log.acks[0].ece);
}

TEST(TcpReceiver, DelayedAckCoalesces) {
  EventQueue q;
  AckLog log;
  TcpReceiverConfig cfg;
  cfg.delayed_ack = true;
  TcpReceiver rx(q, 0, cfg, log.egress());
  rx.on_data(seg(0, 1000));
  EXPECT_TRUE(log.acks.empty());  // first segment held
  rx.on_data(seg(1000, 1000));
  ASSERT_EQ(log.acks.size(), 1u);  // 2nd forces the ACK
  EXPECT_EQ(log.acks[0].ack_seq, 2000u);
}

TEST(TcpReceiver, DelayedAckTimerFires) {
  EventQueue q;
  AckLog log;
  TcpReceiverConfig cfg;
  cfg.delayed_ack = true;
  TcpReceiver rx(q, 0, cfg, log.egress());
  rx.on_data(seg(0, 1000));
  q.run_until(at_ms(5));
  ASSERT_EQ(log.acks.size(), 1u);  // 1 ms delayed-ack timer
}

// --------------------------------------------------------------- sender

/// Fixed-window CC for driving the sender deterministically.
class FixedWindow final : public datapath::CcModule {
 public:
  explicit FixedWindow(uint64_t cwnd, double rate = 0) : cwnd_(cwnd), rate_(rate) {}
  void on_ack(const datapath::AckEvent& ev) override { acks.push_back(ev); }
  void on_loss(const datapath::LossEvent&) override { ++losses; }
  void on_timeout(const datapath::TimeoutEvent&) override { ++timeouts; }
  void on_send(const datapath::SendEvent&) override {}
  void tick(TimePoint) override {}
  uint64_t cwnd_bytes() const override { return cwnd_; }
  double pacing_rate_bps() const override { return rate_; }

  uint64_t cwnd_;
  double rate_;
  std::vector<datapath::AckEvent> acks;
  int losses = 0;
  int timeouts = 0;
};

struct SenderHarness {
  EventQueue q;
  FixedWindow cc;
  std::vector<Packet> wire;
  std::unique_ptr<TcpSender> snd;

  explicit SenderHarness(uint64_t cwnd, TcpSenderConfig cfg = {}, double rate = 0)
      : cc(cwnd, rate) {
    snd = std::make_unique<TcpSender>(q, 0, cfg, &cc,
                                      [this](Packet p) { wire.push_back(p); });
  }

  Packet ack_for(uint64_t ack_seq, TimePoint ts_echo = {}) {
    Packet a;
    a.is_ack = true;
    a.ack_seq = ack_seq;
    a.ts_echo = ts_echo;
    return a;
  }
};

TEST(TcpSender, RespectsWindow) {
  SenderHarness h(5 * 1460);
  h.snd->start();
  EXPECT_EQ(h.wire.size(), 5u);
  EXPECT_EQ(h.snd->bytes_in_flight(), 5u * 1460u);
}

TEST(TcpSender, AcksReleaseNewData) {
  SenderHarness h(5 * 1460);
  h.snd->start();
  h.snd->on_ack(h.ack_for(1460, h.wire[0].ts_val));
  EXPECT_EQ(h.wire.size(), 6u);
  EXPECT_EQ(h.snd->delivered_bytes(), 1460u);
  ASSERT_EQ(h.cc.acks.size(), 1u);
  EXPECT_EQ(h.cc.acks[0].bytes_acked, 1460u);
}

TEST(TcpSender, RttSampleFromTimestampEcho) {
  SenderHarness h(2 * 1460);
  h.snd->start();
  h.q.run_until(at_ms(7));
  h.snd->on_ack(h.ack_for(1460, h.wire[0].ts_val));
  EXPECT_EQ(h.snd->last_rtt().millis(), 7);
}

TEST(TcpSender, FiniteTransferCompletes) {
  TcpSenderConfig cfg;
  cfg.bytes_to_send = 10 * 1460;
  SenderHarness h(100 * 1460, cfg);
  h.snd->start();
  EXPECT_EQ(h.wire.size(), 10u);
  for (int i = 1; i <= 10; ++i) {
    h.snd->on_ack(h.ack_for(static_cast<uint64_t>(i) * 1460));
  }
  EXPECT_TRUE(h.snd->done());
  EXPECT_EQ(h.wire.size(), 10u);  // nothing extra sent
}

TEST(TcpSender, SackLossDetectionTriggersFastRetransmit) {
  SenderHarness h(10 * 1460);
  h.snd->start();
  ASSERT_EQ(h.wire.size(), 10u);
  // Segment 0 lost; segments 1..4 arrive and are SACKed.
  for (int i = 1; i <= 4; ++i) {
    Packet a = h.ack_for(0);
    a.num_sacks = 1;
    a.sack_start[0] = 1460;
    a.sack_end[0] = static_cast<uint64_t>(1 + i) * 1460;
    h.snd->on_ack(a);
  }
  EXPECT_EQ(h.cc.losses, 1);
  EXPECT_GE(h.snd->stats().fast_retransmits, 1u);
  // The retransmission of segment 0 went out.
  bool rexmit_zero = false;
  for (const auto& p : h.wire) {
    if (p.retransmit && p.seq == 0) rexmit_zero = true;
  }
  EXPECT_TRUE(rexmit_zero);
}

TEST(TcpSender, RtoFiresAndBacksOff) {
  TcpSenderConfig cfg;
  cfg.min_rto = Duration::from_millis(50);
  SenderHarness h(4 * 1460, cfg);
  h.snd->start();
  // Establish an RTT estimate (7 ms) so RTO clamps to min_rto.
  h.q.run_until(at_ms(7));
  h.snd->on_ack(h.ack_for(1460, h.wire[0].ts_val));
  // No further ACKs: the RTO (50 ms after the ack) must fire.
  h.q.run_until(at_ms(80));
  EXPECT_EQ(h.cc.timeouts, 1);
  EXPECT_GE(h.snd->stats().retransmits, 1u);
  // Exponential backoff: the next RTO takes ~100 ms more.
  h.q.run_until(at_ms(110));
  EXPECT_EQ(h.snd->stats().timeouts, 1u);
  h.q.run_until(at_ms(220));
  EXPECT_EQ(h.snd->stats().timeouts, 2u);
}

TEST(TcpSender, NoRtoWhenIdle) {
  TcpSenderConfig cfg;
  cfg.min_rto = Duration::from_millis(50);
  cfg.bytes_to_send = 1460;
  SenderHarness h(10 * 1460, cfg);
  h.snd->start();
  h.snd->on_ack(h.ack_for(1460));
  h.q.run_until(at_ms(500));
  EXPECT_EQ(h.cc.timeouts, 0);
}

TEST(TcpSender, PacingSpacesTransmissions) {
  // 1460+40 bytes per 10 ms => 150 kB/s.
  TcpSenderConfig cfg;
  SenderHarness h(100 * 1460, cfg, /*rate=*/150000.0);
  h.snd->start();
  h.q.run_until(at_ms(95));
  // Roughly one packet per 10 ms, not a window burst.
  EXPECT_GE(h.wire.size(), 8u);
  EXPECT_LE(h.wire.size(), 12u);
}

TEST(TcpSender, TailLossProbeElicitsRecovery) {
  TcpSenderConfig cfg;
  cfg.min_rto = Duration::from_millis(500);  // keep RTO out of the way
  SenderHarness h(10 * 1460, cfg);
  h.snd->start();
  // Establish an RTT estimate.
  h.q.run_until(at_ms(10));
  h.snd->on_ack(h.ack_for(1460, h.wire[0].ts_val));
  // Everything else (the tail) is lost: no more ACKs arrive.
  h.q.run_until(at_ms(120));
  EXPECT_GE(h.snd->stats().tail_loss_probes, 1u);
  EXPECT_EQ(h.cc.timeouts, 0);  // TLP beat the RTO
}

TEST(TcpSender, EcnEchoReachesCcModule) {
  SenderHarness h(5 * 1460);
  h.snd->start();
  Packet a = h.ack_for(1460);
  a.ece = true;
  h.snd->on_ack(a);
  ASSERT_EQ(h.cc.acks.size(), 1u);
  EXPECT_TRUE(h.cc.acks[0].ecn);
}

TEST(TcpSender, KarnRuleSkipsRetransmittedSamples) {
  SenderHarness h(2 * 1460);
  h.snd->start();
  h.q.run_until(at_ms(1100));  // default 1s RTO: segment 0 retransmitted
  ASSERT_GE(h.snd->stats().retransmits, 1u);
  // ACK covering the retransmitted range: no RTT sample taken.
  h.snd->on_ack(h.ack_for(1460, h.wire.back().ts_val));
  EXPECT_TRUE(h.snd->last_rtt().is_zero());
}

// ------------------------------------------------------- end-to-end loop

TEST(TcpEndToEnd, WindowLimitedTransferIsLossless) {
  EventQueue q;
  auto cfg = DumbbellConfig::make(10e6, Duration::from_millis(10), 1.0);
  Dumbbell net(q, cfg);
  // A fixed window below BDP can never overflow the queue.
  FixedWindow cc(5 * 1460);
  TcpSenderConfig scfg;
  scfg.bytes_to_send = 500 * 1460;
  auto& snd = net.add_flow(scfg, &cc, TimePoint::epoch());
  q.run_until(at_ms(10000));
  EXPECT_TRUE(snd.done());
  EXPECT_EQ(net.receiver(0).received_bytes(), 500u * 1460u);
  EXPECT_EQ(snd.stats().timeouts, 0u);
  EXPECT_EQ(snd.stats().retransmits, 0u);
  EXPECT_EQ(net.bottleneck().stats().dropped_pkts, 0u);
}

TEST(TcpEndToEnd, SurvivesSevereBufferPressure) {
  EventQueue q;
  // A tiny ~2-packet buffer forces heavy loss; the transfer must still
  // complete correctly.
  auto cfg = DumbbellConfig::make(10e6, Duration::from_millis(10), 0.25);
  Dumbbell net(q, cfg);
  algorithms::native::NativeReno reno(1460, 10 * 1460);
  TcpSenderConfig scfg;
  scfg.bytes_to_send = 300 * 1460;
  auto& snd = net.add_flow(scfg, &reno, TimePoint::epoch());
  q.run_until(at_ms(30000));
  EXPECT_TRUE(snd.done());
  EXPECT_EQ(net.receiver(0).received_bytes(), 300u * 1460u);
  EXPECT_GT(snd.stats().retransmits, 0u);
}

TEST(TcpEndToEnd, DeterministicAcrossRuns) {
  auto run_once = [] {
    EventQueue q;
    auto cfg = DumbbellConfig::make(50e6, Duration::from_millis(10), 1.0);
    Dumbbell net(q, cfg);
    algorithms::native::NativeReno reno(1460, 10 * 1460);
    auto& snd = net.add_flow(TcpSenderConfig{}, &reno, TimePoint::epoch());
    q.run_until(at_ms(2000));
    return std::make_tuple(snd.delivered_bytes(), snd.stats().retransmits,
                           snd.stats().segments_sent);
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------- recovery goldens
//
// Seeded transfers over a bottleneck with iid random loss at 0.1%, 1%
// and 5%, pinned by a 64-bit FNV-1a digest of every sender's stats,
// smoothed RTT and delivered bytes. Heavy random loss keeps SACK
// recovery busy (many holes, lost retransmissions, RACK re-marks, tail
// probes, timeouts), so these catch any change to the scoreboard scans
// or the event core that moves a single segment. On a mismatch the
// message carries the new digest; update a constant only for a change
// that is meant to alter simulated behaviour.

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

// Four flows share a 100 Mbit/s, 20 ms, 1-BDP bottleneck for 4 s: an
// unlimited Reno, a 4,000-segment Cubic transfer starting at 50 ms, an
// unlimited Reno behind delayed ACKs starting at 120 ms, and a fixed
// 300-segment window paced at 40 Mbit/s starting at 200 ms, which never
// backs off and so keeps many holes and SACKed runs in its scoreboard.
std::string recovery_digest(double loss, uint64_t seed) {
  EventQueue q;
  auto cfg = DumbbellConfig::make(100e6, Duration::from_millis(20), 1.0);
  cfg.bottleneck.random_loss = loss;
  cfg.bottleneck.loss_seed = seed;
  Dumbbell net(q, cfg);
  algorithms::native::NativeReno reno(1460, 10 * 1460);
  algorithms::native::NativeCubic cubic(1460, 10 * 1460);
  algorithms::native::NativeReno delayed(1460, 10 * 1460);
  FixedWindow paced(300 * 1460, 5e6);
  TcpSenderConfig sized;
  sized.bytes_to_send = 4000 * 1460;
  net.add_flow(TcpSenderConfig{}, &reno, TimePoint::epoch());
  net.add_flow(sized, &cubic, at_ms(50));
  net.add_flow(TcpSenderConfig{}, &delayed, at_ms(120),
               TcpReceiverConfig{.delayed_ack = true});
  net.add_flow(TcpSenderConfig{}, &paced, at_ms(200));
  q.run_until(at_ms(4000));
  std::string record;
  for (size_t i = 0; i < net.num_flows(); ++i) {
    TcpSender& snd = net.sender(i);
    const TcpSenderStats& s = snd.stats();
    for (const uint64_t v :
         {s.segments_sent, s.retransmits, s.fast_retransmits, s.timeouts, s.dupacks,
          s.loss_events, s.tail_loss_probes, snd.delivered_bytes(), snd.sent_bytes(),
          static_cast<uint64_t>(snd.srtt().nanos()), net.receiver(i).received_bytes()}) {
      record += std::to_string(v);
      record += ',';
    }
  }
  return hex64(fnv1a64(record));
}

TEST(TcpRecoveryGolden, TenthPercentLoss) {
  EXPECT_EQ(recovery_digest(0.001, 1), hex64(0x3fb00e18c453174eULL));
  EXPECT_EQ(recovery_digest(0.001, 2), hex64(0x06070f4843ebc3c0ULL));
}

TEST(TcpRecoveryGolden, OnePercentLoss) {
  EXPECT_EQ(recovery_digest(0.01, 1), hex64(0x9174ef65a778e2c4ULL));
  EXPECT_EQ(recovery_digest(0.01, 2), hex64(0xd5d9c77a4d6c006eULL));
}

TEST(TcpRecoveryGolden, FivePercentLoss) {
  EXPECT_EQ(recovery_digest(0.05, 1), hex64(0x9a4eac497b48df72ULL));
  EXPECT_EQ(recovery_digest(0.05, 2), hex64(0x90e1288fdfe7a514ULL));
}

}  // namespace
}  // namespace ccp::sim
