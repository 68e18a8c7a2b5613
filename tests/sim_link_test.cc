#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/link.hpp"

namespace ccp::sim {
namespace {

Packet data_pkt(uint32_t flow, uint64_t seq, uint32_t len, bool ect = false) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.len = len;
  p.ect = ect;
  p.header_bytes = 40;
  return p;
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  EventQueue q;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte per microsecond
  cfg.prop_delay = Duration::from_millis(1);
  std::vector<TimePoint> arrivals;
  Link link(q, cfg, [&](Packet) { arrivals.push_back(q.now()); });
  link.enqueue(data_pkt(0, 0, 960));  // 1000 wire bytes -> 1 ms tx
  q.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ((arrivals[0] - TimePoint::epoch()).micros(), 2000);  // 1ms tx + 1ms prop
}

TEST(Link, BackToBackPacketsSpacedByServiceTime) {
  EventQueue q;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = Duration::zero();
  std::vector<TimePoint> arrivals;
  Link link(q, cfg, [&](Packet) { arrivals.push_back(q.now()); });
  for (int i = 0; i < 3; ++i) link.enqueue(data_pkt(0, i * 960, 960));
  q.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ((arrivals[1] - arrivals[0]).micros(), 1000);
  EXPECT_EQ((arrivals[2] - arrivals[1]).micros(), 1000);
}

TEST(Link, PreservesFifoOrder) {
  EventQueue q;
  LinkConfig cfg;
  std::vector<uint64_t> seqs;
  Link link(q, cfg, [&](Packet p) { seqs.push_back(p.seq); });
  for (uint64_t i = 0; i < 50; ++i) link.enqueue(data_pkt(0, i, 100));
  q.run();
  ASSERT_EQ(seqs.size(), 50u);
  EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
}

TEST(Link, DropTailWhenFull) {
  EventQueue q;
  LinkConfig cfg;
  cfg.rate_bps = 1e3;  // very slow: everything queues
  cfg.queue_capacity_bytes = 3000;
  int delivered = 0;
  Link link(q, cfg, [&](Packet) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.enqueue(data_pkt(0, i, 960));  // 1000 wire
  EXPECT_GT(link.stats().dropped_pkts, 0u);
  // Capacity admits 3 packets; the first starts transmitting immediately
  // so a 4th may slip in as the queue drains — but never more than the
  // byte budget allows at once.
  EXPECT_LE(link.queue_bytes(), cfg.queue_capacity_bytes);
}

TEST(Link, EcnMarksAboveThreshold) {
  EventQueue q;
  LinkConfig cfg;
  cfg.rate_bps = 1e3;
  cfg.queue_capacity_bytes = 100000;
  cfg.ecn_threshold_bytes = 2000;
  std::vector<bool> ce;
  Link link(q, cfg, [&](Packet p) { ce.push_back(p.ce); });
  for (int i = 0; i < 5; ++i) link.enqueue(data_pkt(0, i, 960, /*ect=*/true));
  q.run();
  ASSERT_EQ(ce.size(), 5u);
  EXPECT_FALSE(ce[0]);  // queue below threshold on arrival
  EXPECT_TRUE(ce[3]);   // standing queue above threshold
  EXPECT_TRUE(ce[4]);
  EXPECT_GT(link.stats().marked_pkts, 0u);
}

TEST(Link, NonEctPacketsAreNotMarked) {
  EventQueue q;
  LinkConfig cfg;
  cfg.rate_bps = 1e3;
  cfg.ecn_threshold_bytes = 500;
  cfg.queue_capacity_bytes = 100000;
  std::vector<bool> ce;
  Link link(q, cfg, [&](Packet p) { ce.push_back(p.ce); });
  for (int i = 0; i < 5; ++i) link.enqueue(data_pkt(0, i, 960, /*ect=*/false));
  q.run();
  for (bool marked : ce) EXPECT_FALSE(marked);
}

TEST(Link, StatsAccounting) {
  EventQueue q;
  LinkConfig cfg;
  Link link(q, cfg, [](Packet) {});
  link.enqueue(data_pkt(0, 0, 960));
  link.enqueue(data_pkt(0, 960, 960));
  q.run();
  EXPECT_EQ(link.stats().enqueued_pkts, 2u);
  EXPECT_EQ(link.stats().delivered_pkts, 2u);
  EXPECT_EQ(link.stats().delivered_bytes, 2000u);
}

TEST(DelayPipe, PureDelay) {
  EventQueue q;
  std::vector<TimePoint> arrivals;
  DelayPipe pipe(q, Duration::from_millis(5), [&](Packet) { arrivals.push_back(q.now()); });
  pipe.enqueue(data_pkt(0, 0, 100));
  pipe.enqueue(data_pkt(0, 100, 100));
  q.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ((arrivals[0] - TimePoint::epoch()).millis(), 5);
  EXPECT_EQ((arrivals[1] - TimePoint::epoch()).millis(), 5);  // no serialization
}

TEST(DelayPipe, ZeroDelayReentrantEnqueueStaysFifo) {
  EventQueue q;
  std::vector<uint64_t> order;
  DelayPipe* self = nullptr;
  DelayPipe pipe(q, Duration::zero(), [&](Packet p) {
    order.push_back(p.seq);
    // Each of the first packets sends another through the same pipe,
    // from inside the delivery.
    if (p.seq < 20) self->enqueue(data_pkt(0, p.seq + 3, 100));
  });
  self = &pipe;
  // Plain events reserved between the pipe's packets keep their places.
  pipe.enqueue(data_pkt(0, 1, 100));
  q.schedule(Duration::zero(), [&] { order.push_back(100); });
  pipe.enqueue(data_pkt(0, 2, 100));
  pipe.enqueue(data_pkt(0, 3, 100));
  q.schedule(Duration::zero(), [&] { order.push_back(101); });
  // Everything happens at time zero.
  q.run_until(TimePoint::epoch());
  std::vector<uint64_t> expected = {1, 100, 2, 3, 101};
  for (uint64_t seq = 4; seq <= 22; ++seq) expected.push_back(seq);
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(q.empty());
}

TEST(DelayPipe, SinkGrowsTheRingDuringDelivery) {
  EventQueue q;
  std::vector<uint64_t> order;
  DelayPipe* self = nullptr;
  DelayPipe pipe(q, Duration::zero(), [&](const Packet& p) {
    // The first delivery pushes 100 packets onto its own pipe, growing
    // the ring several times while the delivered packet is still in use.
    if (p.seq == 0) {
      for (uint64_t seq = 3; seq < 103; ++seq) self->enqueue(data_pkt(0, seq, 100));
    }
    order.push_back(p.seq);
  });
  self = &pipe;
  for (uint64_t seq = 0; seq < 3; ++seq) pipe.enqueue(data_pkt(0, seq, 100));
  q.run_until(TimePoint::epoch());
  std::vector<uint64_t> expected;
  for (uint64_t seq = 0; seq < 103; ++seq) expected.push_back(seq);
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(q.empty());
}

TEST(DelayPipe, KeepsOneQueuedEventForAllPacketsInFlight) {
  EventQueue q;
  int delivered = 0;
  DelayPipe pipe(q, Duration::from_millis(5), [&](Packet) { ++delivered; });
  for (int i = 0; i < 100; ++i) {
    q.schedule(Duration::from_micros(i), [&pipe, i] { pipe.enqueue(data_pkt(0, i, 100)); });
  }
  q.run_until(TimePoint::epoch() + Duration::from_millis(1));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(delivered, 100);
}

TEST(PacketLine, RejectsADeliveryBeforeTheOneAheadOfIt) {
  EventQueue q;
  PacketLine line(q, [](Packet) {});
  line.push(TimePoint::epoch() + Duration::from_millis(5), data_pkt(0, 0, 100));
  EXPECT_THROW(line.push(TimePoint::epoch() + Duration::from_millis(4), data_pkt(0, 1, 100)),
               std::logic_error);
}

TEST(Link, DeliveriesStayOrderedAcrossRateChange) {
  EventQueue q;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1000 wire bytes -> 1 ms
  cfg.prop_delay = Duration::from_millis(1);
  cfg.rate_schedule = {{Duration::from_micros(2500), 16e6}};  // -> 0.5 ms
  std::vector<std::pair<uint64_t, int64_t>> got;  // (seq, arrival us)
  Link link(q, cfg, [&](Packet p) {
    got.push_back({p.seq, (q.now() - TimePoint::epoch()).micros()});
  });
  for (uint64_t i = 0; i < 6; ++i) link.enqueue(data_pkt(0, i, 960));
  q.run();
  // Services start at 0, 1, 2 ms at the old rate (the one in service at
  // 2.5 ms keeps it), then 3, 3.5, 4 ms at the new one; each delivery
  // follows its serialization by the 1 ms propagation delay.
  const std::vector<std::pair<uint64_t, int64_t>> expected = {
      {0, 2000}, {1, 3000}, {2, 4000}, {3, 4500}, {4, 5000}, {5, 5500}};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(link.stats().rate_changes_applied, 1u);
}

TEST(Link, SinkReentersTheSameLinkInFifoOrder) {
  EventQueue q;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1000 wire bytes -> 1 ms
  cfg.prop_delay = Duration::from_millis(20);  // ~20 packets propagating
  cfg.queue_capacity_bytes = 1'000'000;
  std::vector<uint64_t> offered;
  std::vector<std::pair<uint64_t, int64_t>> got;  // (seq, arrival us)
  Link* self = nullptr;
  const auto offer = [&](uint64_t seq) {
    offered.push_back(seq);
    self->enqueue(data_pkt(0, seq, 960));
  };
  Link link(q, cfg, [&](const Packet& p) {
    // Each of the first 40 packets sends three more through this link
    // from inside its delivery: the queue and the propagation ring both
    // grow while the link is mid-stream.
    if (p.seq < 40) {
      for (int i = 0; i < 3; ++i) offer(offered.size());
    }
    got.push_back({p.seq, (q.now() - TimePoint::epoch()).micros()});
  });
  self = &link;
  for (uint64_t seq = 0; seq < 4; ++seq) offer(seq);
  q.run();
  ASSERT_EQ(got.size(), 4u + 3u * 40u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, offered[i]) << i;
    // Sequential service: deliveries at least one serialization apart.
    if (i > 0) {
      EXPECT_GE(got[i].second - got[i - 1].second, 1000) << i;
    }
  }
  EXPECT_EQ(link.stats().dropped_pkts, 0u);
  EXPECT_EQ(link.stats().delivered_pkts, got.size());
}

TEST(Link, KeepsOneDeliveryEventForPacketsInPropagation) {
  EventQueue q;
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.prop_delay = Duration::from_millis(10);
  cfg.queue_capacity_bytes = 1'000'000;
  int delivered = 0;
  Link link(q, cfg, [&](Packet) { ++delivered; });
  for (int i = 0; i < 50; ++i) link.enqueue(data_pkt(0, i * 960, 960));
  // All 50 are serialized within 0.5 ms and propagating: one queued
  // event delivers them all.
  q.run_until(TimePoint::epoch() + Duration::from_millis(1));
  EXPECT_EQ(link.queue_bytes(), 0u);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(delivered, 50);
}

}  // namespace
}  // namespace ccp::sim
