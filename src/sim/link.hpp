// Bottleneck link with a drop-tail queue and optional ECN marking.
//
// Models the standard dumbbell bottleneck: packets enter a FIFO byte
// queue; the link serves them at `rate_bps` and delivers each to the
// sink after `prop_delay`. When the queue is full the arriving packet is
// dropped (drop-tail). If an ECN threshold is set, packets that arrive
// to a standing queue above the threshold get their CE bit set instead
// of (not in addition to) being dropped — the DCTCP-style marking that
// Table 1's ECN-based algorithms consume.
//
// Two optional impairments model "wireless" links for the scenario
// harness:
//   - `random_loss`: each arriving packet is independently dropped with
//     this probability, from a private xoshiro stream seeded by
//     `loss_seed` — the same seed always yields the same drop sequence.
//   - `rate_schedule`: timed rate changes (sorted by time, applied
//     once). The packet being serialized keeps the rate it started
//     with; later packets see the new rate.
//
// Packets in propagation wait in a PacketLine: a ring FIFO of
// {at, ticket, Packet} drained by one owned event. Deliveries out of a
// link are monotone in (at, seq) because service is sequential and the
// propagation delay is constant; out of a DelayPipe because its delay is
// constant. So the FIFO head is always the next delivery due, and every
// packet still lands at the (at, seq) position a per-packet event would
// have had (see the ticket contract in sim/event_queue.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/packet.hpp"
#include "sim/ring.hpp"
#include "util/rng.hpp"

namespace ccp::sim {

/// One entry of a variable-rate schedule: at `at`, the link rate becomes
/// `rate_bps`.
struct RateChange {
  Duration at;
  double rate_bps;
};

struct LinkConfig {
  double rate_bps = 1e9;                       // bits per second
  Duration prop_delay = Duration::from_millis(5);
  uint64_t queue_capacity_bytes = 125'000;     // 1 BDP at 1 Gbit/s x 1 ms
  uint64_t ecn_threshold_bytes = std::numeric_limits<uint64_t>::max();
  double random_loss = 0.0;                    // iid drop probability per packet
  uint64_t loss_seed = 1;                      // seeds the private loss RNG
  std::vector<RateChange> rate_schedule;       // ascending by .at
};

struct LinkStats {
  uint64_t enqueued_pkts = 0;
  uint64_t delivered_pkts = 0;
  uint64_t dropped_pkts = 0;         // drop-tail (queue full)
  uint64_t random_dropped_pkts = 0;  // random_loss model, counted separately
  uint64_t marked_pkts = 0;
  uint64_t rate_changes_applied = 0;
  uint64_t delivered_bytes = 0;  // wire bytes through the link
  uint64_t max_queue_bytes = 0;
};

/// Packets in flight toward one sink, delivered in push order by one
/// owned event keyed to the head. Each push takes a ticket at push time,
/// so a delivery runs where an event scheduled by the push would have
/// run. Pushes must be nondecreasing in delivery time.
class PacketLine {
 public:
  using Sink = std::function<void(const Packet&)>;

  PacketLine(EventQueue& events, Sink sink)
      : events_(events),
        sink_(std::move(sink)),
        head_(member_event<&PacketLine::deliver_head>(this)) {}
  PacketLine(const PacketLine&) = delete;
  PacketLine& operator=(const PacketLine&) = delete;

  /// Puts `pkt` in flight for delivery to the sink at `at`.
  void push(TimePoint at, const Packet& pkt);

 private:
  struct Entry {
    EventKey key;
    Packet pkt;
  };

  void deliver_head();

  EventQueue& events_;
  Sink sink_;
  Ring<Entry> line_;
  Event head_;
};

class Link {
 public:
  using Sink = std::function<void(const Packet&)>;

  Link(EventQueue& events, LinkConfig config, Sink sink);

  /// Offers a packet to the queue; may drop (random loss or drop-tail)
  /// or CE-mark it.
  void enqueue(const Packet& pkt);

  uint64_t queue_bytes() const { return queue_bytes_; }
  const LinkConfig& config() const { return config_; }
  const LinkStats& stats() const { return stats_; }

  /// Time-weighted mean rate over [epoch, until], accounting for the
  /// rate schedule. With no schedule this is just `rate_bps`. Used by
  /// scorecards to compute utilization on variable-rate links.
  double mean_rate_bps(Duration until) const;

  /// Serialization time of one packet at the current link rate.
  Duration serialization_delay(uint32_t wire_bytes) const {
    return Duration::from_nanos(
        static_cast<int64_t>(wire_bytes * 8.0 / config_.rate_bps * 1e9));
  }

 private:
  void service_next();
  void apply_rate_change();

  EventQueue& events_;
  LinkConfig config_;
  Sink sink_;
  PacketLine propagating_;  // serialized, not yet delivered
  double initial_rate_bps_;  // config rate before any schedule applied
  Rng loss_rng_;
  Ring<Packet> queue_;
  uint64_t queue_bytes_ = 0;
  Event service_;  // queued while a packet is being serialized
  // The rate schedule as (key, rate), in key order, walked by one event.
  std::vector<std::pair<EventKey, double>> rate_changes_;
  size_t next_rate_change_ = 0;
  Event rate_change_;
  LinkStats stats_;
};

/// A delay-only pipe (used for the reverse/ACK path: plentiful bandwidth,
/// no queueing — the usual dumbbell assumption).
class DelayPipe {
 public:
  using Sink = PacketLine::Sink;

  DelayPipe(EventQueue& events, Duration delay, Sink sink)
      : events_(events), delay_(delay), line_(events, std::move(sink)) {}

  void enqueue(const Packet& pkt) { line_.push(events_.now() + delay_, pkt); }

 private:
  EventQueue& events_;
  Duration delay_;
  PacketLine line_;
};

}  // namespace ccp::sim
