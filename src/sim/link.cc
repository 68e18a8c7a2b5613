#include "sim/link.hpp"

#include <algorithm>
#include <stdexcept>

namespace ccp::sim {

void PacketLine::push(TimePoint at, Packet pkt) {
  if (!line_.empty() && at < line_.back().key.at) {
    throw std::logic_error("PacketLine: delivery before the one ahead of it");
  }
  line_.push_back(Entry{EventKey{at, events_.take_ticket()}, std::move(pkt)});
  if (!head_queued_) queue_head();
}

void PacketLine::queue_head() {
  head_queued_ = true;
  const EventKey& key = line_.front().key;
  events_.schedule_at(key.at, key.seq, [this] { deliver_head(); });
}

void PacketLine::deliver_head() {
  Packet pkt = std::move(line_.front().pkt);
  line_.pop_front();
  // Queue the next head before the sink runs: a sink that pushes onto
  // this line again then only appends behind it.
  head_queued_ = false;
  if (!line_.empty()) queue_head();
  sink_(std::move(pkt));
}

Link::Link(EventQueue& events, LinkConfig config, Sink sink)
    : events_(events),
      config_(std::move(config)),
      sink_(std::move(sink)),
      propagating_(events,
                   [this](Packet pkt) {
                     ++stats_.delivered_pkts;
                     stats_.delivered_bytes += pkt.wire_bytes();
                     sink_(std::move(pkt));
                   }),
      initial_rate_bps_(config_.rate_bps),
      loss_rng_(config_.loss_seed) {
  // Arm the variable-rate schedule. Each change fires once, at its
  // absolute time; the schedule is part of the config, so two links
  // built from the same config produce identical rate trajectories.
  for (const RateChange& change : config_.rate_schedule) {
    events_.schedule_at(TimePoint::epoch() + change.at,
                        [this, rate = change.rate_bps] {
                          config_.rate_bps = rate;
                          ++stats_.rate_changes_applied;
                        });
  }
}

void Link::enqueue(Packet pkt) {
  // Random ("wireless") loss acts before the queue: the packet never
  // occupied buffer space. Drawn per arriving packet so the drop
  // sequence is a pure function of (loss_seed, arrival order).
  if (config_.random_loss > 0 && loss_rng_.chance(config_.random_loss)) {
    ++stats_.random_dropped_pkts;
    return;
  }
  // Drop-tail on the byte budget; an empty queue always admits one
  // packet (a real queue can hold at least one MTU regardless of its
  // configured byte limit).
  if (!queue_.empty() &&
      queue_bytes_ + pkt.wire_bytes() > config_.queue_capacity_bytes) {
    ++stats_.dropped_pkts;
    return;
  }
  if (pkt.ect && queue_bytes_ >= config_.ecn_threshold_bytes) {
    pkt.ce = true;
    ++stats_.marked_pkts;
  }
  queue_bytes_ += pkt.wire_bytes();
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queue_bytes_);
  ++stats_.enqueued_pkts;
  queue_.push_back(std::move(pkt));
  if (!busy_) service_next();
}

void Link::service_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Packet pkt = std::move(queue_.front());
  queue_.pop_front();
  queue_bytes_ -= pkt.wire_bytes();

  const Duration tx_time = serialization_delay(pkt.wire_bytes());
  // The next packet starts transmitting when this one finishes...
  events_.schedule(tx_time, [this] { service_next(); });
  // ...and this one arrives after transmission plus propagation.
  propagating_.push(events_.now() + tx_time + config_.prop_delay, std::move(pkt));
}

double Link::mean_rate_bps(Duration until) const {
  if (config_.rate_schedule.empty() || until <= Duration::zero()) {
    return initial_rate_bps_;
  }
  // Integrate the configured schedule over [0, until]. The schedule is
  // ascending; the rate before its first entry is the construction-time
  // rate (config_.rate_bps mutates as changes apply, so it cannot be
  // read back for this).
  double integral = 0;
  Duration prev = Duration::zero();
  double rate = initial_rate_bps_;
  for (const RateChange& change : config_.rate_schedule) {
    const Duration at = change.at < until ? change.at : until;
    if (at > prev) {
      integral += rate * (at - prev).secs();
      prev = at;
    }
    if (change.at >= until) break;
    rate = change.rate_bps;
  }
  if (until > prev) integral += rate * (until - prev).secs();
  return integral / until.secs();
}

}  // namespace ccp::sim
