#include "sim/link.hpp"

#include <algorithm>
#include <stdexcept>

namespace ccp::sim {

void PacketLine::push(TimePoint at, const Packet& pkt) {
  if (!line_.empty() && at < line_.back().key.at) {
    throw std::logic_error("PacketLine: delivery before the one ahead of it");
  }
  Entry& entry = line_.push();
  entry.key = EventKey{at, events_.take_ticket()};
  entry.pkt = pkt;
  if (!head_.queued()) events_.schedule_at(at, entry.key.seq, head_);
}

void PacketLine::deliver_head() {
  // Copy out: the sink may push onto this line and grow the ring.
  const Packet pkt = line_.front().pkt;
  line_.pop();
  // Re-key to the next head before the sink runs: a sink that pushes
  // onto this line again then only appends behind it.
  if (!line_.empty()) {
    const EventKey& next = line_.front().key;
    events_.schedule_at(next.at, next.seq, head_);
  }
  sink_(pkt);
}

Link::Link(EventQueue& events, LinkConfig config, Sink sink)
    : events_(events),
      config_(std::move(config)),
      sink_(std::move(sink)),
      propagating_(events,
                   [this](const Packet& pkt) {
                     ++stats_.delivered_pkts;
                     stats_.delivered_bytes += pkt.wire_bytes();
                     sink_(pkt);
                   }),
      initial_rate_bps_(config_.rate_bps),
      loss_rng_(config_.loss_seed),
      service_(member_event<&Link::service_next>(this)),
      rate_change_(member_event<&Link::apply_rate_change>(this)) {
  // Arm the variable-rate schedule. Each change fires once, at its
  // absolute time and under the ticket it takes here; the schedule is
  // part of the config, so two links built from the same config produce
  // identical rate trajectories.
  for (const RateChange& change : config_.rate_schedule) {
    rate_changes_.push_back(
        {EventKey{TimePoint::epoch() + change.at, events_.take_ticket()}, change.rate_bps});
  }
  std::sort(rate_changes_.begin(), rate_changes_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (!rate_changes_.empty()) {
    const EventKey& first = rate_changes_.front().first;
    events_.schedule_at(first.at, first.seq, rate_change_);
  }
}

void Link::apply_rate_change() {
  config_.rate_bps = rate_changes_[next_rate_change_++].second;
  ++stats_.rate_changes_applied;
  if (next_rate_change_ < rate_changes_.size()) {
    const EventKey& next = rate_changes_[next_rate_change_].first;
    events_.schedule_at(next.at, next.seq, rate_change_);
  }
}

void Link::enqueue(const Packet& pkt) {
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
  Packet& queued = queue_.push();
  queued = pkt;
  if (pkt.ect && queue_bytes_ >= config_.ecn_threshold_bytes) {
    queued.ce = true;
    ++stats_.marked_pkts;
  }
  queue_bytes_ += pkt.wire_bytes();
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queue_bytes_);
  ++stats_.enqueued_pkts;
  if (!service_.queued()) service_next();
}

void Link::service_next() {
  if (queue_.empty()) return;  // idle until the next enqueue
  const Packet& pkt = queue_.front();
  queue_bytes_ -= pkt.wire_bytes();

  const Duration tx_time = serialization_delay(pkt.wire_bytes());
  // The next packet starts transmitting when this one finishes...
  events_.schedule_at(events_.now() + tx_time, service_);
  // ...and this one arrives after transmission plus propagation.
  propagating_.push(events_.now() + tx_time + config_.prop_delay, pkt);
  queue_.pop();
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
