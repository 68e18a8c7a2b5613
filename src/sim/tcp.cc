#include "sim/tcp.hpp"

#include <algorithm>

namespace ccp::sim {

// ---------------------------------------------------------------- sender

TcpSender::TcpSender(EventQueue& events, uint32_t flow_id, TcpSenderConfig config,
                     datapath::CcModule* cc, Egress egress)
    : events_(events),
      flow_id_(flow_id),
      config_(config),
      cc_(cc),
      egress_(std::move(egress)),
      rto_timer_(events, [this] { on_rto_fire(); }),
      tlp_timer_(events, [this] { on_tlp_fire(); }),
      pace_kick_(member_event<&TcpSender::try_send>(this)) {}

void TcpSender::start() {
  started_ = true;
  try_send();
}

void TcpSender::stop() {
  stop_limit_ = std::min(stop_limit_, snd_nxt_);
}

uint64_t TcpSender::data_limit() const {
  return std::min(config_.bytes_to_send.value_or(UINT64_MAX), stop_limit_);
}

uint64_t TcpSender::bytes_in_flight() const {
  // RFC 6675 pipe: everything sent and not cum-acked, minus what the
  // receiver holds (SACKed) and what we believe the network dropped
  // (lost and not yet retransmitted).
  const uint64_t outstanding = snd_nxt_ - snd_una_;
  const uint64_t absent = sacked_bytes_ + lost_unrexmitted_bytes_;
  return outstanding > absent ? outstanding - absent : 0;
}

bool TcpSender::pacing_allows(uint32_t len) {
  const double rate = cc_->pacing_rate_bps();  // bytes per second
  if (rate <= 0) return true;
  const TimePoint now = events_.now();
  if (now < next_pace_time_) {
    schedule_pacing_kick(next_pace_time_);
    return false;
  }
  const Duration gap = Duration::from_nanos(
      static_cast<int64_t>((len + config_.header_bytes) / rate * 1e9));
  next_pace_time_ = (next_pace_time_ > now ? next_pace_time_ : now) + gap;
  return true;
}

void TcpSender::try_send() {
  if (!started_) return;
  const uint64_t cwnd = cc_->cwnd_bytes();

  for (;;) {
    // 1. Retransmissions of lost segments take priority (RFC 6675).
    if (lost_unrexmitted_bytes_ > 0 && bytes_in_flight() + config_.mss <= cwnd) {
      const size_t i = first_unrepaired();
      if (i < scoreboard_.size()) {
        if (!pacing_allows(scoreboard_[i].len)) return;
        repair(i);
        continue;
      }
      lost_unrexmitted_bytes_ = 0;  // scoreboard says otherwise; resync
    }

    // 2. New data.
    if (snd_nxt_ >= data_limit()) return;
    const uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(config_.mss, data_limit() - snd_nxt_));
    if (bytes_in_flight() + len > cwnd) return;
    if (!pacing_allows(len)) return;

    scoreboard_.push_back(
        SegState{.seq = snd_nxt_, .len = len, .sent_time = events_.now(),
                 .first_sent = events_.now()});
    send_segment(snd_nxt_, len, /*retransmit=*/false);
    snd_nxt_ += len;
  }
}

void TcpSender::schedule_pacing_kick(TimePoint at) {
  if (pace_kick_.queued()) return;
  events_.schedule_at(at < events_.now() ? events_.now() : at, pace_kick_);
}

size_t TcpSender::next_unsacked(size_t i) {
  const size_t n = scoreboard_.size();
  size_t j = i;
  while (j < n && scoreboard_[j].sacked) j += scoreboard_[j].skip;
  // Path compression: point every SACKed segment passed straight at j.
  while (i < j) {
    SegState& seg = scoreboard_[i];
    const size_t next = i + seg.skip;
    seg.skip = static_cast<uint32_t>(j - i);
    i = next;
  }
  return j;
}

size_t TcpSender::first_unrepaired() {
  // Lost segments are never SACKed, so only unSACKed ones need a look.
  size_t i = next_unsacked(0);
  while (i < scoreboard_.size() &&
         !(scoreboard_[i].lost && !scoreboard_[i].rexmitted)) {
    i = next_unsacked(i + 1);
  }
  return i;
}

void TcpSender::repair(size_t i) {
  SegState& seg = scoreboard_[i];
  seg.rexmitted = true;
  seg.sent_time = events_.now();
  lost_unrexmitted_bytes_ -= seg.len;
  send_segment(seg.seq, seg.len, /*retransmit=*/true);
}

void TcpSender::send_segment(uint64_t seq, uint32_t len, bool retransmit) {
  Packet pkt;
  pkt.flow = flow_id_;
  pkt.uid = next_uid_++;
  pkt.seq = seq;
  pkt.len = len;
  pkt.retransmit = retransmit;
  pkt.ts_val = events_.now();
  pkt.ect = config_.ecn_enabled;
  pkt.header_bytes = config_.header_bytes;

  ++stats_.segments_sent;
  if (retransmit) {
    ++stats_.retransmits;
    high_rexmit_ = std::max(high_rexmit_, seq + len);
  }
  cc_->on_send(datapath::SendEvent{events_.now(), len});
  arm_rto();
  arm_tlp();
  egress_(pkt);
}

void TcpSender::arm_tlp() {
  if (tlp_timer_.armed()) return;
  const Duration pto =
      srtt_.is_zero() ? Duration::from_millis(50)
                      : std::max(srtt_ * 2.0, Duration::from_millis(10));
  tlp_timer_.arm(events_.now() + pto);
}

void TcpSender::on_tlp_fire() {
  if (snd_nxt_ == snd_una_) return;
  // Probe with the highest unSACKed outstanding segment. Any SACK it
  // elicits sits above every tail hole, unlocking SACK loss detection.
  for (auto it = scoreboard_.rbegin(); it != scoreboard_.rend(); ++it) {
    if (!it->sacked) {
      ++stats_.tail_loss_probes;
      it->sent_time = events_.now();
      send_segment(it->seq, it->len, /*retransmit=*/true);
      return;
    }
  }
}

uint64_t TcpSender::process_sacks(const Packet& ack) {
  uint64_t newly_sacked = 0;
  for (uint8_t i = 0; i < ack.num_sacks; ++i) {
    const uint64_t start = ack.sack_start[i];
    const uint64_t end = ack.sack_end[i];
    high_sacked_ = std::max(high_sacked_, end);
    const size_t from = static_cast<size_t>(
        std::lower_bound(scoreboard_.begin(), scoreboard_.end(), start,
                         [](const SegState& seg, uint64_t seq) { return seg.seq < seq; }) -
        scoreboard_.begin());
    for (size_t i = next_unsacked(from);
         i < scoreboard_.size() && scoreboard_[i].seq < end; i = next_unsacked(i)) {
      SegState& seg = scoreboard_[i];
      seg.sacked = true;
      seg.skip = 1;
      sacked_bytes_ += seg.len;
      newly_sacked += seg.len;
      rack_newest_delivered_ = std::max(rack_newest_delivered_, seg.sent_time);
      if (seg.lost) {
        // Spuriously marked lost but actually delivered.
        seg.lost = false;
        if (!seg.rexmitted) lost_unrexmitted_bytes_ -= seg.len;
      }
    }
  }
  return newly_sacked;
}

uint32_t TcpSender::detect_losses() {
  uint32_t newly_lost = 0;

  // RFC 6675 byte rule: a hole with >= dupthresh MSS of SACKed data
  // above it is lost.
  const uint64_t threshold_bytes =
      static_cast<uint64_t>(config_.dupthresh) * config_.mss;
  // RACK time rule: anything sent reo_wnd before the newest delivered
  // segment's transmit time is lost (including stale retransmissions).
  const Duration reo_wnd =
      srtt_.is_zero() ? Duration::from_millis(1) : srtt_ / 4;
  const bool have_rack = rack_newest_delivered_ != TimePoint{};

  // SACKed segments are skipped: they are never marked, and since the
  // stop condition below is monotone in seq, the first unSACKed segment
  // past it is where the scan would have stopped anyway.
  for (size_t i = next_unsacked(0); i < scoreboard_.size(); i = next_unsacked(i + 1)) {
    SegState& seg = scoreboard_[i];
    // Past both frontiers nothing further can be marked: the byte rule
    // is monotone in seq, and sent_time >= first_sent, which ascends
    // with seq, bounds every later RACK comparison.
    const bool byte_frontier_passed =
        high_sacked_ == 0 || seg.seq + threshold_bytes >= high_sacked_;
    const bool rack_frontier_passed =
        !have_rack || seg.first_sent + reo_wnd >= rack_newest_delivered_;
    if (byte_frontier_passed && rack_frontier_passed) break;
    if (seg.lost) {
      // A retransmission can itself be lost: RACK re-marks it once newer
      // data is known delivered.
      if (seg.rexmitted && have_rack &&
          seg.sent_time + reo_wnd < rack_newest_delivered_) {
        seg.rexmitted = false;
        lost_unrexmitted_bytes_ += seg.len;
        ++newly_lost;
      }
      continue;
    }
    const bool byte_rule = !byte_frontier_passed && !seg.rexmitted;
    const bool rack_rule =
        have_rack && seg.sent_time + reo_wnd < rack_newest_delivered_;
    if (byte_rule || rack_rule) {
      seg.lost = true;
      seg.rexmitted = false;
      lost_unrexmitted_bytes_ += seg.len;
      ++newly_lost;
    }
  }
  if (newly_lost > 0 && !in_recovery_) enter_recovery();
  return newly_lost;
}

void TcpSender::enter_recovery() {
  in_recovery_ = true;
  recovery_point_ = snd_nxt_;
  ++stats_.loss_events;
  ++stats_.fast_retransmits;
  cc_->on_loss(datapath::LossEvent{events_.now(), 1, bytes_in_flight()});
  // Classic fast retransmit: the first repair goes out immediately, even
  // if the pipe is still above the (freshly reduced) window.
  const size_t i = first_unrepaired();
  if (i < scoreboard_.size()) repair(i);
}

void TcpSender::update_rtt(Duration sample) {
  last_rtt_ = sample;
  if (config_.record_rtt_samples) {
    rtt_samples_.add(static_cast<double>(sample.micros()));
  }
  if (srtt_.is_zero()) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const Duration err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = Duration::from_nanos((3 * rttvar_.nanos() + err.nanos()) / 4);
    srtt_ = Duration::from_nanos((7 * srtt_.nanos() + sample.nanos()) / 8);
  }
  rto_ = srtt_ + rttvar_ * 4.0;
  rto_ = std::max(rto_, config_.min_rto);
  rto_ = std::min(rto_, config_.max_rto);
}

void TcpSender::on_ack(const Packet& ack) {
  const TimePoint now = events_.now();

  // Any ACK is forward progress for the tail-loss probe timer.
  tlp_timer_.cancel();

  const uint64_t newly_sacked = process_sacks(ack);

  if (ack.ack_seq > snd_una_) {
    const uint64_t bytes_acked = ack.ack_seq - snd_una_;
    snd_una_ = ack.ack_seq;
    dupacks_ = 0;
    rto_backoff_ = 1;

    // Retire scoreboard entries below the new cumulative ACK, tracking
    // how many of those bytes were already counted delivered via SACK.
    uint64_t retired_sacked = 0;
    while (!scoreboard_.empty() && scoreboard_.front().seq < snd_una_) {
      const SegState& seg = scoreboard_.front();
      if (seg.sacked) {
        sacked_bytes_ -= seg.len;
        retired_sacked += seg.len;
      }
      if (seg.lost && !seg.rexmitted) lost_unrexmitted_bytes_ -= seg.len;
      rack_newest_delivered_ = std::max(rack_newest_delivered_, seg.sent_time);
      scoreboard_.pop_front();
    }

    // Karn's rule: only sample RTT if no retransmitted data is covered.
    Duration rtt_sample = Duration::zero();
    if (snd_una_ > high_rexmit_) {
      rtt_sample = now - ack.ts_echo;
      update_rtt(rtt_sample);
    }

    if (in_recovery_ && snd_una_ >= recovery_point_) in_recovery_ = false;

    const uint32_t newly_lost = detect_losses();

    datapath::AckEvent ev;
    ev.now = now;
    ev.bytes_acked = bytes_acked;
    ev.bytes_delivered = bytes_acked - retired_sacked + newly_sacked;
    ev.packets_acked =
        static_cast<uint32_t>((bytes_acked + config_.mss - 1) / config_.mss);
    ev.rtt_sample = rtt_sample;
    ev.ecn = ack.ece;
    ev.newly_lost_packets = newly_lost;
    ev.bytes_in_flight = bytes_in_flight();
    ev.packets_in_flight =
        static_cast<uint32_t>(bytes_in_flight() / config_.mss);
    ev.bytes_pending = data_limit() == UINT64_MAX
                           ? UINT64_MAX
                           : data_limit() - std::min(data_limit(), snd_nxt_);
    cc_->on_ack(ev);

    // Restart the RTO on forward progress (re-keying its queued event in
    // place; the backoff was just reset to 1); with nothing outstanding,
    // quench it.
    if (snd_nxt_ != snd_una_) {
      rto_timer_.arm(now + rto_);
      arm_tlp();
    } else {
      rto_timer_.cancel();
    }
  } else if (snd_nxt_ > snd_una_) {
    arm_tlp();
    // Duplicate ACK.
    ++dupacks_;
    ++stats_.dupacks;
    const uint32_t newly_lost = detect_losses();
    if (newly_sacked > 0 || newly_lost > 0) {
      // SACKed data is delivered data, and freshly marked losses are
      // congestion signals: surface both to the CC module so delivery
      // rates and loss accounting stay truthful through recovery.
      datapath::AckEvent ev;
      ev.now = now;
      ev.bytes_acked = 0;
      ev.bytes_delivered = newly_sacked;
      ev.newly_lost_packets = newly_lost;
      ev.ecn = ack.ece;
      ev.bytes_in_flight = bytes_in_flight();
      ev.packets_in_flight =
          static_cast<uint32_t>(bytes_in_flight() / config_.mss);
      cc_->on_ack(ev);
    }
    // Pure-dupack fallback (no SACK information, e.g. a reordered ACK
    // burst): classic triple-dupack entry.
    if (!in_recovery_ && ack.num_sacks == 0 && dupacks_ >= config_.dupthresh) {
      if (!scoreboard_.empty() && scoreboard_.front().seq == snd_una_ &&
          !scoreboard_.front().lost) {
        SegState& seg = scoreboard_.front();
        seg.lost = true;
        seg.rexmitted = false;
        lost_unrexmitted_bytes_ += seg.len;
      }
      enter_recovery();
    }
  }

  try_send();
}

void TcpSender::arm_rto() {
  if (rto_timer_.armed()) return;
  rto_timer_.arm(events_.now() + rto_ * static_cast<double>(rto_backoff_));
}

void TcpSender::on_rto_fire() {
  if (snd_nxt_ == snd_una_) return;

  ++stats_.timeouts;
  ++stats_.loss_events;
  dupacks_ = 0;
  in_recovery_ = false;
  high_rexmit_ = snd_nxt_;  // Karn: distrust everything outstanding
  rto_backoff_ = std::min(rto_backoff_ * 2, 64u);

  // Everything unsacked and outstanding is presumed lost.
  lost_unrexmitted_bytes_ = 0;
  for (SegState& seg : scoreboard_) {
    if (!seg.sacked) {
      seg.lost = true;
      seg.rexmitted = false;
      lost_unrexmitted_bytes_ += seg.len;
    }
  }

  cc_->on_timeout(datapath::TimeoutEvent{events_.now()});
  arm_rto();
  try_send();
}

// -------------------------------------------------------------- receiver

TcpReceiver::TcpReceiver(EventQueue& events, uint32_t flow_id,
                         TcpReceiverConfig config, Egress egress)
    : events_(events),
      flow_id_(flow_id),
      config_(config),
      egress_(std::move(egress)),
      delayed_timer_(events, [this] {
        if (unacked_segments_ > 0) flush_delayed(delayed_trigger_);
      }) {}

void TcpReceiver::on_data(const Packet& pkt) {
  const uint64_t start = pkt.seq;
  const uint64_t end = pkt.seq + pkt.len;
  const bool in_order = start <= cum_ack_ && end > cum_ack_;

  if (end > cum_ack_) {
    if (in_order) {
      cum_ack_ = end;
      // Pull any buffered ranges now contiguous with the cumulative ACK.
      auto it = ooo_.begin();
      while (it != ooo_.end() && it->first <= cum_ack_) {
        cum_ack_ = std::max(cum_ack_, it->second);
        it = ooo_.erase(it);
      }
    } else {
      // Out of order: remember the range, merging with neighbors.
      auto [it, inserted] = ooo_.emplace(start, end);
      if (!inserted) it->second = std::max(it->second, end);
      // Merge forward.
      auto next = std::next(it);
      while (next != ooo_.end() && next->first <= it->second) {
        it->second = std::max(it->second, next->second);
        next = ooo_.erase(next);
      }
      // Merge backward.
      if (it != ooo_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= it->first) {
          prev->second = std::max(prev->second, it->second);
          ooo_.erase(it);
        }
      }
    }
  }

  if (config_.delayed_ack && in_order && ooo_.empty()) {
    ++unacked_segments_;
    if (unacked_segments_ >= 2) {
      flush_delayed(pkt);
    } else {
      delayed_trigger_ = pkt;
      delayed_timer_.arm(events_.now() + Duration::from_millis(1));
    }
    return;
  }
  // Out-of-order data or duplicates: ACK immediately (loss recovery
  // depends on prompt dupacks/SACKs).
  flush_delayed(pkt);
}

void TcpReceiver::flush_delayed(const Packet& trigger) {
  unacked_segments_ = 0;
  delayed_timer_.cancel();
  send_ack(trigger);
}

void TcpReceiver::send_ack(const Packet& trigger) {
  Packet ack;
  ack.flow = flow_id_;
  ack.uid = next_uid_++;
  ack.is_ack = true;
  ack.ack_seq = cum_ack_;
  ack.ts_echo = trigger.ts_val;
  ack.ece = trigger.ce;  // per-ACK echo of the congestion experience bit
  ack.header_bytes = trigger.header_bytes;
  // SACK blocks, RFC 2018 style: the block containing the most recently
  // received segment MUST come first. (Without this, a tail-loss probe's
  // delivery is never reported to the sender — its range sits beyond the
  // first few out-of-order ranges — and RACK cannot re-mark lost
  // retransmissions, deadlocking recovery until an RTO.)
  auto add_block = [&ack](uint64_t s, uint64_t e) {
    for (uint8_t i = 0; i < ack.num_sacks; ++i) {
      if (ack.sack_start[i] == s) return;  // already included
    }
    if (ack.num_sacks < Packet::kMaxSackBlocks) {
      ack.sack_start[ack.num_sacks] = s;
      ack.sack_end[ack.num_sacks] = e;
      ++ack.num_sacks;
    }
  };
  if (!ooo_.empty() && trigger.len > 0 && trigger.seq >= cum_ack_) {
    // Find the (merged) range holding the triggering segment.
    auto it = ooo_.upper_bound(trigger.seq);
    if (it != ooo_.begin()) {
      --it;
      if (trigger.seq >= it->first && trigger.seq < it->second) {
        add_block(it->first, it->second);
      }
    }
  }
  // The blocks are full after kMaxSackBlocks ranges; stop there rather
  // than walk every hole under heavy loss.
  for (auto it = ooo_.begin();
       it != ooo_.end() && ack.num_sacks < Packet::kMaxSackBlocks; ++it) {
    add_block(it->first, it->second);
  }
  egress_(ack);
}

}  // namespace ccp::sim
