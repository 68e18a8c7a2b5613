#include "sim/dumbbell.hpp"

namespace ccp::sim {

DumbbellConfig DumbbellConfig::make(double rate_bps, Duration base_rtt,
                                    double buffer_bdp,
                                    uint64_t ecn_threshold_bytes) {
  DumbbellConfig cfg;
  cfg.bottleneck.rate_bps = rate_bps;
  cfg.bottleneck.prop_delay = base_rtt / 2;
  cfg.reverse_delay = base_rtt / 2;
  const double bdp_bytes = rate_bps / 8.0 * base_rtt.secs();
  cfg.bottleneck.queue_capacity_bytes =
      static_cast<uint64_t>(bdp_bytes * buffer_bdp);
  cfg.bottleneck.ecn_threshold_bytes = ecn_threshold_bytes;
  return cfg;
}

Dumbbell::Dumbbell(EventQueue& events, DumbbellConfig config)
    : events_(events), config_(config) {
  bottleneck_ = std::make_unique<Link>(events_, config_.bottleneck, [this](const Packet& pkt) {
    if (pkt.flow < receivers_.size() && receivers_[pkt.flow] != nullptr) {
      receivers_[pkt.flow]->on_data(pkt);
    }
  });
  reverse_ = std::make_unique<DelayPipe>(events_, config_.reverse_delay,
                                         [this](const Packet& pkt) {
                                           if (pkt.flow < senders_.size() &&
                                               senders_[pkt.flow] != nullptr) {
                                             senders_[pkt.flow]->on_ack(pkt);
                                           }
                                         });
}

TcpSender& Dumbbell::add_flow(const TcpSenderConfig& scfg, datapath::CcModule* cc,
                              TimePoint start, TcpReceiverConfig rcfg) {
  const uint32_t flow_id = static_cast<uint32_t>(senders_.size());
  senders_.push_back(std::make_unique<TcpSender>(
      events_, flow_id, scfg, cc, [this](const Packet& pkt) { bottleneck_->enqueue(pkt); }));
  receivers_.push_back(std::make_unique<TcpReceiver>(
      events_, flow_id, rcfg, [this](const Packet& pkt) { reverse_->enqueue(pkt); }));
  TcpSender& sender = *senders_.back();
  events_.schedule_at(start < events_.now() ? events_.now() : start,
                      [&sender] { sender.start(); });
  return sender;
}

void Dumbbell::mark_utilization_epoch() {
  epoch_delivered_bytes_ = bottleneck_->stats().delivered_bytes;
  epoch_start_ = events_.now();
}

double Dumbbell::utilization(TimePoint from, TimePoint to) const {
  (void)from;  // epoch marking defines the window start
  const uint64_t bytes =
      bottleneck_->stats().delivered_bytes - epoch_delivered_bytes_;
  const double secs = (to - epoch_start_).secs();
  if (secs <= 0) return 0.0;
  return bytes * 8.0 / (config_.bottleneck.rate_bps * secs);
}

}  // namespace ccp::sim
