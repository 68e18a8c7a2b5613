#include "scenario/topology.hpp"

#include "util/rng.hpp"

namespace ccp::scenario {

using sim::Packet;

Network::Network(sim::EventQueue& events, const ScenarioSpec& spec,
                 uint64_t seed)
    : events_(events) {
  // Per-hop loss streams fork off one master seed in hop order, so the
  // whole network's impairments replay from a single number.
  Rng master(seed);
  hops_.reserve(spec.links.size());
  for (size_t i = 0; i < spec.links.size(); ++i) {
    const LinkSpec& ls = spec.links[i];
    sim::LinkConfig cfg;
    cfg.rate_bps = ls.rate_bps;
    cfg.prop_delay = ls.delay;
    cfg.queue_capacity_bytes = ls.queue_capacity_bytes();
    if (ls.ecn_threshold_bdp >= 0) {
      const double bdp = ls.rate_bps / 8.0 * (2.0 * ls.delay.secs());
      cfg.ecn_threshold_bytes = static_cast<uint64_t>(bdp * ls.ecn_threshold_bdp);
    }
    cfg.random_loss = ls.random_loss;
    cfg.loss_seed = master.next_u64();
    cfg.rate_schedule = ls.rate_schedule;
    hop_delay_.push_back(ls.delay);
    hops_.push_back(std::make_unique<sim::Link>(
        events_, std::move(cfg),
        [this, i](const Packet& pkt) { route_from_hop(i, pkt); }));
  }
}

void Network::route_from_hop(size_t hop, const Packet& pkt) {
  const FlowState& flow = flows_[pkt.flow];
  if (hop < flow.path.last) {
    hops_[hop + 1]->enqueue(pkt);
  } else if (flow.receiver != nullptr) {
    flow.receiver->on_data(pkt);
  }
}

sim::TcpSender& Network::add_flow(const sim::TcpSenderConfig& scfg,
                                  datapath::CcModule* cc, TimePoint start,
                                  Path path, sim::TcpReceiverConfig rcfg) {
  const uint32_t flow_id = static_cast<uint32_t>(flows_.size());
  path.last = path.last < hops_.size() ? path.last : hops_.size() - 1;
  if (path.first > path.last) path.first = path.last;

  FlowState state;
  state.path = path;
  // Forward access pipe: half the extra RTT, then into the first hop.
  state.access = std::make_unique<sim::DelayPipe>(
      events_, path.extra_rtt / 2,
      [this, first = path.first](const Packet& pkt) { hops_[first]->enqueue(pkt); });
  // Return pipe: the other half of the extra RTT plus the path's reverse
  // propagation (ACK path mirrors the forward propagation, no queueing).
  Duration reverse_delay = path.extra_rtt / 2;
  for (size_t i = path.first; i <= path.last; ++i) reverse_delay += hop_delay_[i];
  state.reverse = std::make_unique<sim::DelayPipe>(
      events_, reverse_delay,
      [this, flow_id](const Packet& pkt) { flows_[flow_id].sender->on_ack(pkt); });
  state.sender = std::make_unique<sim::TcpSender>(
      events_, flow_id, scfg, cc,
      [this, flow_id](const Packet& pkt) { flows_[flow_id].access->enqueue(pkt); });
  state.receiver = std::make_unique<sim::TcpReceiver>(
      events_, flow_id, rcfg,
      [this, flow_id](const Packet& pkt) { flows_[flow_id].reverse->enqueue(pkt); });

  flows_.push_back(std::move(state));
  sim::TcpSender& sender = *flows_.back().sender;
  events_.schedule_at(start < events_.now() ? events_.now() : start,
                      [&sender] { sender.start(); });
  return sender;
}

Duration Network::base_rtt(size_t flow) const {
  const Path& path = flows_[flow].path;
  Duration rtt = path.extra_rtt;
  for (size_t i = path.first; i <= path.last; ++i) {
    rtt += hop_delay_[i] * 2.0;
  }
  return rtt;
}

}  // namespace ccp::scenario
