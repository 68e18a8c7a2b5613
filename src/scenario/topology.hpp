// Network construction for scenario topologies.
//
// Generalizes the dumbbell (sim/dumbbell.hpp) to a chain of bottleneck
// hops — the classic "parking lot": hop k connects router k to router
// k+1, each with its own rate/delay/queue/loss/rate-schedule. A flow
// traverses the contiguous hop range [first, last] of its path; cross
// traffic occupies a single hop while the "long" flow crosses them all.
// With one hop this is exactly the dumbbell.
//
// Per-flow access pipes add the RTT spread: flow-specific extra delay on
// the way into the first hop, and the whole return path is a per-flow
// delay pipe (ACK path, no queueing — the usual assumption) sized as the
// sum of the path's propagation delays plus the flow's extra RTT.
#pragma once

#include <memory>
#include <vector>

#include "datapath/cc_module.hpp"
#include "scenario/spec.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/tcp.hpp"

namespace ccp::scenario {

class Network {
 public:
  /// Per-flow routing: hops [first, last] plus extra round-trip delay
  /// split evenly between the forward access pipe and the return pipe.
  struct Path {
    size_t first = 0;
    size_t last = 0;
    Duration extra_rtt = Duration::zero();
  };

  /// Builds the hop chain. Per-hop loss RNG seeds derive from `seed`, so
  /// the whole network's drop sequences are a function of one seed.
  Network(sim::EventQueue& events, const ScenarioSpec& spec, uint64_t seed);

  /// Adds a flow with the given path; starts transmitting at `start`.
  sim::TcpSender& add_flow(const sim::TcpSenderConfig& scfg,
                           datapath::CcModule* cc, TimePoint start,
                           Path path,
                           sim::TcpReceiverConfig rcfg = sim::TcpReceiverConfig{});

  sim::Link& hop(size_t i) { return *hops_[i]; }
  size_t num_hops() const { return hops_.size(); }
  sim::TcpSender& sender(size_t i) { return *flows_[i].sender; }
  sim::TcpReceiver& receiver(size_t i) { return *flows_[i].receiver; }
  size_t num_flows() const { return flows_.size(); }

  /// The flow's base (unloaded) round-trip: serialization excluded, i.e.
  /// 2 x sum of path propagation delays + the flow's extra RTT.
  Duration base_rtt(size_t flow) const;

 private:
  struct FlowState {
    Path path;
    std::unique_ptr<sim::TcpSender> sender;
    std::unique_ptr<sim::TcpReceiver> receiver;
    std::unique_ptr<sim::DelayPipe> access;   // sender -> first hop
    std::unique_ptr<sim::DelayPipe> reverse;  // receiver -> sender (ACKs)
  };

  void route_from_hop(size_t hop, const sim::Packet& pkt);

  sim::EventQueue& events_;
  std::vector<std::unique_ptr<sim::Link>> hops_;
  std::vector<Duration> hop_delay_;
  std::vector<FlowState> flows_;
};

}  // namespace ccp::scenario
