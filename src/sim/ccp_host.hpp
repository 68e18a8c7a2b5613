// Runs the CCP agent and datapath inside the simulation.
//
// Both live in the sender host's process in real deployments; here both
// are driven by the event queue, with IPC frames delivered after a
// modeled delay. The default delay (15 us each way, 20% jitter) is the
// measured Unix-socket median from the Figure 2 experiment; experiments
// can sweep it (the "Could CCP work at low RTTs?" ablation of §5).
#pragma once

#include <memory>
#include <string>

#include "agent/agent.hpp"
#include "datapath/datapath.hpp"
#include "datapath/prototype_datapath.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace ccp::sim {

struct CcpHostConfig {
  Duration ipc_delay = Duration::from_micros(15);  // one-way, each direction
  double ipc_jitter_frac = 0.2;  // uniform +/- fraction of ipc_delay
  Duration datapath_tick = Duration::from_micros(100);
  datapath::DatapathConfig datapath;
  agent::AgentConfig agent;
  uint64_t seed = 42;
};

class SimCcpHost {
 public:
  SimCcpHost(EventQueue& events, CcpHostConfig config);

  datapath::CcpDatapath& datapath() { return *datapath_; }
  agent::CcpAgent& agent() { return *agent_; }

  /// Creates a CCP-controlled flow running `alg_name` in the agent.
  datapath::CcpFlow& create_flow(const datapath::FlowConfig& cfg,
                                 const std::string& alg_name);

  /// Ticks the datapath now and then every `datapath_tick` through
  /// `until`; call once, before run().
  void start(TimePoint until);

  uint64_t frames_dp_to_agent() const { return frames_dp_to_agent_; }
  uint64_t frames_agent_to_dp() const { return frames_agent_to_dp_; }

 private:
  Duration sample_ipc_delay();
  void tick();

  EventQueue& events_;
  CcpHostConfig config_;
  Rng rng_;
  std::unique_ptr<datapath::CcpDatapath> datapath_;
  std::unique_ptr<agent::CcpAgent> agent_;
  uint64_t frames_dp_to_agent_ = 0;
  uint64_t frames_agent_to_dp_ = 0;
  TimePoint tick_until_{};
  Event tick_;
};

/// Same wiring, but the host runs the paper's §3 *prototype* datapath
/// (fixed reports, direct control only, no programs). The agent and the
/// algorithms are identical — that is the point.
class SimPrototypeHost {
 public:
  SimPrototypeHost(EventQueue& events, CcpHostConfig config);

  datapath::PrototypeDatapath& datapath() { return *datapath_; }
  agent::CcpAgent& agent() { return *agent_; }

  datapath::PrototypeFlow& create_flow(const datapath::FlowConfig& cfg,
                                       const std::string& alg_name);
  void start(TimePoint until);

 private:
  Duration sample_ipc_delay();
  void tick();

  EventQueue& events_;
  CcpHostConfig config_;
  Rng rng_;
  std::unique_ptr<datapath::PrototypeDatapath> datapath_;
  std::unique_ptr<agent::CcpAgent> agent_;
  TimePoint tick_until_{};
  Event tick_;
};

}  // namespace ccp::sim
