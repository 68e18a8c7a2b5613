#include "sim/ccp_host.hpp"

#include "algorithms/registry.hpp"

namespace ccp::sim {

SimCcpHost::SimCcpHost(EventQueue& events, CcpHostConfig config)
    : events_(events),
      config_(config),
      rng_(config.seed),
      tick_(member_event<&SimCcpHost::tick>(this)) {
  datapath_ = std::make_unique<datapath::CcpDatapath>(
      config_.datapath, [this](std::span<const uint8_t> frame) {
        ++frames_dp_to_agent_;
        // Copy: the frame buffer is reused by the datapath after this call.
        events_.schedule(sample_ipc_delay(),
                         [this, frame = std::vector<uint8_t>(frame.begin(), frame.end())] {
                           agent_->handle_frame(frame);
                         });
      });
  agent_ = std::make_unique<agent::CcpAgent>(
      config_.agent, [this](std::span<const uint8_t> frame) {
        ++frames_agent_to_dp_;
        events_.schedule(sample_ipc_delay(),
                         [this, frame = std::vector<uint8_t>(frame.begin(), frame.end())] {
                           datapath_->handle_frame(frame, events_.now());
                         });
      });
  algorithms::register_builtin_algorithms(*agent_);
}

Duration SimCcpHost::sample_ipc_delay() {
  if (config_.ipc_jitter_frac <= 0) return config_.ipc_delay;
  const double factor =
      rng_.uniform(1.0 - config_.ipc_jitter_frac, 1.0 + config_.ipc_jitter_frac);
  return config_.ipc_delay * factor;
}

datapath::CcpFlow& SimCcpHost::create_flow(const datapath::FlowConfig& cfg,
                                           const std::string& alg_name) {
  return datapath_->create_flow(cfg, alg_name, events_.now());
}

void SimCcpHost::start(TimePoint until) {
  tick_until_ = until;
  tick();
}

void SimCcpHost::tick() {
  if (events_.now() > tick_until_) return;
  datapath_->tick(events_.now());
  events_.schedule_at(events_.now() + config_.datapath_tick, tick_);
}

SimPrototypeHost::SimPrototypeHost(EventQueue& events, CcpHostConfig config)
    : events_(events),
      config_(config),
      rng_(config.seed),
      tick_(member_event<&SimPrototypeHost::tick>(this)) {
  datapath_ = std::make_unique<datapath::PrototypeDatapath>(
      config_.datapath, [this](std::span<const uint8_t> frame) {
        events_.schedule(sample_ipc_delay(),
                         [this, frame = std::vector<uint8_t>(frame.begin(), frame.end())] {
                           agent_->handle_frame(frame);
                         });
      });
  agent_ = std::make_unique<agent::CcpAgent>(
      config_.agent, [this](std::span<const uint8_t> frame) {
        events_.schedule(sample_ipc_delay(),
                         [this, frame = std::vector<uint8_t>(frame.begin(), frame.end())] {
                           datapath_->handle_frame(frame, events_.now());
                         });
      });
  algorithms::register_builtin_algorithms(*agent_);
}

Duration SimPrototypeHost::sample_ipc_delay() {
  if (config_.ipc_jitter_frac <= 0) return config_.ipc_delay;
  const double factor =
      rng_.uniform(1.0 - config_.ipc_jitter_frac, 1.0 + config_.ipc_jitter_frac);
  return config_.ipc_delay * factor;
}

datapath::PrototypeFlow& SimPrototypeHost::create_flow(
    const datapath::FlowConfig& cfg, const std::string& alg_name) {
  return datapath_->create_flow(cfg, alg_name, events_.now());
}

void SimPrototypeHost::start(TimePoint until) {
  tick_until_ = until;
  tick();
}

void SimPrototypeHost::tick() {
  if (events_.now() > tick_until_) return;
  datapath_->tick(events_.now());
  events_.schedule_at(events_.now() + config_.datapath_tick, tick_);
}

}  // namespace ccp::sim
