#include "agent/transport_loop.hpp"

namespace ccp::agent {

TransportLoop::TransportLoop(ipc::Transport& transport, FrameHandler handler)
    : transport_(transport), handler_(std::move(handler)) {
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

TransportLoop::~TransportLoop() { stop(); }

void TransportLoop::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void TransportLoop::run() {
  // Short timeout so stop() is honored promptly without a wakeup channel.
  const Duration poll_interval = Duration::from_millis(10);
  while (!stop_.load(std::memory_order_acquire)) {
    auto frame = transport_.recv_frame(poll_interval);
    if (frame.has_value()) {
      handler_(*frame);
      // A burst usually arrives together (one flush covers many flows);
      // drain the backlog in one batch before sleeping again.
      transport_.drain_frames(handler_);
      continue;
    }
    if (transport_.closed()) break;
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace ccp::agent
