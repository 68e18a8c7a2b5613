// Thread that pumps frames from a Transport into a handler. Used to run
// the agent (or a datapath) against a real OS transport; the simulator
// does not need this (it delivers frames through its event queue).
#pragma once

#include <atomic>
#include <functional>
#include <span>
#include <thread>

#include "ipc/transport.hpp"

namespace ccp::agent {

class TransportLoop {
 public:
  using FrameHandler = std::function<void(std::span<const uint8_t>)>;

  /// Starts a thread that calls `handler` for every received frame until
  /// stop() or the peer closes. The transport must outlive the loop.
  TransportLoop(ipc::Transport& transport, FrameHandler handler);
  ~TransportLoop();

  TransportLoop(const TransportLoop&) = delete;
  TransportLoop& operator=(const TransportLoop&) = delete;

  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void run();

  ipc::Transport& transport_;
  FrameHandler handler_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace ccp::agent
