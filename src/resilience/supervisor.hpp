// Agent supervisor: reconnect with capped exponential backoff, then
// resync.
//
// The datapath (or a harness standing in for it) polls tick(). While the
// transport reports Ok the supervisor is pass-through. The moment
// status() goes PeerDisconnected/Error — agent crash, socket torn down —
// the supervisor drops the dead transport and starts the reconnect
// schedule: floor * multiplier^failures, capped, with seeded
// symmetric jitter so herds of datapaths don't reconnect in lockstep
// (and so tests are reproducible: same seed, same schedule).
//
// On success it bumps the generation counter, sends a ResyncRequest
// carrying the generation as token, and hands the fresh transport to the
// caller's on_connected callback. The receiving datapath replays
// FlowSummary messages for every active flow (see
// CcpDatapath::replay_flow_summaries); the restarted agent rebuilds its
// flow table from those and re-installs programs, which pulls flows out
// of in-datapath fallback. Because the datapath applies the agent's
// commands in arrival order, any command sent before the resync applies
// before the replay — a stale install can never overwrite resynced
// state.
//
// Everything is poll-driven with injected time: no threads, no real
// clock, fully deterministic under test.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "ipc/transport.hpp"
#include "resilience/event_log.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace ccp::resilience {

class AgentSupervisor {
 public:
  struct Config {
    Duration backoff_floor = Duration::from_millis(10);
    Duration backoff_cap = Duration::from_secs(1);
    double multiplier = 2.0;
    /// Backoff is scaled by uniform [1 - jitter_frac, 1 + jitter_frac).
    double jitter_frac = 0.2;
    uint64_t seed = 1;
  };

  /// Attempts one connection; nullptr means the attempt failed.
  using ConnectFn = std::function<std::unique_ptr<ipc::Transport>()>;
  /// Called after a successful (re)connect and resync request, with the
  /// live transport and the new generation. The caller rewires its
  /// agent/datapath onto the transport and (agent side) arms
  /// Agent::expect_resync(generation).
  using OnConnected = std::function<void(ipc::Transport&, uint64_t generation)>;

  AgentSupervisor(Config config, ConnectFn connect, OnConnected on_connected,
                  EventLog* log = nullptr);

  /// Adopts an already-live transport as generation 1 without a resync
  /// round trip (initial startup, where the datapath has no flows yet).
  void adopt(std::unique_ptr<ipc::Transport> transport);

  /// Advances the state machine. Returns true while a healthy transport
  /// is held. Call at any cadence; reconnect attempts are paced by the
  /// backoff schedule against `now`, not by call frequency.
  bool tick(TimePoint now);

  bool connected() const { return transport_ != nullptr; }
  ipc::Transport* transport() { return transport_.get(); }
  /// Monotonic connection generation; doubles as the resync token.
  uint64_t generation() const { return generation_; }
  uint64_t consecutive_failures() const { return failures_; }
  /// The delay that produced the currently scheduled attempt (zero when
  /// connected or before the first failure).
  Duration current_backoff() const { return current_backoff_; }

 private:
  void handle_disconnect(ipc::TransportStatus why, TimePoint now);
  bool try_connect(TimePoint now);
  void schedule_retry(TimePoint now);

  Config config_;
  ConnectFn connect_;
  OnConnected on_connected_;
  EventLog* log_;
  Rng rng_;

  std::unique_ptr<ipc::Transport> transport_;
  uint64_t generation_ = 0;
  uint64_t failures_ = 0;
  uint64_t attempts_ = 0;
  Duration current_backoff_{};
  TimePoint next_attempt_at_{};
  bool retry_scheduled_ = false;
};

}  // namespace ccp::resilience
