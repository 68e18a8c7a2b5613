// A re-armable one-shot timer that keeps one queued wake-up.
//
// Arming takes an event-queue ticket, so the timer fires at exactly the
// (deadline, ticket) position an event scheduled by that arm() call
// would have had. Superseded arms cost nothing in the queue: re-arming
// to a later deadline only moves (deadline, ticket), and the queued
// wake-up, when it comes due early, re-queues itself under the current
// key. A new wake-up is queued only when the key moves earlier than
// every queued one. Cancelled timers leave their wake-ups to pop as
// no-ops.
//
// The timer must outlive its queued wake-ups (they capture `this`).
#pragma once

#include <functional>
#include <vector>

#include "sim/event_queue.hpp"

namespace ccp::sim {

class Timer {
 public:
  using Callback = std::function<void()>;

  Timer(EventQueue& events, Callback on_fire)
      : events_(events), on_fire_(std::move(on_fire)) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire at `at` (>= now), replacing any earlier
  /// arm. The callback runs with the timer already disarmed.
  void arm(TimePoint at);

  /// Disarms the timer; a no-op when it is not armed.
  void cancel() { armed_ = false; }

  bool armed() const { return armed_; }

 private:
  void queue_wake();
  void wake();

  EventQueue& events_;
  Callback on_fire_;
  bool armed_ = false;
  EventKey due_;
  // Keys of the queued wake-ups, latest first: back() fires next.
  std::vector<EventKey> wakes_;
};

}  // namespace ccp::sim
