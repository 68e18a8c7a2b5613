// A re-armable one-shot timer on one intrusive event.
//
// Arming takes an event-queue ticket, so the timer fires at exactly the
// (deadline, ticket) position an event scheduled by that arm() call
// would have had. Re-arming moves the one event to the new key;
// cancelling removes it. Destroying the timer unlinks its event.
#pragma once

#include <functional>

#include "sim/event_queue.hpp"

namespace ccp::sim {

class Timer {
 public:
  using Callback = std::function<void()>;

  Timer(EventQueue& events, Callback on_fire)
      : events_(events),
        on_fire_(std::move(on_fire)),
        event_(member_event<&Timer::fire>(this)) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire at `at` (>= now), replacing any earlier
  /// arm. The callback runs with the timer already disarmed.
  void arm(TimePoint at) { events_.schedule_at(at, event_); }

  /// Disarms the timer; a no-op when it is not armed.
  void cancel() { events_.cancel(event_); }

  bool armed() const { return event_.queued(); }

 private:
  void fire() { on_fire_(); }

  EventQueue& events_;
  Callback on_fire_;
  Event event_;
};

}  // namespace ccp::sim
