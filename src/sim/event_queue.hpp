// Deterministic discrete-event simulation core.
//
// Events at equal timestamps fire in scheduling order (a monotone
// sequence number breaks ties), which makes runs bit-for-bit reproducible
// regardless of platform.
//
// Tickets decouple taking that sequence number from queueing the event.
// take_ticket() hands out the number a schedule() call would take at
// that moment; schedule_at(at, ticket, action) later queues the event
// under (at, ticket). Such an event runs exactly where it would have run
// had it been queued when the ticket was taken, as long as it is queued
// before the queue reaches (at, ticket). This lets a link or timer keep
// many logical events behind one queued event (sim/link.hpp,
// sim/timer.hpp) without moving any event in the total order.
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "util/time.hpp"

namespace ccp::sim {

/// An event's position in the queue's total order: time, then sequence.
struct EventKey {
  TimePoint at;
  uint64_t seq = 0;
  friend auto operator<=>(const EventKey&, const EventKey&) = default;
};

class EventQueue {
 public:
  using Action = std::function<void()>;

  TimePoint now() const { return now_; }

  /// Reserves the tie-break sequence number a schedule() call made now
  /// would take. Every number is handed out once.
  uint64_t take_ticket() { return next_seq_++; }

  /// Schedules `action` to run at absolute time `at` (>= now).
  void schedule_at(TimePoint at, Action action) {
    schedule_at(at, take_ticket(), std::move(action));
  }

  /// Queues `action` under a ticket from take_ticket(). The key
  /// (at, ticket) must sort after the running event's; otherwise this
  /// throws std::logic_error.
  void schedule_at(TimePoint at, uint64_t ticket, Action action);

  /// Schedules `action` to run `delay` from now.
  void schedule(Duration delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Runs events until the queue is empty or the horizon is reached.
  /// Returns the number of events executed.
  uint64_t run_until(TimePoint horizon);

  /// Runs until the queue drains completely.
  uint64_t run();

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  /// Events queued since construction.
  uint64_t pushes() const { return pushes_; }

 private:
  // The heap orders small trivially-copyable entries; the actions sit in
  // stable slots (a deque never moves its elements on push_back), so an
  // action runs in place while it schedules more.
  struct Entry {
    EventKey key;
    uint32_t slot = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const { return a.key > b.key; }
  };

  TimePoint now_ = TimePoint::epoch();
  uint64_t next_seq_ = 0;
  // Key of the event last popped; nothing may be queued at or before it.
  EventKey running_{TimePoint::epoch(), 0};
  bool ran_any_ = false;
  uint64_t pushes_ = 0;
  std::vector<Entry> heap_;
  std::deque<Action> actions_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace ccp::sim
