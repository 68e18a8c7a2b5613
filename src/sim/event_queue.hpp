// Deterministic discrete-event simulation core.
//
// Events at equal timestamps fire in scheduling order (a monotone
// sequence number breaks ties), which makes runs bit-for-bit reproducible
// regardless of platform.
//
// Tickets decouple taking that sequence number from queueing the event.
// take_ticket() hands out the number a schedule() call would take at
// that moment; schedule_at(at, ticket, ...) later queues the event under
// (at, ticket). Such an event runs exactly where it would have run had
// it been queued when the ticket was taken, as long as it is queued
// before the queue reaches (at, ticket). This lets a link or timer keep
// many logical events behind one queued event (sim/link.hpp,
// sim/timer.hpp) without moving any event in the total order.
//
// Persistent sources (packet lines, link service, timers, ticks, pacing
// kicks) each own one intrusive Event and re-key it instead of queueing
// a fresh closure per occurrence. One-shot closures still go through
// schedule(); they ride on pooled Events in the same heap, so there is
// one dispatch path.
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

class EventQueue;

/// An event owned by its source and queued at most once. Scheduling a
/// queued event moves it to the new key; cancel() removes it. Firing
/// calls fn(ctx). While it fires an event counts as not queued, so the
/// callback may re-schedule it (a single sift-down: every key queued
/// from inside an event sorts after the running one). Destroying an
/// Event removes it from its queue.
class Event {
 public:
  using Fn = void (*)(void* ctx);

  Event(Fn fn, void* ctx) : fn_(fn), ctx_(ctx) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event();

  bool queued() const { return pos_ < kRunning; }

 private:
  friend class EventQueue;
  static constexpr uint32_t kIdle = UINT32_MAX;
  static constexpr uint32_t kRunning = UINT32_MAX - 1;  // firing, still on top

  Fn fn_;
  void* ctx_;
  EventQueue* queue_ = nullptr;
  uint32_t pos_ = kIdle;  // heap index, kIdle or kRunning
};

/// An Event that calls `(owner->*Method)()`.
template <auto Method, typename Owner>
Event member_event(Owner* owner) {
  return Event([](void* ctx) { (static_cast<Owner*>(ctx)->*Method)(); }, owner);
}

class EventQueue {
 public:
  using Action = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  TimePoint now() const { return now_; }

  /// Reserves the tie-break sequence number a schedule() call made now
  /// would take. Every number is handed out once.
  uint64_t take_ticket() { return next_seq_++; }

  /// Queues `ev` under (at, ticket), or moves it there if it is already
  /// queued. The key must sort after the running event's and `at` must
  /// not lie in the past; otherwise this throws std::logic_error.
  void schedule_at(TimePoint at, uint64_t ticket, Event& ev);
  void schedule_at(TimePoint at, Event& ev) { schedule_at(at, take_ticket(), ev); }

  /// Removes `ev` from the queue; a no-op when it is not queued.
  void cancel(Event& ev);

  /// Schedules a one-shot `action` under (at, ticket); same contract as
  /// the Event overload.
  void schedule_at(TimePoint at, uint64_t ticket, Action action);

  /// Schedules `action` to run at absolute time `at` (>= now).
  void schedule_at(TimePoint at, Action action) {
    schedule_at(at, take_ticket(), std::move(action));
  }

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
  /// Insertions of an idle event (every closure is one) since
  /// construction. Moving a queued or running event to a new key is a
  /// re-key, not a push.
  uint64_t pushes() const { return pushes_; }

 private:
  // The heap orders small {key, event} entries; each event knows its
  // index, so a re-key or cancel finds it in O(1) and sifts in O(log n).
  struct Entry {
    EventKey key;
    Event* ev;
  };
  // A pooled one-shot event. Slots sit in a deque (stable addresses)
  // and return to the free list once their action has run.
  struct Closure {
    Closure() : event(&run_closure, this) {}
    Event event;
    Action action;
  };

  static void run_closure(void* ctx);
  void check_key(const EventKey& key) const;
  void place(uint32_t i, const Entry& entry) {
    heap_[i] = entry;
    entry.ev->pos_ = i;
  }
  void sift_up(uint32_t i);
  void sift_down(uint32_t i);
  void remove_at(uint32_t i);

  TimePoint now_ = TimePoint::epoch();
  uint64_t next_seq_ = 0;
  // Key of the event last fired; nothing may be queued at or before it.
  EventKey running_{TimePoint::epoch(), 0};
  bool ran_any_ = false;
  uint64_t pushes_ = 0;
  std::vector<Entry> heap_;
  std::deque<Closure> closures_;
  std::vector<Closure*> free_closures_;
};

}  // namespace ccp::sim
