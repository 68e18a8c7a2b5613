#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace ccp::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Duration::from_millis(30), [&] { order.push_back(3); });
  q.schedule(Duration::from_millis(10), [&] { order.push_back(1); });
  q.schedule(Duration::from_millis(20), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  const TimePoint t = q.now() + Duration::from_millis(5);
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesWithEvents) {
  EventQueue q;
  TimePoint seen{};
  q.schedule(Duration::from_millis(7), [&] { seen = q.now(); });
  q.run();
  EXPECT_EQ(seen, TimePoint::epoch() + Duration::from_millis(7));
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule(Duration::from_millis(5), [&] { ++fired; });
  q.schedule(Duration::from_millis(15), [&] { ++fired; });
  const uint64_t executed = q.run_until(TimePoint::epoch() + Duration::from_millis(10));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), TimePoint::epoch() + Duration::from_millis(10));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) q.schedule(Duration::from_micros(1), recurse);
  };
  q.schedule(Duration::from_micros(1), recurse);
  q.run();
  EXPECT_EQ(depth, 100);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule(Duration::from_millis(10), [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(TimePoint::epoch(), [] {}), std::logic_error);
}

TEST(EventQueue, DeterministicUnderRandomLoad) {
  auto run_once = [](uint64_t seed) {
    EventQueue q;
    Rng rng(seed);
    std::vector<uint64_t> trace;
    std::function<void(int)> spawn = [&](int depth) {
      trace.push_back(q.now().nanos());
      if (depth > 0) {
        const int children = 1 + static_cast<int>(rng.next_below(3));
        for (int i = 0; i < children; ++i) {
          q.schedule(Duration::from_nanos(static_cast<int64_t>(rng.next_below(1000))),
                     [&spawn, depth] { spawn(depth - 1); });
        }
      }
    };
    q.schedule(Duration::zero(), [&] { spawn(6); });
    q.run();
    return trace;
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

TEST(EventQueue, TicketedEventsInterleaveInReservationOrder) {
  EventQueue q;
  std::vector<int> order;
  const TimePoint t = q.now() + Duration::from_millis(5);
  // Reserve 1 and 3, schedule 0, 2 and 4 plainly in between, and queue
  // the ticketed ones last: they still run where they were reserved.
  q.schedule_at(t, [&] { order.push_back(0); });
  const uint64_t first = q.take_ticket();
  q.schedule_at(t, [&] { order.push_back(2); });
  const uint64_t third = q.take_ticket();
  q.schedule_at(t, [&] { order.push_back(4); });
  q.schedule_at(t, third, [&] { order.push_back(3); });
  q.schedule_at(t, first, [&] { order.push_back(1); });
  // A ticket for an earlier time still runs first.
  const uint64_t early = q.take_ticket();
  q.schedule_at(t - Duration::from_millis(1), early, [&] { order.push_back(-1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
  EXPECT_EQ(q.pushes(), 6u);
}

TEST(EventQueue, TicketQueuedFromAnEarlierEventKeepsItsPlace) {
  EventQueue q;
  std::vector<int> order;
  const TimePoint t = q.now() + Duration::from_millis(2);
  const uint64_t late = q.take_ticket();
  q.schedule_at(t, [&] { order.push_back(1); });
  // Queued while the clock already reads t, behind a plain event that
  // took its number later: the ticket's key still sorts first.
  q.schedule(Duration::from_millis(1), [&] {
    q.schedule_at(t, late, [&] { order.push_back(0); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, RejectsTicketBehindTheRunningEvent) {
  EventQueue q;
  const uint64_t stale = q.take_ticket();
  bool threw = false;
  q.schedule(Duration::zero(), [&] {
    try {
      q.schedule_at(q.now(), stale, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  q.run();
  EXPECT_TRUE(threw);
}

// ---- intrusive events ----

// Reference queue: an ordered map of (at, seq) -> closure under the
// same ticket counter, one closure per schedule call. A generation
// counter per intrusive event turns superseded and cancelled closures
// into no-ops.
class ReferenceSide {
 public:
  TimePoint now() const { return now_; }
  void closure(TimePoint at, std::function<void()> fn) {
    queue_.emplace(EventKey{at, next_seq_++}, std::move(fn));
  }
  void add(std::function<void()> on_fire) { slots_.push_back(Slot{std::move(on_fire)}); }
  void schedule(size_t i, TimePoint at) {
    Slot& slot = slots_[i];
    slot.queued = true;
    closure(at, [this, i, gen = ++slot.gen] {
      Slot& s = slots_[i];
      if (s.gen != gen) return;
      s.queued = false;
      s.on_fire();
    });
  }
  void cancel(size_t i) {
    ++slots_[i].gen;
    slots_[i].queued = false;
  }
  bool queued(size_t i) const { return slots_[i].queued; }
  void run() {
    while (!queue_.empty()) {
      auto node = queue_.extract(queue_.begin());
      now_ = node.key().at;
      node.mapped()();
    }
  }

 private:
  struct Slot {
    std::function<void()> on_fire;
    uint64_t gen = 0;
    bool queued = false;
  };
  std::map<EventKey, std::function<void()>> queue_;
  std::vector<Slot> slots_;
  TimePoint now_ = TimePoint::epoch();
  uint64_t next_seq_ = 0;
};

// The same interface over EventQueue: one owned Event per source, plain
// closures through schedule_at().
class IntrusiveSide {
 public:
  TimePoint now() const { return queue_.now(); }
  void closure(TimePoint at, std::function<void()> fn) { queue_.schedule_at(at, std::move(fn)); }
  void add(std::function<void()> on_fire) {
    slots_.push_back(std::make_unique<Slot>(std::move(on_fire)));
  }
  void schedule(size_t i, TimePoint at) { queue_.schedule_at(at, slots_[i]->event); }
  void cancel(size_t i) { queue_.cancel(slots_[i]->event); }
  bool queued(size_t i) const { return slots_[i]->event.queued(); }
  void run() { queue_.run(); }

 private:
  struct Slot {
    explicit Slot(std::function<void()> f)
        : on_fire(std::move(f)), event(member_event<&Slot::fire>(this)) {}
    void fire() { on_fire(); }
    std::function<void()> on_fire;
    Event event;
  };
  EventQueue queue_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

// Drives five intrusive events and a stream of closures through a
// seeded script: insert, re-key earlier / later / to now, and cancel,
// from script steps and from inside a firing event, which half the time
// acts on itself (re-keying or cancelling itself, or both in turn).
// Logs every script step, closure and event firing as (time ns, tag).
template <typename Side>
std::vector<std::pair<int64_t, int>> run_event_script(uint64_t seed) {
  constexpr size_t kEvents = 5;
  Side side;
  Rng rng(seed);
  std::vector<std::pair<int64_t, int>> log;
  std::vector<TimePoint> deadline(kEvents);
  const auto ns = [](uint64_t n) { return Duration::from_nanos(static_cast<int64_t>(n)); };
  std::function<void(int)> random_op = [&](int self) {
    const TimePoint now = side.now();
    const size_t i = self >= 0 && rng.next_below(2) == 0 ? static_cast<size_t>(self)
                                                         : rng.next_below(kEvents);
    const auto schedule = [&](TimePoint at) {
      deadline[i] = at;
      side.schedule(i, at);
    };
    switch (rng.next_below(6)) {
      case 0:  // insert, or re-key anywhere
        schedule(now + ns(rng.next_below(500)));
        break;
      case 1:
        side.cancel(i);
        break;
      case 2:  // earlier (or equal), when queued
        if (side.queued(i)) schedule(now + ns(rng.next_below((deadline[i] - now).nanos() + 1)));
        break;
      case 3:  // later
        schedule((side.queued(i) ? deadline[i] : now) + ns(1 + rng.next_below(500)));
        break;
      case 4:
        schedule(now);
        break;
      default: {  // a closure, possibly at this very instant
        const int tag = 1000 + static_cast<int>(rng.next_below(1000));
        side.closure(now + ns(rng.next_below(3) == 0 ? 0 : rng.next_below(400)),
                     [&log, &side, tag] { log.push_back({side.now().nanos(), tag}); });
        break;
      }
    }
  };
  for (size_t i = 0; i < kEvents; ++i) {
    side.add([&, i] {
      log.push_back({side.now().nanos(), static_cast<int>(i)});
      const int ops = static_cast<int>(rng.next_below(3));
      for (int k = 0; k < ops; ++k) random_op(static_cast<int>(i));
    });
  }
  int steps = 0;
  std::function<void()> drive = [&] {
    log.push_back({side.now().nanos(), -1 - steps});
    const int ops = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < ops; ++k) random_op(-1);
    if (++steps < 3000) side.closure(side.now() + ns(rng.next_below(250)), drive);
  };
  side.closure(side.now(), drive);
  side.run();
  return log;
}

TEST(EventQueue, IntrusiveEventsMatchClosurePerEventReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const auto intrusive = run_event_script<IntrusiveSide>(seed);
    const auto reference = run_event_script<ReferenceSide>(seed);
    size_t fires = 0;
    for (const auto& [at, tag] : reference) fires += tag >= 0 && tag < 1000;
    EXPECT_GT(fires, 1000u) << "seed " << seed;
    EXPECT_EQ(intrusive, reference) << "seed " << seed;
  }
}

TEST(EventQueue, OwnersDestroyedWhileQueuedUnlinkTheirEvents) {
  EventQueue q;
  int fired = 0;
  auto timer = std::make_unique<Timer>(q, [&] { ++fired; });
  auto pipe = std::make_unique<DelayPipe>(q, Duration::from_millis(5),
                                          [&](const Packet&) { ++fired; });
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1000 wire bytes -> 1 ms
  cfg.rate_schedule = {{Duration::from_millis(3), 16e6}, {Duration::from_millis(4), 8e6}};
  auto link = std::make_unique<Link>(q, cfg, [&](const Packet&) { ++fired; });
  std::vector<int> order;
  q.schedule(Duration::from_millis(1), [&] {
    order.push_back(1);
    timer.reset();
  });
  q.schedule(Duration::from_millis(2), [&] {
    order.push_back(2);
    // Mid-serialization, with packets propagating and rate changes due.
    EXPECT_GT(q.pending(), 3u);
    pipe.reset();
    link.reset();
  });
  q.schedule(Duration::from_millis(30), [&] { order.push_back(3); });
  timer->arm(TimePoint::epoch() + Duration::from_millis(4));
  Packet pkt;
  pkt.len = 960;
  pipe->enqueue(pkt);
  for (int i = 0; i < 4; ++i) link->enqueue(pkt);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, QueueDestroyedBeforeItsEventsLeavesThemIdle) {
  auto q = std::make_unique<EventQueue>();
  Timer timer(*q, [] {});
  DelayPipe pipe(*q, Duration::from_millis(5), [](const Packet&) {});
  timer.arm(TimePoint::epoch() + Duration::from_millis(1));
  pipe.enqueue(Packet{});
  q->schedule(Duration::from_millis(2), [] {});
  q.reset();
  EXPECT_FALSE(timer.armed());
}

// ---- sim::Timer ----

// Reference timer: one queued event per arm; a generation counter turns
// superseded ones into no-ops. Timer must fire at the same (time, order).
class NaiveTimer {
 public:
  NaiveTimer(EventQueue& q, std::function<void()> on_fire)
      : q_(q), on_fire_(std::move(on_fire)) {}
  void arm(TimePoint at) {
    armed_ = true;
    const uint64_t gen = ++gen_;
    q_.schedule_at(at, [this, gen] {
      if (gen != gen_ || !armed_) return;
      armed_ = false;
      on_fire_();
    });
  }
  void cancel() { armed_ = false; }
  bool armed() const { return armed_; }

 private:
  EventQueue& q_;
  std::function<void()> on_fire_;
  bool armed_ = false;
  uint64_t gen_ = 0;
};

struct ScriptLog {
  std::vector<std::pair<int64_t, int>> entries;  // (time ns, what)
  uint64_t pushes = 0;
  int fires = 0;
};

// Drives a timer through a seeded script of arm / cancel / re-arm
// earlier / re-arm later / re-arm at now, from script steps and from
// inside its own callback, with plain events interleaved at the same
// instants. Logs every script step, plain event and fire in run order.
template <typename TimerT>
ScriptLog run_timer_script(uint64_t seed) {
  EventQueue q;
  Rng rng(seed);
  ScriptLog log;
  TimePoint deadline{};  // of the latest arm
  std::function<void(TimerT&)> random_op = [&](TimerT& timer) {
    const TimePoint now = q.now();
    const auto ns = [](uint64_t n) { return Duration::from_nanos(static_cast<int64_t>(n)); };
    const auto arm = [&](TimePoint at) {
      deadline = at;
      timer.arm(at);
    };
    switch (rng.next_below(6)) {
      case 0:
        arm(now + ns(rng.next_below(400)));
        break;
      case 1:
        timer.cancel();
        break;
      case 2:  // earlier (or equal), when armed
        if (timer.armed()) arm(now + ns(rng.next_below((deadline - now).nanos() + 1)));
        break;
      case 3:  // later
        arm((timer.armed() ? deadline : now) + ns(1 + rng.next_below(400)));
        break;
      case 4:
        arm(now);
        break;
      default:  // a plain event, possibly at this very instant
        const int tag = 1000 + static_cast<int>(rng.next_below(1000));
        q.schedule(ns(rng.next_below(3) == 0 ? 0 : rng.next_below(400)),
                   [&log, &q, tag] { log.entries.push_back({q.now().nanos(), tag}); });
        break;
    }
  };
  TimerT* self = nullptr;
  TimerT timer(q, [&] {
    ++log.fires;
    log.entries.push_back({q.now().nanos(), -1});
    if (rng.next_below(2) == 0) random_op(*self);
  });
  self = &timer;
  int steps = 0;
  std::function<void()> drive = [&] {
    log.entries.push_back({q.now().nanos(), steps});
    const int ops = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < ops; ++i) random_op(timer);
    if (++steps < 3000) {
      q.schedule(Duration::from_nanos(static_cast<int64_t>(rng.next_below(250))), drive);
    }
  };
  q.schedule(Duration::zero(), drive);
  q.run();
  log.pushes = q.pushes();
  return log;
}

TEST(Timer, MatchesOneEventPerArmReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const ScriptLog lazy = run_timer_script<Timer>(seed);
    const ScriptLog naive = run_timer_script<NaiveTimer>(seed);
    EXPECT_GT(naive.fires, 100) << "seed " << seed;
    EXPECT_EQ(lazy.fires, naive.fires) << "seed " << seed;
    EXPECT_EQ(lazy.entries, naive.entries) << "seed " << seed;
    EXPECT_LT(lazy.pushes, naive.pushes) << "seed " << seed;
  }
}

TEST(Timer, ReArmingLaterQueuesNoNewEvent) {
  EventQueue q;
  int fired = 0;
  TimePoint fired_at{};
  Timer timer(q, [&] {
    ++fired;
    fired_at = q.now();
  });
  for (int i = 1; i <= 1000; ++i) {
    timer.arm(TimePoint::epoch() + Duration::from_micros(i));
  }
  EXPECT_EQ(q.pushes(), 1u);
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fired_at, TimePoint::epoch() + Duration::from_micros(1000));
}

TEST(Timer, ReArmingEarlierQueuesAndFiresOnce) {
  EventQueue q;
  std::vector<int64_t> fired_at;
  Timer timer(q, [&] { fired_at.push_back(q.now().nanos()); });
  timer.arm(TimePoint::epoch() + Duration::from_micros(10));
  timer.arm(TimePoint::epoch() + Duration::from_micros(5));
  EXPECT_EQ(q.pushes(), 1u);
  q.run();
  EXPECT_EQ(fired_at, (std::vector<int64_t>{5000}));
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, CancelledTimerStaysQuiet) {
  EventQueue q;
  int fired = 0;
  Timer timer(q, [&] { ++fired; });
  timer.arm(TimePoint::epoch() + Duration::from_micros(10));
  q.schedule(Duration::from_micros(3), [&] { timer.cancel(); });
  q.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(timer.armed());
}

}  // namespace
}  // namespace ccp::sim
