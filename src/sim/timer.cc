#include "sim/timer.hpp"

namespace ccp::sim {

void Timer::arm(TimePoint at) {
  armed_ = true;
  due_ = EventKey{at, events_.take_ticket()};
  if (wakes_.empty() || due_ < wakes_.back()) queue_wake();
}

void Timer::queue_wake() {
  wakes_.push_back(due_);
  events_.schedule_at(due_.at, due_.seq, [this] { wake(); });
}

void Timer::wake() {
  const EventKey fired = wakes_.back();
  wakes_.pop_back();
  if (!armed_) return;
  if (due_ == fired) {
    armed_ = false;
    on_fire_();
    return;
  }
  // Re-armed since this wake-up was queued: due_ lies after it. Follow
  // it unless a wake-up still queued already does.
  if (wakes_.empty() || due_ < wakes_.back()) queue_wake();
}

}  // namespace ccp::sim
