#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace ccp::sim {

void EventQueue::schedule_at(TimePoint at, uint64_t ticket, Action action) {
  const EventKey key{at, ticket};
  if (at < now_ || (ran_any_ && key <= running_)) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
  ++pushes_;
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<uint32_t>(actions_.size()));
    actions_.emplace_back();
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  actions_[slot] = std::move(action);
  heap_.push_back(Entry{key, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

uint64_t EventQueue::run_until(TimePoint horizon) {
  uint64_t executed = 0;
  while (!heap_.empty() && heap_.front().key.at <= horizon) {
    const Entry ev = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    now_ = ev.key.at;
    running_ = ev.key;
    ran_any_ = true;
    Action& action = actions_[ev.slot];
    action();
    action = nullptr;  // release the closure's captures now
    free_slots_.push_back(ev.slot);
    ++executed;
  }
  if (now_ < horizon) now_ = horizon;
  return executed;
}

uint64_t EventQueue::run() { return run_until(TimePoint::max()); }

}  // namespace ccp::sim
