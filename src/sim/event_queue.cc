#include "sim/event_queue.hpp"

#include <stdexcept>

namespace ccp::sim {

Event::~Event() {
  if (pos_ != kIdle) queue_->cancel(*this);
}

EventQueue::~EventQueue() {
  // Events that outlive the queue must not reach back into it.
  for (const Entry& entry : heap_) entry.ev->pos_ = Event::kIdle;
  heap_.clear();
}

void EventQueue::check_key(const EventKey& key) const {
  if (key.at < now_ || (ran_any_ && key <= running_)) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
}

void EventQueue::schedule_at(TimePoint at, uint64_t ticket, Event& ev) {
  const EventKey key{at, ticket};
  check_key(key);
  if (ev.pos_ == Event::kIdle) {
    ++pushes_;
    ev.queue_ = this;
    heap_.push_back(Entry{key, &ev});
    sift_up(static_cast<uint32_t>(heap_.size() - 1));
    return;
  }
  // The running event is still on top; its new key sorts after it.
  const uint32_t i = ev.pos_ == Event::kRunning ? 0 : ev.pos_;
  const bool earlier = key < heap_[i].key;
  heap_[i].key = key;
  if (earlier) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void EventQueue::cancel(Event& ev) {
  if (ev.pos_ == Event::kIdle) return;
  remove_at(ev.pos_ == Event::kRunning ? 0 : ev.pos_);
}

void EventQueue::schedule_at(TimePoint at, uint64_t ticket, Action action) {
  check_key(EventKey{at, ticket});
  Closure* closure;
  if (free_closures_.empty()) {
    closure = &closures_.emplace_back();
  } else {
    closure = free_closures_.back();
    free_closures_.pop_back();
  }
  closure->action = std::move(action);
  schedule_at(at, ticket, closure->event);
}

void EventQueue::run_closure(void* ctx) {
  Closure& closure = *static_cast<Closure*>(ctx);
  closure.action();
  closure.action = nullptr;  // release the closure's captures now
  closure.event.queue_->free_closures_.push_back(&closure);
}

void EventQueue::sift_up(uint32_t i) {
  const Entry entry = heap_[i];
  while (i > 0) {
    const uint32_t parent = (i - 1) / 2;
    if (!(entry.key < heap_[parent].key)) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

void EventQueue::sift_down(uint32_t i) {
  const Entry entry = heap_[i];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * size_t{i} + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].key < heap_[child].key) ++child;
    if (!(heap_[child].key < entry.key)) break;
    place(i, heap_[child]);
    i = static_cast<uint32_t>(child);
  }
  place(i, entry);
}

void EventQueue::remove_at(uint32_t i) {
  heap_[i].ev->pos_ = Event::kIdle;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  heap_[i] = last;
  if (i > 0 && last.key < heap_[(i - 1) / 2].key) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

uint64_t EventQueue::run_until(TimePoint horizon) {
  uint64_t executed = 0;
  while (!heap_.empty() && heap_.front().key.at <= horizon) {
    // The event fires in place at the top: everything it queues sorts
    // after it, so nothing can displace it.
    Event& ev = *heap_.front().ev;
    now_ = heap_.front().key.at;
    running_ = heap_.front().key;
    ran_any_ = true;
    ev.pos_ = Event::kRunning;
    ev.fn_(ev.ctx_);
    // Unless it re-keyed, cancelled or destroyed itself, it is still on
    // top under the running key: retire it. (`ev` may be gone here.)
    if (!heap_.empty() && heap_.front().key == running_) remove_at(0);
    ++executed;
  }
  if (now_ < horizon) now_ = horizon;
  return executed;
}

uint64_t EventQueue::run() { return run_until(TimePoint::max()); }

}  // namespace ccp::sim
