// A FIFO on a power-of-two ring buffer. It doubles when full and never
// shrinks, so a queue in steady state allocates nothing. A reference
// into the ring stays valid until the next push().
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace ccp::sim {

template <typename T>
class Ring {
 public:
  bool empty() const { return head_ == tail_; }
  size_t size() const { return tail_ - head_; }

  T& front() { return slots_[head_ & mask()]; }
  const T& back() const { return slots_[(tail_ - 1) & mask()]; }

  /// Appends a slot and returns it; the caller overwrites its contents.
  T& push() {
    if (size() == slots_.size()) grow();
    return slots_[tail_++ & mask()];
  }

  void pop() { ++head_; }

 private:
  size_t mask() const { return slots_.size() - 1; }

  void grow() {
    const size_t n = size();
    std::vector<T> bigger(slots_.empty() ? 16 : 2 * slots_.size());
    for (size_t i = 0; i < n; ++i) bigger[i] = std::move(slots_[(head_ + i) & mask()]);
    slots_.swap(bigger);
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> slots_;
  size_t head_ = 0;  // monotone counters; masked on access
  size_t tail_ = 0;
};

}  // namespace ccp::sim
