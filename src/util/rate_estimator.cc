#include "util/rate_estimator.hpp"

#include <bit>

namespace ccp {

size_t RateEstimator::round_capacity(size_t capacity) {
  return std::bit_ceil(capacity < 8 ? size_t{8} : capacity);
}

RateEstimator::RateEstimator(Duration window, size_t capacity)
    : window_(window),
      capacity_(round_capacity(capacity)),
      events_(std::make_unique_for_overwrite<Event[]>(capacity_)) {}

void RateEstimator::reinit(Duration window, size_t capacity) {
  window_ = window;
  const size_t cap = round_capacity(capacity);
  if (cap != capacity_) {
    capacity_ = cap;
    events_ = std::make_unique_for_overwrite<Event[]>(cap);
  }
  reset();
  total_bytes_ = 0;
}

void RateEstimator::expire(TimePoint now) const {
  const TimePoint cutoff = now - window_;
  if (count() == 0) return;
  // Long-idle fast path: if even the newest event predates the window,
  // the whole ring expires at once. Walking the ring here is what a
  // Zipf-tail flow at million-flow scale would pay on every visit — its
  // cache TTL and its history are both long gone by the time it is
  // ACKed again — so the O(ring) walk collapses to the same state the
  // pops would reach: anchor at the newest event, empty window.
  const Event& newest = events_[(tail_ - 1) & (capacity_ - 1)];
  if (newest.time_ns < cutoff.nanos()) {
    anchor_time_ = TimePoint::from_nanos(newest.time_ns);
    anchor_valid_ = true;
    bytes_in_window_ = 0;
    head_ = tail_;
    return;
  }
  while (count() > 0 && front().time_ns < cutoff.nanos()) pop_front_into_anchor();
}

double RateEstimator::rate_bps(TimePoint now) const {
  expire(now);
  if (count() == 0) return 0.0;
  if (anchor_valid_) {
    // The window has been rolling: measure everything in it against the
    // window edge (or the last expired event, whichever is later). A
    // burst after a quiet gap is thus averaged over the gap — the bytes
    // really were delivered across that whole period — instead of being
    // divided by the burst's own microseconds.
    const TimePoint window_edge = now - window_;
    const TimePoint anchor =
        anchor_time_ > window_edge ? anchor_time_ : window_edge;
    const Duration span = now - anchor;
    if (span <= Duration::zero()) return 0.0;
    return static_cast<double>(bytes_in_window_) / span.secs();
  }
  // Startup (nothing expired yet): measure from the first event, whose
  // own bytes arrived "at time zero" of the interval and are excluded.
  if (count() < 2) return 0.0;
  const Duration span = now - TimePoint::from_nanos(front().time_ns);
  if (span <= Duration::zero()) return 0.0;
  const uint64_t bytes = bytes_in_window_ - front().bytes;
  return static_cast<double>(bytes) / span.secs();
}

void RateEstimator::reset() {
  head_ = tail_ = 0;
  bytes_in_window_ = 0;
  anchor_valid_ = false;
  cache_rate_ = 0.0;
  cache_until_ = TimePoint{};
}

}  // namespace ccp
