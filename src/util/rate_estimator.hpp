// Sliding-window rate estimation for sending and delivery rates.
//
// The paper's datapath primitive (3) requires "statistics on ... packet
// delivery rates". This estimator counts bytes over a sliding time window
// and reports bytes/sec; it is the source of Pkt.snd_rate / Pkt.rcv_rate
// presented to fold functions.
//
// History lives in a fixed-capacity ring allocated once at construction:
// on_bytes()/rate_bps() never allocate, which the per-ACK hot path
// depends on (see docs/PERF.md). When the ring fills before time expires
// old events, the oldest event is folded into the window-edge anchor —
// the estimate degrades gracefully to "bytes since anchor / time since
// anchor" rather than growing memory. The ring is allocated without
// being initialized: only slots in [head, tail) are ever read, and each
// of those was written first, so ring pages a quiet flow never reaches
// never become resident.
#pragma once

#include <cstdint>
#include <memory>

#include "util/time.hpp"

namespace ccp {

class RateEstimator {
 public:
  /// `window`: how much history contributes to the estimate. Congestion
  /// control wants roughly an RTT; callers may retune via set_window().
  /// `capacity`: ring size in events, rounded up to a power of two (min
  /// 8). The default suits a hot flow; million-flow datapaths shrink it
  /// (FlowConfig::rate_ring_entries) because two 512-entry rings of
  /// 16 B events are 16 KB per flow (~16 GB at a million flows) — the
  /// dominant per-flow footprint at scale, paid in resident memory only
  /// by flows that record (see set_recording()).
  explicit RateEstimator(Duration window = Duration::from_millis(100),
                         size_t capacity = kDefaultCapacity);

  void set_window(Duration window) {
    window_ = window;
    cache_until_ = TimePoint{};  // retuned window: next query recomputes
  }
  Duration window() const { return window_; }

  /// Recording latch. A paused estimator drops on_bytes() events, so a
  /// flow whose program never reads the rate writes no ring line per
  /// packet. Turning recording back on starts from empty history, as a
  /// new estimator would: the events missed while paused are gone, and an
  /// estimate over the gap would be wrong. On by default.
  bool recording() const { return recording_; }
  void set_recording(bool on) {
    if (on && !recording_) reset();
    recording_ = on;
  }

  /// Record that `bytes` were sent/delivered at `now`. Inline: this runs
  /// (for two estimators) on every send and every ACK, and must stay a
  /// handful of stores. Expiry is deferred to rate_bps(); the ring-full
  /// fold below bounds memory regardless of how stale the window gets.
  void on_bytes(uint64_t bytes, TimePoint now) {
    if (!recording_) return;
    if (count() == capacity_) pop_front_into_anchor();  // ring full: fold oldest
    events_[tail_ & (capacity_ - 1)] = {now.nanos(), bytes};
    ++tail_;
    bytes_in_window_ += bytes;
    total_bytes_ += bytes;
  }

  /// Estimated rate in bytes per second over the trailing window.
  /// Returns 0 until at least two events span a measurable interval.
  double rate_bps(TimePoint now) const;

  /// rate_bps with a short time-to-live cache: recomputes at most once
  /// per window/8 and otherwise returns the previous estimate. The full
  /// computation walks and expires the ring — at per-ACK query rates
  /// that walk dominates the measurement cost, while the estimate it
  /// refreshes is a trailing-window average that barely moves between
  /// adjacent ACKs. An eighth of the window keeps the staleness well
  /// inside the estimator's own smoothing horizon. Used by the per-ACK
  /// packet-field fill; control decisions that want an exact-now reading
  /// keep calling rate_bps().
  double rate_bps_cached(TimePoint now) const {
    if (now >= cache_until_) {
      cache_rate_ = rate_bps(now);
      cache_until_ = now + window_ / 8;
    }
    return cache_rate_;
  }

  /// Address the next on_bytes() will write. Tests compare it across a
  /// reinit() to check that a same-capacity reinit keeps the ring.
  const void* write_pos() const { return &events_[tail_ & (capacity_ - 1)]; }

  /// Total bytes recorded since construction (monotone counter; bytes
  /// dropped while paused are not counted).
  uint64_t total_bytes() const { return total_bytes_; }

  void reset();

  /// Full reinitialization for flow-slot recycling: clears history *and*
  /// the monotone byte counter, and retunes the window. The ring is
  /// resized only when the requested capacity differs from the current
  /// one, so a same-shape reinit (steady-state churn) never allocates.
  void reinit(Duration window, size_t capacity);

  size_t capacity() const { return capacity_; }

  // Default ring capacity (power of two). At one event per ACK this is
  // ~0.5 ms of history at 1M ACKs/sec — beyond it the anchor fallback
  // takes over, which is exactly the regime where per-event resolution
  // stops mattering.
  static constexpr size_t kDefaultCapacity = 512;

 private:
  // Plain integers, not TimePoint: a trivially default-constructible
  // event lets the ring be allocated uninitialized.
  struct Event {
    int64_t time_ns;
    uint64_t bytes;
  };

  static size_t round_capacity(size_t capacity);

  size_t count() const { return tail_ - head_; }
  const Event& front() const { return events_[head_ & (capacity_ - 1)]; }
  void pop_front_into_anchor() const {
    const Event& ev = front();
    bytes_in_window_ -= ev.bytes;
    anchor_time_ = TimePoint::from_nanos(ev.time_ns);
    anchor_valid_ = true;
    ++head_;
  }
  void expire(TimePoint now) const;

  // on_bytes() reads the latch, the ring pointer and the indices; they
  // sit together at the front of the object.
  Duration window_;
  size_t capacity_ = kDefaultCapacity;  // power of two, set at construction
  bool recording_ = true;
  std::unique_ptr<Event[]> events_;  // ring storage, sized once, uninitialized
  // mutable: expire() trims history from const accessors.
  mutable uint64_t head_ = 0;  // monotone ring indices
  mutable uint64_t tail_ = 0;
  mutable uint64_t bytes_in_window_ = 0;
  // Time of the most recently expired event: once events start aging
  // out, the measurement interval is anchored at the window edge, so an
  // ACK burst after a quiet gap is averaged over the gap rather than
  // over the burst's own microseconds.
  mutable TimePoint anchor_time_{};
  mutable bool anchor_valid_ = false;
  // rate_bps_cached TTL state. cache_until_ at the epoch forces the first
  // query (and the first after set_window) to compute.
  mutable double cache_rate_ = 0.0;
  mutable TimePoint cache_until_{};
  uint64_t total_bytes_ = 0;
};

}  // namespace ccp
