// Lock-free, fixed-capacity ring of trivially copyable records, and the
// process-global slot that installs one.
//
// Writers (any thread) take a ticket with one fetch_add and store the
// record as relaxed 64-bit words — no locks, no allocation. Each slot
// carries a sequence word: zeroed before the payload, published as
// ticket+1 after it, so a reader can detect and skip a slot that a
// concurrent writer tore. Relaxed atomic words compile to plain stores on
// x86/ARM, and keep a reader that races a writer well-defined (and
// TSan-clean). The trace ring (trace_ring.hpp) and the span ring
// (spans.hpp) are both this ring.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace ccp::telemetry {

template <typename T>
class SeqRing {
  static_assert(std::is_trivially_copyable_v<T>);
  static constexpr size_t kWords = (sizeof(T) + 7) / 8;

 public:
  /// Capacity is rounded up to a power of two (min 64).
  explicit SeqRing(size_t capacity)
      : mask_(std::bit_ceil(std::max<size_t>(capacity, 64)) - 1),
        slots_(std::make_unique<Slot[]>(mask_ + 1)) {}

  SeqRing(const SeqRing&) = delete;
  SeqRing& operator=(const SeqRing&) = delete;

  void record(const T& v) noexcept {
    uint64_t words[kWords] = {};
    std::memcpy(words, &v, sizeof(T));
    const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket & mask_];
    // 0 marks the slot as being written. A lapped writer racing another
    // writer on the same slot can still mix words; the reader's
    // double-check catches that case.
    s.seq.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < kWords; ++i) {
      s.words[i].store(words[i], std::memory_order_relaxed);
    }
    s.seq.store(ticket + 1, std::memory_order_release);
  }

  /// Copies valid records, oldest first. Records overwritten or
  /// mid-write during the scan are skipped.
  std::vector<T> dump() const {
    std::vector<T> out;
    out.reserve(capacity());
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t first = head > capacity() ? head - capacity() : 0;
    for (uint64_t t = first; t < head; ++t) {
      const Slot& s = slots_[t & mask_];
      if (s.seq.load(std::memory_order_acquire) != t + 1) continue;
      uint64_t words[kWords];
      for (size_t i = 0; i < kWords; ++i) {
        words[i] = s.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != t + 1) continue;  // torn
      T& v = out.emplace_back();
      std::memcpy(&v, words, sizeof(T));
    }
    return out;
  }

  size_t capacity() const noexcept { return mask_ + 1; }
  /// Total records ever written (may exceed capacity).
  uint64_t recorded() const noexcept { return head_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = empty/being-written, else ticket+1
    std::atomic<uint64_t> words[kWords];
  };

  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
};

/// A process-global ring, or nullptr when off. get() is one relaxed
/// load, so the disabled cost at a record site is one load + branch.
template <typename Ring>
class GlobalRing {
 public:
  Ring* get() const noexcept { return ptr_.load(std::memory_order_relaxed); }

  /// Installs a ring of `capacity` (replacing any previous one). Not
  /// safe while writers are mid-record; for startup and test setup.
  void enable(size_t capacity) {
    ptr_.store(nullptr, std::memory_order_release);
    storage_ = std::make_unique<Ring>(capacity);
    ptr_.store(storage_.get(), std::memory_order_release);
  }

  void disable() {
    ptr_.store(nullptr, std::memory_order_release);
    storage_.reset();
  }

 private:
  std::atomic<Ring*> ptr_{nullptr};
  std::unique_ptr<Ring> storage_;
};

}  // namespace ccp::telemetry
