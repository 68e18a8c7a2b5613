// Shared-memory SPSC byte ring used by the shm transport.
//
// Layout in the shared mapping (one per direction):
//
//   [ RingHeader | data bytes ... ]
//
// The producer writes [u32 len][payload] records; head/tail are byte
// offsets that only ever increase (mod 2^64) so empty/full is
// unambiguous. Single producer, single consumer, both possibly in
// different processes (the mapping is MAP_SHARED|MAP_ANONYMOUS, created
// before fork()).
//
// This is the stand-in for the paper's Netlink channel: a syscall-free
// data plane with an optional eventfd doorbell for blocking waits.
//
// There are two consumer paths, one per use: pop() copies one record out
// (the transport's recv_frame), and drain() hands every pending record to
// a callback as a span into the ring (the transport's drain_frames).
//
// The peer is not trusted. The capacity lives in each side's ShmRing
// (set at create_in), not in shared memory, and every consumer path
// checks `tail - head` against it and each record's `len` against
// `tail - head`. A violation latches corrupt(), is counted as
// ccp_ipc_ring_corrupt_total, and reads as an empty ring from then on:
// the transport on top treats it as a disconnect.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace ccp::ipc {

struct RingHeader {
  std::atomic<uint64_t> head{0};  // next byte the consumer will read
  std::atomic<uint64_t> tail{0};  // next byte the producer will write
};

/// Non-owning view over a ring in shared memory. The owner (ShmChannel)
/// manages the mapping's lifetime.
class ShmRing {
 public:
  ShmRing() = default;

  /// Producer side: appends one record. Returns false if there is not
  /// enough free space (caller may retry or drop).
  bool push(std::span<const uint8_t> payload);

  /// Consumer side: pops one record if available. nullopt on an empty
  /// or corrupt ring.
  std::optional<std::vector<uint8_t>> pop();

  /// Batched zero-copy consumer: invokes fn(payload) for every record
  /// present when the drain began, publishing ONE head update at the end
  /// — a single head/tail synchronization round-trip (two loads + one
  /// store) no matter how deep the backlog. Each span points directly
  /// into ring memory when the record is contiguous; a record that
  /// straddles the wrap point is staged through `scratch` (whose capacity
  /// is reused across calls). Spans stay valid until drain() returns.
  /// Returns the number of records drained; a corrupt record ends the
  /// drain after the good ones before it.
  template <typename Fn>
  size_t drain(std::vector<uint8_t>& scratch, Fn&& fn) {
    uint64_t head = hdr_->head.load(std::memory_order_relaxed);
    const uint64_t tail = hdr_->tail.load(std::memory_order_acquire);
    size_t n = 0;
    while (head != tail) {
      const std::optional<std::span<const uint8_t>> rec = record_at(head, tail, scratch);
      if (!rec.has_value()) break;
      head += 4 + rec->size();
      fn(*rec);
      ++n;
    }
    if (n > 0) hdr_->head.store(head, std::memory_order_release);
    return n;
  }

  bool empty() const {
    return corrupt_ || hdr_->head.load(std::memory_order_acquire) ==
                           hdr_->tail.load(std::memory_order_acquire);
  }

  uint64_t bytes_used() const {
    return hdr_->tail.load(std::memory_order_acquire) -
           hdr_->head.load(std::memory_order_acquire);
  }

  uint64_t capacity() const { return cap_; }

  /// True once a consumer path has seen a header or record the producer
  /// could not have written. Sticky: the ring stays empty afterwards.
  bool corrupt() const { return corrupt_; }

  /// Total size of the shared mapping needed for a ring of `capacity`.
  static size_t mapping_size(size_t capacity) {
    return sizeof(RingHeader) + capacity;
  }

  /// Initializes a header+data region in place (producer side, once).
  /// `capacity` must be a power of two.
  static ShmRing create_in(void* mem, size_t capacity);

 private:
  ShmRing(RingHeader* header, uint8_t* data, uint64_t capacity)
      : hdr_(header), data_(data), cap_(capacity) {}

  void copy_in(uint64_t at, std::span<const uint8_t> src);
  void copy_out(uint64_t at, std::span<uint8_t> dst) const;

  /// Length of the record at byte offset `head`. nullopt on a corrupt
  /// ring, and latches corrupt() (counted once) when `tail - head`
  /// exceeds capacity or the record would run past `tail`.
  std::optional<uint32_t> record_len(uint64_t head, uint64_t tail);

  /// Payload view of the record at byte offset `head` — zero-copy when
  /// contiguous, staged through `scratch` when it wraps. nullopt when
  /// record_len() rejects it.
  std::optional<std::span<const uint8_t>> record_at(uint64_t head, uint64_t tail,
                                                    std::vector<uint8_t>& scratch);

  RingHeader* hdr_ = nullptr;
  uint8_t* data_ = nullptr;
  uint64_t cap_ = 0;  // power of two; private, so the peer cannot change it
  bool corrupt_ = false;
};

}  // namespace ccp::ipc
