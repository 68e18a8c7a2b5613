#include "ipc/shm_ring.hpp"

#include <cstring>
#include <new>

#include "telemetry/telemetry.hpp"

namespace ccp::ipc {

ShmRing ShmRing::create_in(void* mem, size_t capacity) {
  auto* hdr = new (mem) RingHeader();
  return ShmRing(hdr, static_cast<uint8_t*>(mem) + sizeof(RingHeader), capacity);
}

void ShmRing::copy_in(uint64_t at, std::span<const uint8_t> src) {
  if (src.empty()) return;  // zero-length payloads are legal records
  const uint64_t off = at & (cap_ - 1);
  const uint64_t first = std::min<uint64_t>(src.size(), cap_ - off);
  std::memcpy(data_ + off, src.data(), first);
  if (first < src.size()) {
    std::memcpy(data_, src.data() + first, src.size() - first);
  }
}

void ShmRing::copy_out(uint64_t at, std::span<uint8_t> dst) const {
  if (dst.empty()) return;
  const uint64_t off = at & (cap_ - 1);
  const uint64_t first = std::min<uint64_t>(dst.size(), cap_ - off);
  std::memcpy(dst.data(), data_ + off, first);
  if (first < dst.size()) {
    std::memcpy(dst.data() + first, data_, dst.size() - first);
  }
}

bool ShmRing::push(std::span<const uint8_t> payload) {
  const uint64_t need = 4 + payload.size();
  const uint64_t tail = hdr_->tail.load(std::memory_order_relaxed);
  const uint64_t head = hdr_->head.load(std::memory_order_acquire);
  // A head past tail or more than a ring behind it is corrupt: report
  // full rather than overwrite records the consumer has not read.
  const uint64_t used = tail - head;
  if (used > cap_ || cap_ - used < need) return false;

  uint8_t len_bytes[4];
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(len_bytes, &len, 4);
  copy_in(tail, len_bytes);
  copy_in(tail + 4, payload);
  hdr_->tail.store(tail + need, std::memory_order_release);
  return true;
}

std::optional<std::vector<uint8_t>> ShmRing::pop() {
  const uint64_t head = hdr_->head.load(std::memory_order_relaxed);
  const uint64_t tail = hdr_->tail.load(std::memory_order_acquire);
  if (tail == head) return std::nullopt;
  const std::optional<uint32_t> len = record_len(head, tail);
  if (!len.has_value()) return std::nullopt;
  std::vector<uint8_t> out(*len);
  copy_out(head + 4, out);
  hdr_->head.store(head + 4 + *len, std::memory_order_release);
  return out;
}

std::optional<uint32_t> ShmRing::record_len(uint64_t head, uint64_t tail) {
  if (corrupt_) return std::nullopt;
  const uint64_t avail = tail - head;
  if (avail >= 4 && avail <= cap_) {
    uint8_t len_bytes[4];
    copy_out(head, len_bytes);
    uint32_t len;
    std::memcpy(&len, len_bytes, 4);
    if (len <= avail - 4) return len;
  }
  corrupt_ = true;
  if (telemetry::enabled()) telemetry::metrics().ipc_ring_corrupt.inc();
  return std::nullopt;
}

std::optional<std::span<const uint8_t>> ShmRing::record_at(
    uint64_t head, uint64_t tail, std::vector<uint8_t>& scratch) {
  const std::optional<uint32_t> len = record_len(head, tail);
  if (!len.has_value()) return std::nullopt;
  const uint64_t off = (head + 4) & (cap_ - 1);
  if (off + *len <= cap_) {
    return std::span<const uint8_t>(data_ + off, *len);  // zero-copy
  }
  if (scratch.size() < *len) scratch.resize(*len);
  copy_out(head + 4, std::span<uint8_t>(scratch.data(), *len));
  return std::span<const uint8_t>(scratch.data(), *len);
}

}  // namespace ccp::ipc
