// Binary wire format for CCP messages.
//
// All integers little-endian. A *frame* is the unit a transport carries;
// it may coalesce many messages (the batching path of §2.3 — one syscall
// flushes every flow's pending reports):
//
//   frame   := u16 n_msgs | msg*
//   msg     := u32 msg_len | u8 type | payload(msg_len-5 bytes)
//
// Decoding is defensive end to end: a malformed or truncated frame raises
// WireError, which the receiving side counts, logs and drops — a corrupt
// datapath message must never take down the agent, and vice versa (§5 "Is
// CCP safe to deploy?"). Every count the peer claims is checked against
// the bytes present before anything is sized for it, so a short frame
// cannot buy a large allocation. There is one decoder, decode_frame_into();
// decode_frame() is a by-value wrapper over it for tests and tools.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ipc/message.hpp"

namespace ccp::ipc {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error("wire: " + what) {}
};

/// Append-only byte buffer writer.
class Encoder {
 public:
  void u8(uint8_t v);
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void f64(double v);
  void str(const std::string& s);              // u32 len + bytes
  void f64_vec(const std::vector<double>& v);  // u32 count + doubles
  void str_vec(const std::vector<std::string>& v);

  std::vector<uint8_t>& buffer() { return buf_; }
  const std::vector<uint8_t>& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }

  /// Resets to empty, keeping the underlying capacity — lets one Encoder
  /// be reused across frames without re-allocating the buffer.
  void clear() { buf_.clear(); }

  /// Patch a previously written u32 at `offset` (for length prefixes).
  void patch_u32(size_t offset, uint32_t v);

  /// Patch a previously written u16 at `offset` (for frame msg counts).
  void patch_u16(size_t offset, uint16_t v);

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader; throws WireError past the end.
class Decoder {
 public:
  explicit Decoder(std::span<const uint8_t> data) : data_(data) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  double f64();
  std::string str();

  // Overwrite `out`, reusing its existing capacity: after warm-up no
  // per-message allocation happens as long as capacities have settled.
  void str_into(std::string& out);
  void f64_vec_into(std::vector<double>& out);
  void str_vec_into(std::vector<std::string>& out);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

  /// Throws WireError unless `count` items of at least `min_item_bytes`
  /// each fit in the unread bytes. Call it before sizing anything for a
  /// count the peer claims, so a short message cannot buy a big buffer.
  void need_items(uint64_t count, size_t min_item_bytes) const;

 private:
  void need(size_t n) const;
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Serializes one message (without frame header).
void encode_message(Encoder& enc, const Message& m);

/// Builds a complete frame from one or more messages.
std::vector<uint8_t> encode_frame(std::span<const Message> msgs);
std::vector<uint8_t> encode_frame(const Message& msg);

/// Appends a complete frame to `enc` (which the caller clears between
/// frames). The allocation-free sibling of encode_frame().
void encode_frame_into(Encoder& enc, std::span<const Message> msgs);
void encode_frame_into(Encoder& enc, const Message& msg);

/// Parses a frame into fresh messages through decode_frame_into().
/// Throws WireError on malformed input.
std::vector<Message> decode_frame(std::span<const uint8_t> frame);

/// In-place frame decode: messages land in `out[0..n)`, reusing each
/// slot's existing variant alternative (and therefore its vectors'
/// capacity) when the incoming type matches. `out` only grows when the
/// frame has more messages than any previous one; it is NOT shrunk —
/// the returned count says how many slots are valid.
size_t decode_frame_into(std::span<const uint8_t> frame, std::vector<Message>& out);

}  // namespace ccp::ipc
