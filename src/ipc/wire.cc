#include "ipc/wire.hpp"

#include <cstring>
#include <limits>

namespace ccp::ipc {

namespace {
// Sanity caps so a corrupt length field can't trigger a giant allocation.
constexpr uint32_t kMaxVecLen = 1 << 20;
constexpr uint32_t kMaxStrLen = 1 << 20;
constexpr uint32_t kMaxMsgLen = 1 << 24;
}  // namespace

const std::vector<std::string>& prototype_field_names() {
  static const std::vector<std::string> kNames = {
      "acked", "acked_pkts", "marked", "loss", "lost",  "timeout",
      "rtt",   "minrtt",     "snd",    "rcv",  "now",   "inflight"};
  return kNames;
}

MsgType message_type(const Message& m) {
  return std::visit(
      [](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, CreateMsg>) return MsgType::Create;
        else if constexpr (std::is_same_v<T, MeasurementMsg>) return MsgType::Measurement;
        else if constexpr (std::is_same_v<T, UrgentMsg>) return MsgType::Urgent;
        else if constexpr (std::is_same_v<T, FlowCloseMsg>) return MsgType::FlowClose;
        else if constexpr (std::is_same_v<T, InstallMsg>) return MsgType::Install;
        else if constexpr (std::is_same_v<T, UpdateFieldsMsg>) return MsgType::UpdateFields;
        else if constexpr (std::is_same_v<T, DirectControlMsg>) return MsgType::DirectControl;
        else if constexpr (std::is_same_v<T, ResyncRequestMsg>) return MsgType::ResyncRequest;
        else return MsgType::FlowSummary;
      },
      m);
}

void Encoder::u8(uint8_t v) { buf_.push_back(v); }
void Encoder::u16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}
void Encoder::u32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void Encoder::u64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void Encoder::f64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}
void Encoder::str(const std::string& s) {
  u32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}
void Encoder::f64_vec(const std::vector<double>& v) {
  u32(static_cast<uint32_t>(v.size()));
  for (double d : v) f64(d);
}
void Encoder::str_vec(const std::vector<std::string>& v) {
  u32(static_cast<uint32_t>(v.size()));
  for (const auto& s : v) str(s);
}
void Encoder::patch_u32(size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_[offset + i] = static_cast<uint8_t>(v >> (8 * i));
}
void Encoder::patch_u16(size_t offset, uint16_t v) {
  buf_[offset] = static_cast<uint8_t>(v);
  buf_[offset + 1] = static_cast<uint8_t>(v >> 8);
}

void Decoder::need(size_t n) const {
  if (pos_ + n > data_.size()) throw WireError("truncated message");
}
void Decoder::need_items(uint64_t count, size_t min_item_bytes) const {
  if (count > remaining() / min_item_bytes) throw WireError("count exceeds the bytes present");
}
uint8_t Decoder::u8() {
  need(1);
  return data_[pos_++];
}
uint16_t Decoder::u16() {
  need(2);
  uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}
uint32_t Decoder::u32() {
  need(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}
uint64_t Decoder::u64() {
  need(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}
double Decoder::f64() {
  const uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
std::string Decoder::str() {
  std::string s;
  str_into(s);
  return s;
}
void Decoder::str_into(std::string& out) {
  const uint32_t len = u32();
  if (len > kMaxStrLen) throw WireError("string too long");
  need(len);
  out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
}
void Decoder::f64_vec_into(std::vector<double>& out) {
  const uint32_t count = u32();
  if (count > kMaxVecLen) throw WireError("vector too long");
  need_items(count, 8);
  out.clear();
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) out.push_back(f64());
}
void Decoder::str_vec_into(std::vector<std::string>& out) {
  const uint32_t count = u32();
  if (count > kMaxVecLen) throw WireError("vector too long");
  need_items(count, 4);  // each string is at least its u32 length
  // Reuse existing string slots (and their heap buffers) where possible.
  if (out.size() > count) out.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (i < out.size()) {
      str_into(out[i]);
    } else {
      out.push_back(str());
    }
  }
}

namespace {

// Span context rides at the end of command payloads (four u64s); a zero
// span_id still encodes, keeping every payload fixed-shape.
void encode_span(Encoder& e, const SpanStamp& s) {
  e.u64(s.span_id);
  e.u64(s.emit_ns);
  e.u64(s.agent_recv_ns);
  e.u64(s.agent_send_ns);
}
void decode_span(Decoder& d, SpanStamp& s) {
  s.span_id = d.u64();
  s.emit_ns = d.u64();
  s.agent_recv_ns = d.u64();
  s.agent_send_ns = d.u64();
}

void encode_payload(Encoder& e, const CreateMsg& m) {
  e.u32(m.flow_id);
  e.u32(m.init_cwnd_bytes);
  e.u32(m.mss);
  e.u32(m.src_port);
  e.u32(m.dst_port);
  e.str(m.alg_hint);
  e.u8(m.supports_programs ? 1 : 0);
}
void encode_payload(Encoder& e, const MeasurementMsg& m) {
  e.u32(m.flow_id);
  e.u64(m.report_seq);
  e.u32(m.num_acks_folded);
  e.u8(m.is_vector ? 1 : 0);
  e.f64_vec(m.fields);
  e.u64(m.emitted_ns);
  e.u64(m.span_id);
}
void encode_payload(Encoder& e, const UrgentMsg& m) {
  e.u32(m.flow_id);
  e.u8(static_cast<uint8_t>(m.kind));
  e.f64_vec(m.fields);
  e.u64(m.emitted_ns);
  e.u64(m.span_id);
}
void encode_payload(Encoder& e, const FlowCloseMsg& m) { e.u32(m.flow_id); }
void encode_payload(Encoder& e, const InstallMsg& m) {
  e.u32(m.flow_id);
  e.str(m.program_text);
  e.str_vec(m.var_names);
  e.f64_vec(m.var_values);
  e.u8(m.vector_mode ? 1 : 0);
  e.u64(m.emitted_ns);
  encode_span(e, m.span);
}
void encode_payload(Encoder& e, const UpdateFieldsMsg& m) {
  e.u32(m.flow_id);
  e.f64_vec(m.var_values);
  encode_span(e, m.span);
}
void encode_payload(Encoder& e, const DirectControlMsg& m) {
  e.u32(m.flow_id);
  e.u8(m.cwnd_bytes.has_value() ? 1 : 0);
  e.f64(m.cwnd_bytes.value_or(0));
  e.u8(m.rate_bps.has_value() ? 1 : 0);
  e.f64(m.rate_bps.value_or(0));
  encode_span(e, m.span);
}
void encode_payload(Encoder& e, const ResyncRequestMsg& m) { e.u64(m.token); }
void encode_payload(Encoder& e, const FlowSummaryMsg& m) {
  e.u32(m.flow_id);
  e.u32(m.mss);
  e.u32(m.cwnd_bytes);
  e.u64(m.srtt_us);
  e.u8(m.in_fallback ? 1 : 0);
  e.str(m.alg_hint);
  e.u64(m.token);
}

// In-place payload decoders: overwrite an existing struct, reusing its
// vectors' capacity. Scalar fields are all assigned, so no stale state
// survives.
void decode_payload_into(Decoder& d, CreateMsg& m) {
  m.flow_id = d.u32();
  m.init_cwnd_bytes = d.u32();
  m.mss = d.u32();
  m.src_port = d.u32();
  m.dst_port = d.u32();
  d.str_into(m.alg_hint);
  m.supports_programs = d.u8() != 0;
}
void decode_payload_into(Decoder& d, MeasurementMsg& m) {
  m.flow_id = d.u32();
  m.report_seq = d.u64();
  m.num_acks_folded = d.u32();
  m.is_vector = d.u8() != 0;
  d.f64_vec_into(m.fields);
  m.emitted_ns = d.u64();
  m.span_id = d.u64();
}
void decode_payload_into(Decoder& d, UrgentMsg& m) {
  m.flow_id = d.u32();
  const uint8_t kind = d.u8();
  if (kind > static_cast<uint8_t>(UrgentKind::FoldUrgent)) {
    throw WireError("bad urgent kind");
  }
  m.kind = static_cast<UrgentKind>(kind);
  d.f64_vec_into(m.fields);
  m.emitted_ns = d.u64();
  m.span_id = d.u64();
}
void decode_payload_into(Decoder& d, FlowCloseMsg& m) { m.flow_id = d.u32(); }
void decode_payload_into(Decoder& d, InstallMsg& m) {
  m.flow_id = d.u32();
  d.str_into(m.program_text);
  d.str_vec_into(m.var_names);
  d.f64_vec_into(m.var_values);
  m.vector_mode = d.u8() != 0;
  m.emitted_ns = d.u64();
  decode_span(d, m.span);
}
void decode_payload_into(Decoder& d, UpdateFieldsMsg& m) {
  m.flow_id = d.u32();
  d.f64_vec_into(m.var_values);
  decode_span(d, m.span);
}
void decode_payload_into(Decoder& d, DirectControlMsg& m) {
  m.flow_id = d.u32();
  const bool has_cwnd = d.u8() != 0;
  const double cwnd = d.f64();
  const bool has_rate = d.u8() != 0;
  const double rate = d.f64();
  m.cwnd_bytes = has_cwnd ? std::optional<double>(cwnd) : std::nullopt;
  m.rate_bps = has_rate ? std::optional<double>(rate) : std::nullopt;
  decode_span(d, m.span);
}
void decode_payload_into(Decoder& d, ResyncRequestMsg& m) { m.token = d.u64(); }
void decode_payload_into(Decoder& d, FlowSummaryMsg& m) {
  m.flow_id = d.u32();
  m.mss = d.u32();
  m.cwnd_bytes = d.u32();
  m.srtt_us = d.u64();
  m.in_fallback = d.u8() != 0;
  d.str_into(m.alg_hint);
  m.token = d.u64();
}

/// Decodes into `slot`, keeping the current variant alternative (and its
/// heap buffers) when the wire type matches; otherwise switches the
/// alternative with emplace (one-time cost per type change).
template <typename T>
void reuse_or_emplace(Decoder& d, Message& slot) {
  T* m = std::get_if<T>(&slot);
  if (m == nullptr) m = &slot.emplace<T>();
  decode_payload_into(d, *m);
}

void decode_message_into(MsgType type, Decoder& d, Message& slot) {
  switch (type) {
    case MsgType::Create: reuse_or_emplace<CreateMsg>(d, slot); return;
    case MsgType::Measurement: reuse_or_emplace<MeasurementMsg>(d, slot); return;
    case MsgType::Urgent: reuse_or_emplace<UrgentMsg>(d, slot); return;
    case MsgType::FlowClose: reuse_or_emplace<FlowCloseMsg>(d, slot); return;
    case MsgType::Install: reuse_or_emplace<InstallMsg>(d, slot); return;
    case MsgType::UpdateFields: reuse_or_emplace<UpdateFieldsMsg>(d, slot); return;
    case MsgType::DirectControl: reuse_or_emplace<DirectControlMsg>(d, slot); return;
    case MsgType::ResyncRequest: reuse_or_emplace<ResyncRequestMsg>(d, slot); return;
    case MsgType::FlowSummary: reuse_or_emplace<FlowSummaryMsg>(d, slot); return;
  }
  throw WireError("unknown message type " + std::to_string(static_cast<int>(type)));
}

}  // namespace

void encode_message(Encoder& enc, const Message& m) {
  const size_t len_at = enc.size();
  enc.u32(0);  // placeholder msg_len
  enc.u8(static_cast<uint8_t>(message_type(m)));
  std::visit([&enc](const auto& msg) { encode_payload(enc, msg); }, m);
  enc.patch_u32(len_at, static_cast<uint32_t>(enc.size() - len_at));
}

void encode_frame_into(Encoder& enc, std::span<const Message> msgs) {
  if (msgs.size() > std::numeric_limits<uint16_t>::max()) {
    throw WireError("too many messages in one frame");
  }
  enc.u16(static_cast<uint16_t>(msgs.size()));
  for (const auto& m : msgs) encode_message(enc, m);
}

void encode_frame_into(Encoder& enc, const Message& msg) {
  encode_frame_into(enc, std::span<const Message>(&msg, 1));
}

std::vector<uint8_t> encode_frame(std::span<const Message> msgs) {
  Encoder enc;
  encode_frame_into(enc, msgs);
  return std::move(enc.buffer());
}

std::vector<uint8_t> encode_frame(const Message& msg) {
  return encode_frame(std::span<const Message>(&msg, 1));
}

size_t decode_frame_into(std::span<const uint8_t> frame, std::vector<Message>& out) {
  Decoder d(frame);
  const uint16_t n = d.u16();
  d.need_items(n, 5);  // each message is at least its u32 length and type byte
  if (out.size() < n) out.resize(n);
  for (uint16_t i = 0; i < n; ++i) {
    const size_t msg_start = d.position();
    const uint32_t msg_len = d.u32();
    if (msg_len < 5 || msg_len > kMaxMsgLen) throw WireError("bad message length");
    const uint8_t type = d.u8();
    decode_message_into(static_cast<MsgType>(type), d, out[i]);
    if (d.position() != msg_start + msg_len) {
      throw WireError("message length mismatch");
    }
  }
  if (d.remaining() != 0) throw WireError("trailing bytes in frame");
  return n;
}

std::vector<Message> decode_frame(std::span<const uint8_t> frame) {
  std::vector<Message> out;
  out.resize(decode_frame_into(frame, out));
  return out;
}

}  // namespace ccp::ipc
