#include <gtest/gtest.h>

#include <algorithm>

#include "ipc/wire.hpp"
#include "util/rng.hpp"

namespace ccp::ipc {
namespace {

template <typename T>
T roundtrip(const T& msg) {
  auto frame = encode_frame(Message(msg));
  auto decoded = decode_frame(frame);
  EXPECT_EQ(decoded.size(), 1u);
  return std::get<T>(decoded[0]);
}

TEST(Wire, CreateRoundTrip) {
  CreateMsg m;
  m.flow_id = 42;
  m.init_cwnd_bytes = 14600;
  m.mss = 1460;
  m.src_port = 1234;
  m.dst_port = 80;
  m.alg_hint = "cubic";
  auto r = roundtrip(m);
  EXPECT_EQ(r.flow_id, 42u);
  EXPECT_EQ(r.init_cwnd_bytes, 14600u);
  EXPECT_EQ(r.mss, 1460u);
  EXPECT_EQ(r.src_port, 1234u);
  EXPECT_EQ(r.dst_port, 80u);
  EXPECT_EQ(r.alg_hint, "cubic");
}

TEST(Wire, MeasurementRoundTrip) {
  MeasurementMsg m;
  m.flow_id = 7;
  m.report_seq = 123456789012345ull;
  m.num_acks_folded = 250;
  m.is_vector = true;
  m.fields = {1.5, -2.25, 0.0, 1e300, -1e-300};
  auto r = roundtrip(m);
  EXPECT_EQ(r.flow_id, 7u);
  EXPECT_EQ(r.report_seq, 123456789012345ull);
  EXPECT_EQ(r.num_acks_folded, 250u);
  EXPECT_TRUE(r.is_vector);
  EXPECT_EQ(r.fields, m.fields);
}

TEST(Wire, UrgentRoundTrip) {
  for (auto kind : {UrgentKind::Loss, UrgentKind::Timeout, UrgentKind::Ecn,
                    UrgentKind::FoldUrgent}) {
    UrgentMsg m;
    m.flow_id = 3;
    m.kind = kind;
    m.fields = {42.0};
    auto r = roundtrip(m);
    EXPECT_EQ(r.kind, kind);
    EXPECT_EQ(r.fields, m.fields);
  }
}

TEST(Wire, InstallRoundTrip) {
  InstallMsg m;
  m.flow_id = 9;
  m.program_text = "fold { x := x + 1 init 0; }\ncontrol { Report(); }";
  m.var_names = {"cwnd", "rate"};
  m.var_values = {14600.0, 1.25e9};
  m.vector_mode = true;
  auto r = roundtrip(m);
  EXPECT_EQ(r.program_text, m.program_text);
  EXPECT_EQ(r.var_names, m.var_names);
  EXPECT_EQ(r.var_values, m.var_values);
  EXPECT_TRUE(r.vector_mode);
}

TEST(Wire, UpdateFieldsRoundTrip) {
  UpdateFieldsMsg m;
  m.flow_id = 1;
  m.var_values = {1.0, 2.0, 3.0};
  auto r = roundtrip(m);
  EXPECT_EQ(r.var_values, m.var_values);
}

TEST(Wire, DirectControlRoundTrip) {
  DirectControlMsg m;
  m.flow_id = 5;
  m.cwnd_bytes = 29200.0;
  auto r = roundtrip(m);
  EXPECT_TRUE(r.cwnd_bytes.has_value());
  EXPECT_DOUBLE_EQ(*r.cwnd_bytes, 29200.0);
  EXPECT_FALSE(r.rate_bps.has_value());

  DirectControlMsg m2;
  m2.rate_bps = 1e9;
  auto r2 = roundtrip(m2);
  EXPECT_FALSE(r2.cwnd_bytes.has_value());
  EXPECT_DOUBLE_EQ(*r2.rate_bps, 1e9);
}

TEST(Wire, FlowCloseRoundTrip) {
  FlowCloseMsg m;
  m.flow_id = 77;
  EXPECT_EQ(roundtrip(m).flow_id, 77u);
}

TEST(Wire, ResyncRequestRoundTrip) {
  ResyncRequestMsg m;
  m.token = 0xdeadbeefcafef00dull;
  auto r = roundtrip(m);
  EXPECT_EQ(r.token, 0xdeadbeefcafef00dull);
}

TEST(Wire, FlowSummaryRoundTrip) {
  FlowSummaryMsg m;
  m.flow_id = 99;
  m.mss = 1460;
  m.cwnd_bytes = 123456;
  m.srtt_us = 25000;
  m.in_fallback = true;
  m.alg_hint = "cubic";
  m.token = 7;
  auto r = roundtrip(m);
  EXPECT_EQ(r.flow_id, 99u);
  EXPECT_EQ(r.mss, 1460u);
  EXPECT_EQ(r.cwnd_bytes, 123456u);
  EXPECT_EQ(r.srtt_us, 25000u);
  EXPECT_TRUE(r.in_fallback);
  EXPECT_EQ(r.alg_hint, "cubic");
  EXPECT_EQ(r.token, 7u);
}

TEST(Wire, MultiMessageFrame) {
  std::vector<Message> msgs;
  msgs.push_back(CreateMsg{1, 100, 1460, 0, 0, "reno"});
  MeasurementMsg meas;
  meas.flow_id = 1;
  meas.fields = {1.0, 2.0};
  msgs.push_back(meas);
  msgs.push_back(FlowCloseMsg{1});
  auto frame = encode_frame(msgs);
  auto decoded = decode_frame(frame);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(message_type(decoded[0]), MsgType::Create);
  EXPECT_EQ(message_type(decoded[1]), MsgType::Measurement);
  EXPECT_EQ(message_type(decoded[2]), MsgType::FlowClose);
}

TEST(Wire, EmptyFrame) {
  auto frame = encode_frame(std::span<const Message>{});
  EXPECT_TRUE(decode_frame(frame).empty());
}

TEST(Wire, RejectsTruncatedFrame) {
  auto frame = encode_frame(Message(FlowCloseMsg{1}));
  for (size_t cut = 1; cut < frame.size(); ++cut) {
    std::span<const uint8_t> prefix(frame.data(), frame.size() - cut);
    EXPECT_THROW(decode_frame(prefix), WireError) << "cut=" << cut;
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  auto frame = encode_frame(Message(FlowCloseMsg{1}));
  frame.push_back(0xab);
  EXPECT_THROW(decode_frame(frame), WireError);
}

TEST(Wire, RejectsBadMessageType) {
  auto frame = encode_frame(Message(FlowCloseMsg{1}));
  frame[6] = 0xee;  // type byte of the first message
  EXPECT_THROW(decode_frame(frame), WireError);
}

TEST(Wire, RejectsBadUrgentKind) {
  UrgentMsg m;
  m.kind = UrgentKind::Loss;
  auto frame = encode_frame(Message(m));
  // Patch the kind byte (2 frame hdr + 4 len + 1 type + 4 flow_id).
  frame[11] = 200;
  EXPECT_THROW(decode_frame(frame), WireError);
}

TEST(Wire, RejectsAbsurdLengths) {
  // Hand-craft a frame claiming a giant string.
  Encoder e;
  e.u16(1);
  const size_t len_at = e.size();
  e.u32(0);
  e.u8(static_cast<uint8_t>(MsgType::Create));
  e.u32(1);            // flow
  e.u32(0);            // init cwnd
  e.u32(0);            // mss
  e.u32(0);            // src
  e.u32(0);            // dst
  e.u32(0x7fffffff);   // alg_hint length: absurd
  e.patch_u32(len_at, static_cast<uint32_t>(e.size() - len_at));
  EXPECT_THROW(decode_frame(e.buffer()), WireError);
}

TEST(Wire, FuzzRandomBytesNeverCrash) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_below(256));
    try {
      (void)decode_frame(junk);
    } catch (const WireError&) {
      // expected for most inputs
    }
  }
}

TEST(Wire, FuzzBitFlipsNeverCrash) {
  MeasurementMsg m;
  m.flow_id = 1;
  m.fields = {1, 2, 3, 4};
  auto frame = encode_frame(Message(m));
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    auto copy = frame;
    copy[rng.next_below(copy.size())] ^=
        static_cast<uint8_t>(1u << rng.next_below(8));
    try {
      (void)decode_frame(copy);
    } catch (const WireError&) {
    }
  }
}

TEST(Wire, CountBeyondTheFrameGrowsNoScratch) {
  // A message is at least 5 bytes (u32 length + type), so a frame cannot
  // hold more than remaining / 5 of them; the count is checked before the
  // receiver's scratch is sized for it.
  std::vector<Message> out;
  const std::vector<uint8_t> ff = {0xff, 0xff};  // claims 65,535 messages
  EXPECT_THROW(decode_frame_into(ff, out), WireError);
  EXPECT_EQ(out.size(), 0u);

  auto frame = encode_frame(Message(FlowCloseMsg{1}));
  frame[0] = 9;  // one message present, nine claimed
  std::vector<Message> grown;
  EXPECT_THROW(decode_frame_into(frame, grown), WireError);
  EXPECT_LE(grown.size(), frame.size() / 5);
}

// Seeded valid messages of all nine types. Every field gets a fresh
// value and vectors and strings vary in length (empty included), so a
// field that an in-place decode fails to overwrite shows up as a value
// left over from an earlier frame.
class MsgGen {
 public:
  explicit MsgGen(uint64_t seed) : rng_(seed) {}

  Message next() {
    switch (rng_.next_below(9)) {
      case 0: {
        CreateMsg m{u32(), u32(), u32(), u32(), u32(), str()};
        m.supports_programs = flag();
        return m;
      }
      case 1: return MeasurementMsg{u32(), u64(), u32(), flag(), f64s(), u64(), u64()};
      case 2: {
        const auto kind = static_cast<UrgentKind>(rng_.next_below(4));
        return UrgentMsg{u32(), kind, f64s(), u64(), u64()};
      }
      case 3: return FlowCloseMsg{u32()};
      case 4: {
        std::vector<std::string> names(rng_.next_below(5));
        for (auto& n : names) n = str();
        return InstallMsg{u32(), str(), std::move(names), f64s(), flag(), u64(), span()};
      }
      case 5: return UpdateFieldsMsg{u32(), f64s(), span()};
      case 6: {
        DirectControlMsg m;
        m.flow_id = u32();
        if (flag()) m.cwnd_bytes = f64();
        if (flag()) m.rate_bps = f64();
        m.span = span();
        return m;
      }
      case 7: return ResyncRequestMsg{u64()};
      default: return FlowSummaryMsg{u32(), u32(), u32(), u64(), flag(), str(), u64()};
    }
  }

  std::vector<uint8_t> frame() {
    std::vector<Message> msgs(1 + rng_.next_below(4));
    for (auto& m : msgs) m = next();
    return encode_frame(msgs);
  }

 private:
  uint32_t u32() { return static_cast<uint32_t>(rng_.next_u64()); }
  uint64_t u64() { return rng_.next_u64(); }
  double f64() { return rng_.uniform(-1e9, 1e9); }
  bool flag() { return rng_.chance(0.5); }
  std::string str() {
    std::string s(rng_.next_below(24), ' ');
    for (char& c : s) c = static_cast<char>('a' + rng_.next_below(26));
    return s;
  }
  std::vector<double> f64s() {
    std::vector<double> v(rng_.next_below(12));
    for (double& d : v) d = f64();
    return v;
  }
  SpanStamp span() { return SpanStamp{u64(), u64(), u64(), u64()}; }

  Rng rng_;
};

// Decodes `frame` into the reused `scratch` and checks that re-encoding
// the decoded messages reproduces the input bytes.
void expect_reencodes(std::span<const uint8_t> frame, std::vector<Message>& scratch) {
  const size_t n = decode_frame_into(frame, scratch);
  const auto again = encode_frame(std::span<const Message>(scratch.data(), n));
  ASSERT_TRUE(std::equal(again.begin(), again.end(), frame.begin(), frame.end()));
}

TEST(Wire, ReusedScratchDecodesLikeAFreshVector) {
  // decode_frame_into keeps each slot's variant and vectors across frames,
  // as every receiver's scratch does.
  MsgGen gen(33);
  std::vector<Message> scratch;
  for (int i = 0; i < 4000; ++i) {
    const auto frame = gen.frame();
    expect_reencodes(frame, scratch);
    if (HasFatalFailure()) return;
  }
}

TEST(Wire, FuzzThroughOneReusedScratch) {
  // The junk and bit-flip inputs of the two fuzz cases above, through one
  // reused scratch, each followed by a valid frame: what a rejected frame
  // leaves in the slots must not leak into the next decode.
  MsgGen gen(34);
  std::vector<Message> scratch;
  Rng junk_rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(junk_rng.next_below(200));
    for (auto& b : junk) b = static_cast<uint8_t>(junk_rng.next_below(256));
    try {
      (void)decode_frame_into(junk, scratch);
    } catch (const WireError&) {
    }
    expect_reencodes(gen.frame(), scratch);
    if (HasFatalFailure()) return;
  }
  MeasurementMsg m;
  m.flow_id = 1;
  m.fields = {1, 2, 3, 4};
  const auto frame = encode_frame(Message(m));
  Rng flip_rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    auto copy = frame;
    copy[flip_rng.next_below(copy.size())] ^=
        static_cast<uint8_t>(1u << flip_rng.next_below(8));
    try {
      (void)decode_frame_into(copy, scratch);
    } catch (const WireError&) {
    }
    expect_reencodes(gen.frame(), scratch);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ccp::ipc
