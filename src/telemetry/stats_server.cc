#include "telemetry/stats_server.hpp"

#include <utility>

#include "ipc/transport.hpp"
#include "ipc/wire.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"
#include "util/time.hpp"

namespace ccp::telemetry {

void encode_snapshot(ipc::Encoder& enc, const Snapshot& snap) {
  enc.u64(snap.wall_ns);
  enc.u32(static_cast<uint32_t>(snap.counters.size()));
  for (const CounterSample& c : snap.counters) {
    enc.str(c.name);
    enc.u64(c.value);
  }
  enc.u32(static_cast<uint32_t>(snap.gauges.size()));
  for (const GaugeSample& g : snap.gauges) {
    enc.str(g.name);
    enc.u64(static_cast<uint64_t>(g.value));  // sign round-trips via cast
  }
  enc.u32(static_cast<uint32_t>(snap.histograms.size()));
  for (const HistogramSample& h : snap.histograms) {
    enc.str(h.name);
    enc.u64(h.count);
    enc.u64(h.sum);
    enc.u32(static_cast<uint32_t>(h.buckets.size()));
    for (const HistogramBucket& b : h.buckets) {
      enc.u64(b.upper);
      enc.u64(b.count);
    }
  }
}

Snapshot decode_snapshot(ipc::Decoder& dec) {
  Snapshot snap;
  snap.wall_ns = dec.u64();
  const uint32_t nc = dec.u32();
  dec.need_items(nc, 12);  // name length + value
  snap.counters.reserve(nc);
  for (uint32_t i = 0; i < nc; ++i) {
    CounterSample c;
    c.name = dec.str();
    c.value = dec.u64();
    snap.counters.push_back(std::move(c));
  }
  const uint32_t ng = dec.u32();
  dec.need_items(ng, 12);
  snap.gauges.reserve(ng);
  for (uint32_t i = 0; i < ng; ++i) {
    GaugeSample g;
    g.name = dec.str();
    g.value = static_cast<int64_t>(dec.u64());
    snap.gauges.push_back(std::move(g));
  }
  const uint32_t nh = dec.u32();
  dec.need_items(nh, 24);  // name length + count + sum + bucket count
  snap.histograms.reserve(nh);
  for (uint32_t i = 0; i < nh; ++i) {
    HistogramSample h;
    h.name = dec.str();
    h.count = dec.u64();
    h.sum = dec.u64();
    const uint32_t nb = dec.u32();
    dec.need_items(nb, 16);
    h.buckets.reserve(nb);
    for (uint32_t b = 0; b < nb; ++b) {
      const uint64_t upper = dec.u64();
      const uint64_t count = dec.u64();
      h.buckets.push_back(HistogramBucket{upper, count});
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

namespace {

// Seqpacket datagrams are bounded by the socket buffer; chunk trace
// replies so one reply never exceeds ~100 KB.
constexpr size_t kTraceChunk = 4096;

void send_trace(ipc::Transport& conn, ipc::Encoder& enc) {
  std::vector<TraceEvent> events;
  if (TraceRing* ring = trace_ring()) events = ring->dump();
  size_t off = 0;
  while (off < events.size()) {
    const size_t n = std::min(kTraceChunk, events.size() - off);
    enc.clear();
    enc.u32(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      const TraceEvent& ev = events[off + i];
      enc.u64(ev.t_ns);
      enc.f64(ev.value);
      enc.u32(ev.flow);
      enc.u16(static_cast<uint16_t>(ev.kind));
    }
    if (!conn.send_frame(enc.buffer())) return;
    off += n;
  }
  // Unconditional zero-count terminator so the client always knows when
  // the dump is complete (even an exactly-chunk-sized final batch).
  enc.clear();
  enc.u32(0);
  conn.send_frame(enc.buffer());
}

void send_spans(ipc::Transport& conn, ipc::Encoder& enc) {
  std::vector<CompletedSpan> spans;
  if (SpanRing* ring = span_ring()) spans = ring->dump();
  size_t off = 0;
  while (off < spans.size()) {
    const size_t n = std::min(kTraceChunk, spans.size() - off);
    enc.clear();
    enc.u32(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      const CompletedSpan& sp = spans[off + i];
      enc.u64(sp.span_id);
      enc.u64(sp.emit_ns);
      enc.u64(sp.agent_recv_ns);
      enc.u64(sp.agent_send_ns);
      enc.u64(sp.enqueue_ns);
      enc.u64(sp.apply_ns);
      enc.u32(sp.flow);
      enc.u8(static_cast<uint8_t>(sp.command));
    }
    if (!conn.send_frame(enc.buffer())) return;
    off += n;
  }
  enc.clear();
  enc.u32(0);
  conn.send_frame(enc.buffer());
}

}  // namespace

class StatsServerImpl {
 public:
  explicit StatsServerImpl(const std::string& path) : listener_(path) {}
  ipc::UnixListener listener_;
};

StatsServer::StatsServer(std::string socket_path)
    : path_(std::move(socket_path)),
      impl_(std::make_unique<StatsServerImpl>(path_)) {
  thread_ = std::thread([this] { run(); });
}

StatsServer::~StatsServer() { stop(); }

void StatsServer::stop() {
  if (stop_.exchange(true)) return;
  impl_->listener_.close();
  if (thread_.joinable()) thread_.join();
}

void StatsServer::run() {
  ipc::Encoder enc;
  while (!stop_.load(std::memory_order_relaxed)) {
    auto conn = impl_->listener_.accept(Duration::from_millis(200));
    if (!conn) continue;
    // Serve this client until it disconnects; attaches are rare and
    // short-lived, so one-at-a-time is fine.
    while (!stop_.load(std::memory_order_relaxed)) {
      auto req = conn->recv_frame(Duration::from_millis(200));
      if (!req.has_value()) {
        if (conn->closed()) break;
        continue;
      }
      if (req->empty()) continue;
      const uint8_t kind = (*req)[0];
      if (kind == kStatsReqSnapshot) {
        enc.clear();
        encode_snapshot(enc, MetricsRegistry::global().snapshot());
        if (!conn->send_frame(enc.buffer())) break;
      } else if (kind == kStatsReqTrace) {
        send_trace(*conn, enc);
      } else if (kind == kStatsReqSpans) {
        send_spans(*conn, enc);
      } else {
        CCP_WARN("stats server: unknown request kind %u", unsigned{kind});
      }
    }
  }
}

class StatsClientImpl {
 public:
  explicit StatsClientImpl(std::unique_ptr<ipc::Transport> conn)
      : conn_(std::move(conn)) {}
  std::unique_ptr<ipc::Transport> conn_;
  ipc::Encoder enc_;
};

StatsClient::StatsClient(std::unique_ptr<StatsClientImpl> impl)
    : impl_(std::move(impl)) {}

StatsClient::~StatsClient() = default;

std::unique_ptr<StatsClient> StatsClient::connect(const std::string& socket_path) {
  auto conn = ipc::unix_connect(socket_path);
  if (!conn) return nullptr;
  return std::unique_ptr<StatsClient>(
      new StatsClient(std::make_unique<StatsClientImpl>(std::move(conn))));
}

std::optional<Snapshot> StatsClient::snapshot() {
  impl_->enc_.clear();
  impl_->enc_.u8(kStatsReqSnapshot);
  if (!impl_->conn_->send_frame(impl_->enc_.buffer())) return std::nullopt;
  auto reply = impl_->conn_->recv_frame(Duration::from_millis(2000));
  if (!reply.has_value()) return std::nullopt;
  try {
    ipc::Decoder dec(*reply);
    return decode_snapshot(dec);
  } catch (const ipc::WireError& e) {
    CCP_WARN("stats client: bad snapshot reply: %s", e.what());
    return std::nullopt;
  }
}

std::optional<std::vector<TraceEvent>> StatsClient::trace() {
  impl_->enc_.clear();
  impl_->enc_.u8(kStatsReqTrace);
  if (!impl_->conn_->send_frame(impl_->enc_.buffer())) return std::nullopt;
  std::vector<TraceEvent> out;
  for (;;) {
    auto reply = impl_->conn_->recv_frame(Duration::from_millis(2000));
    if (!reply.has_value()) return std::nullopt;
    try {
      ipc::Decoder dec(*reply);
      const uint32_t n = dec.u32();
      if (n == 0) return out;
      for (uint32_t i = 0; i < n; ++i) {
        TraceEvent ev;
        ev.t_ns = dec.u64();
        ev.value = dec.f64();
        ev.flow = dec.u32();
        ev.kind = static_cast<TraceKind>(dec.u16());
        out.push_back(ev);
      }
    } catch (const ipc::WireError& e) {
      CCP_WARN("stats client: bad trace reply: %s", e.what());
      return std::nullopt;
    }
  }
}

std::optional<std::vector<CompletedSpan>> StatsClient::spans() {
  impl_->enc_.clear();
  impl_->enc_.u8(kStatsReqSpans);
  if (!impl_->conn_->send_frame(impl_->enc_.buffer())) return std::nullopt;
  std::vector<CompletedSpan> out;
  for (;;) {
    auto reply = impl_->conn_->recv_frame(Duration::from_millis(2000));
    if (!reply.has_value()) return std::nullopt;
    try {
      ipc::Decoder dec(*reply);
      const uint32_t n = dec.u32();
      if (n == 0) return out;
      for (uint32_t i = 0; i < n; ++i) {
        CompletedSpan sp;
        sp.span_id = dec.u64();
        sp.emit_ns = dec.u64();
        sp.agent_recv_ns = dec.u64();
        sp.agent_send_ns = dec.u64();
        sp.enqueue_ns = dec.u64();
        sp.apply_ns = dec.u64();
        sp.flow = dec.u32();
        sp.command = static_cast<SpanCommand>(dec.u8());
        out.push_back(sp);
      }
    } catch (const ipc::WireError& e) {
      CCP_WARN("stats client: bad spans reply: %s", e.what());
      return std::nullopt;
    }
  }
}

}  // namespace ccp::telemetry
