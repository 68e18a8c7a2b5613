// Control-loop span tracing: the full report -> decide -> install ->
// apply round trip as one causally-linked span.
//
// The datapath stamps each measurement report with a monotonically
// sequenced span id; the id (plus the timestamps accumulated so far)
// rides the IPC wire format through the agent handler and onto any
// resulting Install/UpdateFields/DirectControl command, and the span
// closes where that command takes effect: synchronously, when the
// datapath handles the command. Closing a span feeds the five
// ccp_loop_*_ns stage histograms and (when enabled) appends a
// CompletedSpan to a lock-free ring that tools/ccp_trace_export turns
// into Perfetto-loadable JSON.
//
// Cost model: span ids are allocated per *report* (per-RTT cadence, not
// per ACK), the stamp travels by value inside messages that already
// exist, and close_span() runs at command-apply time — all of it off
// the per-ACK hot path. Ids are only allocated while span recording is
// active (spans_active()): with recording off every stamp stays zero
// and the whole layer — id allocation, hop stamping, the close-time
// loop-stage histograms, the ring — is a no-op, so span tracing bills
// to the flight-recorder tier it belongs to, not to baseline telemetry.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ccp::telemetry {

/// The span context carried on the wire. A zero span_id means "no span
/// attached" (telemetry off, or a sender predating the field — decoders
/// default it to zero). Timestamps are telemetry::now_ns() values; each
/// hop fills in its own and forwards the rest untouched.
struct SpanStamp {
  uint64_t span_id = 0;        // 0 = no span
  uint64_t emit_ns = 0;        // datapath: report/urgent emitted
  uint64_t agent_recv_ns = 0;  // agent: handler entry
  uint64_t agent_send_ns = 0;  // agent: command handed to the transport
};

/// Allocates the next span id (process-global, starts at 1, one relaxed
/// fetch_add). Called once per emitted report when telemetry is on.
uint64_t next_span_id() noexcept;

/// Which command closed the span (exporter track naming).
enum class SpanCommand : uint8_t { Install = 1, UpdateFields = 2, DirectControl = 3 };

const char* span_command_name(SpanCommand c) noexcept;

/// One closed control-loop round trip.
struct CompletedSpan {
  uint64_t span_id = 0;
  uint64_t emit_ns = 0;
  uint64_t agent_recv_ns = 0;
  uint64_t agent_send_ns = 0;
  uint64_t enqueue_ns = 0;  // datapath decoded the command
  uint64_t apply_ns = 0;    // command took effect on the flow
  uint32_t flow = 0;
  SpanCommand command = SpanCommand::DirectControl;
};

/// Lock-free ring of completed spans, same seqlock-lite scheme as
/// TraceRing (trace_ring.hpp): one fetch_add ticket, payload as relaxed
/// atomics, seq published last so readers can detect torn slots.
class SpanRing {
 public:
  /// Capacity is rounded up to a power of two (min 64).
  explicit SpanRing(size_t capacity);

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  void record(const CompletedSpan& sp) noexcept {
    const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket & mask_];
    s.seq.store(0, std::memory_order_relaxed);
    s.span_id.store(sp.span_id, std::memory_order_relaxed);
    s.emit_ns.store(sp.emit_ns, std::memory_order_relaxed);
    s.agent_recv_ns.store(sp.agent_recv_ns, std::memory_order_relaxed);
    s.agent_send_ns.store(sp.agent_send_ns, std::memory_order_relaxed);
    s.enqueue_ns.store(sp.enqueue_ns, std::memory_order_relaxed);
    s.apply_ns.store(sp.apply_ns, std::memory_order_relaxed);
    s.flow.store(sp.flow, std::memory_order_relaxed);
    s.command.store(static_cast<uint8_t>(sp.command), std::memory_order_relaxed);
    s.seq.store(ticket + 1, std::memory_order_release);
  }

  /// Copies valid spans, oldest first; slots overwritten or mid-write
  /// during the scan are skipped (same contract as TraceRing::dump).
  std::vector<CompletedSpan> dump() const;

  size_t capacity() const noexcept { return mask_ + 1; }
  uint64_t recorded() const noexcept { return head_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = empty/being-written, else ticket+1
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> emit_ns{0};
    std::atomic<uint64_t> agent_recv_ns{0};
    std::atomic<uint64_t> agent_send_ns{0};
    std::atomic<uint64_t> enqueue_ns{0};
    std::atomic<uint64_t> apply_ns{0};
    std::atomic<uint32_t> flow{0};
    std::atomic<uint8_t> command{0};
  };

  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
};

/// Global span ring, or nullptr when off (one relaxed load).
SpanRing* span_ring() noexcept;

/// True while span recording is enabled. Span-id allocation keys off
/// this: emitters attach ids (and hops pay their clock reads) only
/// while someone is actually recording the loop.
inline bool spans_active() noexcept { return span_ring() != nullptr; }

/// Installs / removes the global ring. Startup / test setup only, like
/// enable_trace(); CCP_SPAN_BUF=<n> does it from init_from_env().
void enable_spans(size_t capacity);
void disable_spans();

/// Closes a span: records the five ccp_loop_*_ns stage histograms and
/// appends to the span ring when one is enabled. A zero span_id is a
/// cheap no-op, so call sites don't need their own guard. Stages whose
/// endpoints are missing (a hop didn't stamp) are skipped rather than
/// recorded as garbage.
void close_span(const SpanStamp& stamp, uint64_t enqueue_ns, uint64_t apply_ns,
                uint32_t flow, SpanCommand cmd) noexcept;

}  // namespace ccp::telemetry
