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

#include <cstddef>
#include <cstdint>

#include "telemetry/seq_ring.hpp"

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

/// Lock-free ring of completed spans (seq_ring.hpp).
using SpanRing = SeqRing<CompletedSpan>;

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
