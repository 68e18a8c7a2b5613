#include "telemetry/spans.hpp"

#include <atomic>

#include "telemetry/telemetry.hpp"

namespace ccp::telemetry {

namespace {
std::atomic<uint64_t> g_next_span_id{1};
GlobalRing<SpanRing> g_spans;

// Stage recording guards against missing stamps (a hop that never ran)
// and clock oddities; a span with holes contributes only the stages it
// actually measured. A genuine zero-length stage still records.
inline void record_stage(Histogram& h, uint64_t from, uint64_t to) noexcept {
  if (from != 0 && to >= from) h.record(to - from);
}
}  // namespace

uint64_t next_span_id() noexcept {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

const char* span_command_name(SpanCommand c) noexcept {
  switch (c) {
    case SpanCommand::Install: return "install";
    case SpanCommand::UpdateFields: return "update_fields";
    case SpanCommand::DirectControl: return "direct_control";
  }
  return "unknown";
}

SpanRing* span_ring() noexcept { return g_spans.get(); }
void enable_spans(size_t capacity) { g_spans.enable(capacity); }
void disable_spans() { g_spans.disable(); }

void close_span(const SpanStamp& stamp, uint64_t enqueue_ns, uint64_t apply_ns,
                uint32_t flow, SpanCommand cmd) noexcept {
  if (stamp.span_id == 0) return;
  Metrics& m = metrics();
  // The stages telescope out of five clock reads along the loop, so
  // total == sum(stages) exactly whenever every hop stamped.
  record_stage(m.loop_emit_to_agent_ns, stamp.emit_ns, stamp.agent_recv_ns);
  record_stage(m.loop_agent_handler_ns, stamp.agent_recv_ns, stamp.agent_send_ns);
  record_stage(m.loop_agent_to_enqueue_ns, stamp.agent_send_ns, enqueue_ns);
  record_stage(m.loop_enqueue_to_apply_ns, enqueue_ns, apply_ns);
  record_stage(m.loop_total_ns, stamp.emit_ns, apply_ns);
  if (SpanRing* ring = span_ring()) {
    CompletedSpan sp;
    sp.span_id = stamp.span_id;
    sp.emit_ns = stamp.emit_ns;
    sp.agent_recv_ns = stamp.agent_recv_ns;
    sp.agent_send_ns = stamp.agent_send_ns;
    sp.enqueue_ns = enqueue_ns;
    sp.apply_ns = apply_ns;
    sp.flow = flow;
    sp.command = cmd;
    ring->record(sp);
  }
}

}  // namespace ccp::telemetry
