#include "telemetry/trace_ring.hpp"

namespace ccp::telemetry {

const char* trace_kind_name(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::FlowCreate: return "flow_create";
    case TraceKind::FlowClose: return "flow_close";
    case TraceKind::InstallSent: return "install_sent";
    case TraceKind::InstallApplied: return "install_applied";
    case TraceKind::Report: return "report";
    case TraceKind::Urgent: return "urgent";
    case TraceKind::SetCwnd: return "set_cwnd";
    case TraceKind::SetRate: return "set_rate";
    case TraceKind::Fallback: return "fallback";
    case TraceKind::Measurement: return "measurement";
    case TraceKind::FallbackExit: return "fallback_exit";
    case TraceKind::Resync: return "resync";
    case TraceKind::JitCompile: return "jit_compile";
  }
  return "unknown";
}

namespace {
GlobalRing<TraceRing> g_trace;
}  // namespace

TraceRing* trace_ring() noexcept { return g_trace.get(); }
void enable_trace(size_t capacity) { g_trace.enable(capacity); }
void disable_trace() { g_trace.disable(); }

}  // namespace ccp::telemetry
