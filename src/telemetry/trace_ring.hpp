// Lock-free control-loop event trace.
//
// A fixed-capacity SeqRing (seq_ring.hpp) of timestamped events, written
// from any thread with one fetch_add plus plain stores — no locks, no
// allocation. Enabled by telemetry::init_from_env() when
// CCP_TRACE_BUF=<capacity> is set, or programmatically via
// enable_trace(). Readers (dump(), the stats server) get a best-effort
// consistent copy that skips slots torn by a concurrent writer.
#pragma once

#include <cstddef>
#include <cstdint>

#include "telemetry/seq_ring.hpp"

namespace ccp::telemetry {

enum class TraceKind : uint16_t {
  FlowCreate = 1,
  FlowClose = 2,
  InstallSent = 3,
  InstallApplied = 4,
  Report = 5,
  Urgent = 6,
  SetCwnd = 7,
  SetRate = 8,
  Fallback = 9,
  Measurement = 10,
  FallbackExit = 11,  // flow recovered from safe mode (value = cwnd bytes)
  Resync = 12,        // flow summary replayed to a restarted agent
  JitCompile = 13,    // fold program JIT-compiled (value = compile ns,
                      // flow field = generated code size in bytes)
};

const char* trace_kind_name(TraceKind k) noexcept;

struct TraceEvent {
  uint64_t t_ns = 0;   // monotonic timestamp
  double value = 0.0;  // kind-specific payload (cwnd bytes, rate, seq, ...)
  uint32_t flow = 0;
  TraceKind kind = TraceKind::FlowCreate;
};

/// The control-loop event ring (seq_ring.hpp), with a record() that
/// takes the event's fields.
class TraceRing : public SeqRing<TraceEvent> {
 public:
  using SeqRing::SeqRing;
  using SeqRing::record;

  void record(TraceKind kind, uint32_t flow, double value, uint64_t t_ns) noexcept {
    record(TraceEvent{t_ns, value, flow, kind});
  }
};

/// Global ring, or nullptr when tracing is off. The pointer itself is a
/// relaxed atomic load, so the disabled cost is one load + branch.
TraceRing* trace_ring() noexcept;

/// Installs a global ring of the given capacity (replacing any previous
/// one). Not safe to call while writers are mid-record; intended for
/// startup / test setup.
void enable_trace(size_t capacity);
void disable_trace();

}  // namespace ccp::telemetry
