// Umbrella header for the runtime telemetry layer.
//
// Call sites do:
//
//   if (telemetry::enabled()) telemetry::metrics().dp_reports.inc();
//
// enabled() is one relaxed atomic load; with telemetry off the whole
// thing is a predictable not-taken branch. Recording never allocates
// (see metrics.hpp / histogram.hpp / trace_ring.hpp), which keeps the
// PR-1 zero-alloc hot-path guarantee intact — tests/hotpath_alloc_test.cc
// runs with telemetry switched on to prove it.
//
// Environment knobs (read by init_from_env):
//   CCP_TELEMETRY=off|0|false   disable recording (default: on)
//   CCP_TRACE_BUF=<n>           enable the control-loop trace ring with
//                               capacity n events (default: off)
//   CCP_SPAN_BUF=<n>            enable the completed-span ring with
//                               capacity n spans (default: off)
//   CCP_PROFILE_SAMPLE=<n>      enable the per-stage cycle profiler at
//                               1-in-n ACK sampling, n rounded up to a
//                               power of two (default: off)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "telemetry/histogram.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/spans.hpp"
#include "telemetry/trace_ring.hpp"

namespace ccp::telemetry {

namespace detail {
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Reads CCP_TELEMETRY / CCP_TRACE_BUF. Call once near startup (tools and
/// examples do); library code never reads the environment itself.
void init_from_env();

/// Monotonic nanoseconds; the single clock every histogram and trace
/// event in this subsystem uses.
inline uint64_t now_ns() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Upper bound on datapath shards with dedicated counter sets. Shards
/// beyond this share the last set (modulo), so nothing breaks — the
/// per-shard breakdown just aliases.
inline constexpr size_t kMaxShards = 16;

/// Per-shard datapath counters, registered as ccp_shard<i>_<name>_total.
/// Each shard's worker thread is the only writer of its set on the hot
/// path (lane ring-full drops are counted by the lane wiring, which also
/// runs on the owning worker), so these are effectively single-writer —
/// the sharded Counter cells make cross-thread reads safe regardless.
struct ShardStats {
  Counter acks;       // ACKs folded on this shard (per report, by delta)
  Counter reports;    // measurement reports emitted by this shard
  Counter urgents;    // urgent events emitted by this shard
  Counter ring_full;  // frames dropped: this shard's IPC lane was full
  Counter commands;   // agent commands applied at quiescent points
  Gauge flows;        // live flows resident in this shard's FlowTable
};

/// Every runtime metric, one member each, registered by name in
/// MetricsRegistry::global() at construction. Access via metrics().
struct Metrics {
  // -- datapath --
  Counter dp_acks;             // ACKs measured (exact; per-flow counted,
                               // drained at report/tick/close)
  Counter dp_report_batches;   // report batches emitted (one per report msg)
  Counter dp_loss_events;      // loss notifications into the fold machine
  Counter dp_timeouts;         // timeout events
  Counter dp_reports;          // measurement reports emitted
  Counter dp_urgents;          // urgent events emitted
  Counter dp_installs;         // programs installed (compile + swap)
  Counter dp_install_errors;   // installs rejected (compile/validate failure)
  Counter dp_decode_errors;    // malformed frames from the agent
  Counter dp_frames_sent;      // frames handed to the transport
  Counter dp_frames_received;  // frames drained from the transport
  Counter dp_fallbacks;        // watchdog fallback-program activations
  Counter dp_fallback_recoveries;  // flows that left fallback (agent back)
  Counter dp_resync_flows;     // flow summaries replayed on agent resync
  Counter flows_created;
  Counter flows_closed;

  // -- flow table (datapath/flow_table.hpp) --
  Counter dp_flow_creates;       // FlowTable creates (fresh + recycled slots)
  Counter dp_flow_closes;        // FlowTable closes (slots parked)
  Counter dp_flow_rehash_steps;  // bounded incremental-rehash migration steps

  // Unexported and never incremented: e2ebench/workloads.cc still reads
  // these two (datapath.batch.simd_share) until the benchmark retires them.
  Counter dp_batch_simd_lanes;
  Counter dp_batch_scalar_lanes;

  // -- ipc / transports --
  Counter ipc_ring_full;       // shm ring rejected a frame (backpressure)
  Counter ipc_send_failures;   // socket/inproc send failures

  // -- resilience: fault injection (test/chaos harness activity) --
  Counter fault_drops;         // frames silently dropped by the injector
  Counter fault_corruptions;   // frames bit-flipped by the injector
  Counter fault_delays;        // frames held back by the injector
  Counter fault_stalls;        // receive-side stalls begun
  Counter fault_kills;         // forced transport kills
  Counter fault_forced_full;   // sends rejected by forced ring-full bursts

  // -- resilience: agent supervisor --
  Counter sup_disconnects;     // peer-loss events observed
  Counter sup_reconnect_attempts;  // connect attempts (incl. failures)
  Counter sup_reconnects;      // successful reconnections
  Counter sup_resyncs;         // resync requests issued after reconnect

  // -- agent --
  Counter agent_measurements;  // OnMeasurement invocations
  Counter agent_urgents;       // OnUrgent invocations
  Counter agent_installs;      // Install requests issued
  Counter agent_decode_errors; // malformed frames from the datapath
  Counter agent_unknown_flow;  // messages for flows the agent doesn't know
  Counter agent_flows_resynced;  // flows rebuilt from replayed summaries

  // -- fold-program JIT (src/lang/jit/) --
  Counter jit_compiles;           // fold programs lowered to native code
  Counter jit_fallbacks;          // programs latched onto the interpreter
  Counter jit_verify_mismatches;  // Verify-mode engine divergences (should be 0)

  // -- program cache (lang::compile_text_shared) --
  Counter lang_cache_evictions;   // LRU evictions under algorithm churn

  Gauge active_flows;          // datapath-side live flow count
  Gauge dp_flows;              // flows resident across every FlowTable
  Gauge dp_table_load_factor;  // flow-index load factor, basis points
                               // (live/buckets * 10000; per-process max
                               // across tables when sharded)
  Gauge ipc_ring_used_bytes;   // shm ring occupancy at last send
  Gauge flows_in_fallback;     // flows currently on the safe-mode program
  Gauge jit_code_bytes;        // live JIT code cache size, bytes
  Gauge lang_cache_programs;   // programs resident in the compile cache

  Histogram report_latency_ns;           // report emit -> OnMeasurement
  Histogram urgent_latency_ns;           // urgent emit -> OnUrgent
  Histogram install_rtt_ns;              // Install sent -> first report under it
  Histogram install_apply_ns;            // datapath compile+swap duration
  Histogram agent_measurement_handler_ns;
  Histogram agent_urgent_handler_ns;
  Histogram vm_exec_ns;                  // sampled 1/1024 eval_block duration
  Histogram jit_compile_ns;              // bytecode -> native lowering duration
  Histogram jit_exec_ns;                 // sampled 1/1024 native fold duration
  Histogram ipc_drain_batch;             // frames per transport drain
  Histogram dp_flush_batch;              // messages per datapath batch flush
  Histogram fallback_recovery_ns;        // fallback entry -> agent recovery

  // -- control-loop spans (spans.hpp): one record per closed span; the
  //    stages telescope, so loop_total == sum of the four stages --
  Histogram loop_emit_to_agent_ns;     // report emit -> agent handler entry
  Histogram loop_agent_handler_ns;     // handler entry -> command sent
  Histogram loop_agent_to_enqueue_ns;  // command sent -> datapath enqueue
  Histogram loop_enqueue_to_apply_ns;  // enqueue -> quiescent-point apply
  Histogram loop_total_ns;             // report emit -> command applied

  // -- per-stage cycle profiler (profiler.hpp); indexed by ProfStage --
  Counter prof_cycles[kProfStages];   // cycles attributed to the stage
  Counter prof_samples[kProfStages];  // sampled observations of the stage

  // -- sharded datapath (per-shard breakdown; aggregate counters above
  //    keep counting too) --
  ShardStats shard[kMaxShards];

  Metrics();
  ~Metrics();
};

/// The global metric set (function-local static; first call registers).
Metrics& metrics();

/// The counter set for shard `index` (modulo kMaxShards).
inline ShardStats& shard_stats(size_t index) {
  return metrics().shard[index % kMaxShards];
}

/// Records a control-loop trace event iff the trace ring is enabled.
inline void trace(TraceKind kind, uint32_t flow, double value) noexcept {
  if (TraceRing* ring = trace_ring()) {
    ring->record(kind, flow, value, now_ns());
  }
}

/// Closes `stamp`'s span with apply time = now. The guard lives here so
/// command-apply sites don't pay the clock read when no span is
/// attached (span ids are only allocated while spans_active()).
inline void close_span_now(const SpanStamp& stamp, uint64_t enqueue_ns,
                           uint32_t flow, SpanCommand cmd) noexcept {
  if (stamp.span_id != 0) close_span(stamp, enqueue_ns, now_ns(), flow, cmd);
}

}  // namespace ccp::telemetry
