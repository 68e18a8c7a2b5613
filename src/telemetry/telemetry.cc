#include "telemetry/telemetry.hpp"

#include <cstdlib>
#include <cstring>

namespace ccp::telemetry {

Metrics::Metrics() {
  MetricsRegistry& r = MetricsRegistry::global();
  r.add("ccp_dp_acks_total", &dp_acks);
  r.add("ccp_dp_report_batches_total", &dp_report_batches);
  r.add("ccp_dp_loss_events_total", &dp_loss_events);
  r.add("ccp_dp_timeouts_total", &dp_timeouts);
  r.add("ccp_dp_reports_total", &dp_reports);
  r.add("ccp_dp_urgents_total", &dp_urgents);
  r.add("ccp_dp_installs_total", &dp_installs);
  r.add("ccp_dp_install_errors_total", &dp_install_errors);
  r.add("ccp_dp_decode_errors_total", &dp_decode_errors);
  r.add("ccp_dp_frames_sent_total", &dp_frames_sent);
  r.add("ccp_dp_frames_received_total", &dp_frames_received);
  r.add("ccp_dp_fallbacks_total", &dp_fallbacks);
  r.add("ccp_dp_fallback_recoveries_total", &dp_fallback_recoveries);
  r.add("ccp_dp_resync_flows_total", &dp_resync_flows);
  r.add("ccp_flows_created_total", &flows_created);
  r.add("ccp_flows_closed_total", &flows_closed);
  r.add("ccp_dp_flow_creates_total", &dp_flow_creates);
  r.add("ccp_dp_flow_closes_total", &dp_flow_closes);
  r.add("ccp_dp_flow_rehash_steps_total", &dp_flow_rehash_steps);

  r.add("ccp_ipc_ring_full_total", &ipc_ring_full);
  r.add("ccp_ipc_send_failures_total", &ipc_send_failures);

  r.add("ccp_fault_drops_total", &fault_drops);
  r.add("ccp_fault_corruptions_total", &fault_corruptions);
  r.add("ccp_fault_delays_total", &fault_delays);
  r.add("ccp_fault_stalls_total", &fault_stalls);
  r.add("ccp_fault_kills_total", &fault_kills);
  r.add("ccp_fault_forced_full_total", &fault_forced_full);

  r.add("ccp_sup_disconnects_total", &sup_disconnects);
  r.add("ccp_sup_reconnect_attempts_total", &sup_reconnect_attempts);
  r.add("ccp_sup_reconnects_total", &sup_reconnects);
  r.add("ccp_sup_resyncs_total", &sup_resyncs);

  r.add("ccp_agent_measurements_total", &agent_measurements);
  r.add("ccp_agent_urgents_total", &agent_urgents);
  r.add("ccp_agent_installs_total", &agent_installs);
  r.add("ccp_agent_decode_errors_total", &agent_decode_errors);
  r.add("ccp_agent_unknown_flow_total", &agent_unknown_flow);
  r.add("ccp_agent_flows_resynced_total", &agent_flows_resynced);

  r.add("ccp_jit_compiles_total", &jit_compiles);
  r.add("ccp_jit_fallbacks_total", &jit_fallbacks);
  r.add("ccp_jit_verify_mismatches_total", &jit_verify_mismatches);
  r.add("ccp_lang_cache_evictions_total", &lang_cache_evictions);

  r.add("ccp_active_flows", &active_flows);
  r.add("ccp_dp_flows", &dp_flows);
  r.add("ccp_dp_table_load_factor", &dp_table_load_factor);
  r.add("ccp_ipc_ring_used_bytes", &ipc_ring_used_bytes);
  r.add("ccp_flows_in_fallback", &flows_in_fallback);
  r.add("ccp_jit_code_bytes", &jit_code_bytes);
  r.add("ccp_lang_cache_programs", &lang_cache_programs);

  for (size_t i = 0; i < kMaxShards; ++i) {
    const std::string prefix = "ccp_shard" + std::to_string(i) + "_";
    r.add(prefix + "acks_total", &shard[i].acks);
    r.add(prefix + "reports_total", &shard[i].reports);
    r.add(prefix + "urgents_total", &shard[i].urgents);
    r.add(prefix + "ring_full_total", &shard[i].ring_full);
    r.add(prefix + "commands_total", &shard[i].commands);
    r.add(prefix + "flows", &shard[i].flows);
  }

  r.add("ccp_report_latency_ns", &report_latency_ns);
  r.add("ccp_urgent_latency_ns", &urgent_latency_ns);
  r.add("ccp_install_rtt_ns", &install_rtt_ns);
  r.add("ccp_install_apply_ns", &install_apply_ns);
  r.add("ccp_agent_measurement_handler_ns", &agent_measurement_handler_ns);
  r.add("ccp_agent_urgent_handler_ns", &agent_urgent_handler_ns);
  r.add("ccp_vm_exec_ns", &vm_exec_ns);
  r.add("ccp_jit_compile_ns", &jit_compile_ns);
  r.add("ccp_jit_exec_ns", &jit_exec_ns);
  r.add("ccp_ipc_drain_batch", &ipc_drain_batch);
  r.add("ccp_dp_flush_batch", &dp_flush_batch);
  r.add("ccp_fallback_recovery_ns", &fallback_recovery_ns);

  r.add("ccp_loop_emit_to_agent_ns", &loop_emit_to_agent_ns);
  r.add("ccp_loop_agent_handler_ns", &loop_agent_handler_ns);
  r.add("ccp_loop_agent_to_enqueue_ns", &loop_agent_to_enqueue_ns);
  r.add("ccp_loop_enqueue_to_apply_ns", &loop_enqueue_to_apply_ns);
  r.add("ccp_loop_total_ns", &loop_total_ns);

  for (size_t i = 0; i < kProfStages; ++i) {
    const std::string stage = prof_stage_name(static_cast<ProfStage>(i));
    r.add("ccp_prof_" + stage + "_cycles_total", &prof_cycles[i]);
    r.add("ccp_prof_" + stage + "_samples_total", &prof_samples[i]);
  }
}

Metrics::~Metrics() = default;

Metrics& metrics() {
  // Leaked on purpose: metrics outlive every thread that might still be
  // incrementing them during shutdown.
  static Metrics* m = new Metrics();
  return *m;
}

void init_from_env() {
  if (const char* v = std::getenv("CCP_TELEMETRY")) {
    if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
        std::strcmp(v, "false") == 0) {
      set_enabled(false);
    } else {
      set_enabled(true);
    }
  }
  if (const char* v = std::getenv("CCP_TRACE_BUF")) {
    const long n = std::strtol(v, nullptr, 10);
    if (n > 0) enable_trace(static_cast<size_t>(n));
  }
  if (const char* v = std::getenv("CCP_SPAN_BUF")) {
    const long n = std::strtol(v, nullptr, 10);
    if (n > 0) enable_spans(static_cast<size_t>(n));
  }
  if (const char* v = std::getenv("CCP_PROFILE_SAMPLE")) {
    const long n = std::strtol(v, nullptr, 10);
    if (n > 0) set_profile_sample(static_cast<uint32_t>(n));
  }
  // Touch the registry so exporters see every metric even before the
  // first event fires.
  (void)metrics();
}

}  // namespace ccp::telemetry
