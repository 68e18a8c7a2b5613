// ccp_stats: attach to a running CCP process and print live telemetry.
//
// The target process runs a telemetry::StatsServer (ccp_sim --stats,
// examples/real_ipc with CCP_STATS_SOCK set, or any embedder). This tool
// connects over the stats unix socket and either streams a live-rate
// view (default), emits one snapshot as JSON/Prometheus text, or dumps
// the control-loop trace ring.
//
// Usage:
//   ccp_stats --socket /tmp/ccp_stats.sock             # live rates, 1s cadence
//   ccp_stats --socket PATH --interval 0.25            # faster refresh
//   ccp_stats --socket PATH --once                     # one table, then exit
//   ccp_stats --socket PATH --json                     # one JSON snapshot
//   ccp_stats --socket PATH --prom                     # Prometheus text format
//   ccp_stats --socket PATH --trace                    # dump the trace ring
//   ccp_stats --socket PATH --resilience               # fallback/fault/supervisor view
//   ccp_stats --socket PATH --table                    # flow-table view (live flows, churn)
//   ccp_stats --socket PATH --jit                      # native-execution (JIT) view
//   ccp_stats --socket PATH --profile                  # per-stage cycle profiler view
//   ccp_stats --socket PATH --loop                     # control-loop span latencies
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "telemetry/stats_server.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using ccp::telemetry::Snapshot;
using ccp::telemetry::StatsClient;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--interval SECS] [--once] [--json] "
               "[--prom] [--trace] [--resilience] [--table] "
               "[--jit] [--profile] [--loop]\n",
               argv0);
}

uint64_t counter_value(const Snapshot& s, const char* name) {
  const auto* c = s.counter(name);
  return c != nullptr ? c->value : 0;
}

/// Counter delta per second between two snapshots.
double rate(const Snapshot& prev, const Snapshot& cur, const char* name) {
  const double dt_secs =
      static_cast<double>(cur.wall_ns - prev.wall_ns) / 1e9;
  if (dt_secs <= 0) return 0.0;
  const uint64_t a = counter_value(prev, name);
  const uint64_t b = counter_value(cur, name);
  return b >= a ? static_cast<double>(b - a) / dt_secs : 0.0;
}

void print_live_header() {
  std::printf("%12s %12s %12s %12s %10s %10s %11s %10s %8s\n", "acks/s",
              "reports/s", "suppr/s", "urgents/s", "rep_p50us", "rep_p99us",
              "rep_p999us", "vm_p50ns", "flows");
}

void print_live_row(const Snapshot& prev, const Snapshot& cur) {
  const auto* rep = cur.histogram("ccp_report_latency_ns");
  const auto* vm = cur.histogram("ccp_vm_exec_ns");
  const auto* flows = cur.gauge("ccp_active_flows");
  std::printf("%12.0f %12.0f %12.0f %12.0f %10.1f %10.1f %11.1f %10.0f %8" PRId64
              "\n",
              rate(prev, cur, "ccp_dp_acks_total"),
              rate(prev, cur, "ccp_dp_reports_total"),
              rate(prev, cur, "ccp_dp_reports_suppressed_total"),
              rate(prev, cur, "ccp_dp_urgents_total"),
              rep != nullptr ? rep->quantile(0.5) / 1e3 : 0.0,
              rep != nullptr ? rep->quantile(0.99) / 1e3 : 0.0,
              rep != nullptr ? rep->quantile(0.999) / 1e3 : 0.0,
              vm != nullptr ? vm->quantile(0.5) : 0.0,
              flows != nullptr ? flows->value : 0);
  std::fflush(stdout);
}

int dump_trace(StatsClient& client) {
  auto events = client.trace();
  if (!events.has_value()) {
    std::fprintf(stderr, "ccp_stats: trace request failed\n");
    return 1;
  }
  std::printf("t_ns,flow,kind,value\n");
  for (const auto& ev : *events) {
    std::printf("%" PRIu64 ",%u,%s,%.17g\n", ev.t_ns, ev.flow,
                ccp::telemetry::trace_kind_name(ev.kind), ev.value);
  }
  return 0;
}

/// Flow-table view: live flows and churn tallies, summed over every
/// datapath in the process (docs/PERF.md "Million-flow scale").
/// rehash_steps counts bounded incremental-migration steps, so a rising
/// value under churn is normal — what matters is that it rises in small
/// increments, not bursts.
int dump_table(StatsClient& client) {
  auto snap = client.snapshot();
  if (!snap.has_value()) {
    std::fprintf(stderr, "ccp_stats: snapshot request failed\n");
    return 1;
  }
  const auto* flows = snap->gauge("ccp_active_flows");
  std::printf("flow table:\n");
  std::printf("  flows_live          %" PRId64 "\n",
              flows != nullptr ? flows->value : 0);
  std::printf("churn:\n");
  std::printf("  creates             %" PRIu64 "\n",
              counter_value(*snap, "ccp_flows_created_total"));
  std::printf("  closes              %" PRIu64 "\n",
              counter_value(*snap, "ccp_flows_closed_total"));
  std::printf("  rehash_steps        %" PRIu64 "\n",
              counter_value(*snap, "ccp_dp_flow_rehash_steps_total"));
  return 0;
}

/// Resilience view: fallback state, fault-injection tallies, and
/// supervisor reconnect history (docs/RESILIENCE.md). All of these are
/// cold-path counters, so one snapshot is enough — no rate view needed.
int dump_resilience(StatsClient& client) {
  auto snap = client.snapshot();
  if (!snap.has_value()) {
    std::fprintf(stderr, "ccp_stats: snapshot request failed\n");
    return 1;
  }
  const auto* in_fb = snap->gauge("ccp_flows_in_fallback");
  const auto* rec = snap->histogram("ccp_fallback_recovery_ns");
  std::printf("fallback:\n");
  std::printf("  flows_in_fallback   %" PRId64 "\n",
              in_fb != nullptr ? in_fb->value : 0);
  std::printf("  entries             %" PRIu64 "\n",
              counter_value(*snap, "ccp_dp_fallbacks_total"));
  std::printf("  recoveries          %" PRIu64 "\n",
              counter_value(*snap, "ccp_dp_fallback_recoveries_total"));
  if (rec != nullptr && rec->count > 0) {
    std::printf("  recovery_ms p50/p99 %.2f / %.2f\n",
                rec->quantile(0.5) / 1e6, rec->quantile(0.99) / 1e6);
  }
  std::printf("  flows_resynced_dp   %" PRIu64 "\n",
              counter_value(*snap, "ccp_dp_resync_flows_total"));
  std::printf("faults injected:\n");
  std::printf("  drops               %" PRIu64 "\n",
              counter_value(*snap, "ccp_fault_drops_total"));
  std::printf("  corruptions         %" PRIu64 "\n",
              counter_value(*snap, "ccp_fault_corruptions_total"));
  std::printf("  delays              %" PRIu64 "\n",
              counter_value(*snap, "ccp_fault_delays_total"));
  std::printf("  stalls              %" PRIu64 "\n",
              counter_value(*snap, "ccp_fault_stalls_total"));
  std::printf("  kills               %" PRIu64 "\n",
              counter_value(*snap, "ccp_fault_kills_total"));
  std::printf("  forced_ring_full    %" PRIu64 "\n",
              counter_value(*snap, "ccp_fault_forced_full_total"));
  std::printf("supervisor:\n");
  std::printf("  disconnects         %" PRIu64 "\n",
              counter_value(*snap, "ccp_sup_disconnects_total"));
  std::printf("  reconnect_attempts  %" PRIu64 "\n",
              counter_value(*snap, "ccp_sup_reconnect_attempts_total"));
  std::printf("  reconnects          %" PRIu64 "\n",
              counter_value(*snap, "ccp_sup_reconnects_total"));
  std::printf("  resyncs             %" PRIu64 "\n",
              counter_value(*snap, "ccp_sup_resyncs_total"));
  std::printf("  flows_resynced_agt  %" PRIu64 "\n",
              counter_value(*snap, "ccp_agent_flows_resynced_total"));
  return 0;
}

/// Native-execution view: how many programs compiled vs fell back to
/// the interpreter, resident code size, compile latency, per-fold
/// execution time for both engines side by side, and the Verify-mode
/// divergence count (which must read 0 on a healthy deployment). Also
/// reports program-cache residency/evictions since compiles are driven
/// by cache misses. See docs/PERF.md "Native execution (JIT)".
int dump_jit(StatsClient& client) {
  auto snap = client.snapshot();
  if (!snap.has_value()) {
    std::fprintf(stderr, "ccp_stats: snapshot request failed\n");
    return 1;
  }
  const uint64_t compiles = counter_value(*snap, "ccp_jit_compiles_total");
  const uint64_t fallbacks = counter_value(*snap, "ccp_jit_fallbacks_total");
  const auto* code_bytes = snap->gauge("ccp_jit_code_bytes");
  const auto* compile_ns = snap->histogram("ccp_jit_compile_ns");
  const auto* jit_ns = snap->histogram("ccp_jit_exec_ns");
  const auto* vm_ns = snap->histogram("ccp_vm_exec_ns");
  std::printf("native execution:\n");
  std::printf("  programs_compiled   %" PRIu64 "\n", compiles);
  std::printf("  interpreter_fallbk  %" PRIu64 "\n", fallbacks);
  std::printf("  code_bytes_live     %" PRId64 "\n",
              code_bytes != nullptr ? code_bytes->value : 0);
  if (compile_ns != nullptr && compile_ns->count > 0) {
    std::printf("  compile_us p50/p99  %.1f / %.1f\n",
                compile_ns->quantile(0.5) / 1e3,
                compile_ns->quantile(0.99) / 1e3);
  }
  std::printf("  verify_mismatches   %" PRIu64 "\n",
              counter_value(*snap, "ccp_jit_verify_mismatches_total"));
  std::printf("fold latency (sampled 1/1024):\n");
  std::printf("  jit_ns p50/p99      %.0f / %.0f\n",
              jit_ns != nullptr ? jit_ns->quantile(0.5) : 0.0,
              jit_ns != nullptr ? jit_ns->quantile(0.99) : 0.0);
  std::printf("  interp_ns p50/p99   %.0f / %.0f\n",
              vm_ns != nullptr ? vm_ns->quantile(0.5) : 0.0,
              vm_ns != nullptr ? vm_ns->quantile(0.99) : 0.0);
  const auto* resident = snap->gauge("ccp_lang_cache_programs");
  std::printf("program cache:\n");
  std::printf("  programs_resident   %" PRId64 "\n",
              resident != nullptr ? resident->value : 0);
  std::printf("  evictions           %" PRIu64 "\n",
              counter_value(*snap, "ccp_lang_cache_evictions_total"));
  return 0;
}

/// Cycle-profiler view: where sampled ACKs spend their time in the datapath
/// loop (docs/OBSERVABILITY.md "Cycle profiler"). Values are raw rdtsc
/// cycles; shares are relative to the total sampled cycles, so they show
/// the stage mix even without knowing the TSC frequency.
int dump_profile(StatsClient& client) {
  auto snap = client.snapshot();
  if (!snap.has_value()) {
    std::fprintf(stderr, "ccp_stats: snapshot request failed\n");
    return 1;
  }
  uint64_t cycles[ccp::telemetry::kProfStages] = {};
  uint64_t samples[ccp::telemetry::kProfStages] = {};
  uint64_t total_cycles = 0;
  for (size_t i = 0; i < ccp::telemetry::kProfStages; ++i) {
    char name[64];
    const char* stage = ccp::telemetry::prof_stage_name(
        static_cast<ccp::telemetry::ProfStage>(i));
    std::snprintf(name, sizeof(name), "ccp_prof_%s_cycles_total", stage);
    cycles[i] = counter_value(*snap, name);
    std::snprintf(name, sizeof(name), "ccp_prof_%s_samples_total", stage);
    samples[i] = counter_value(*snap, name);
    total_cycles += cycles[i];
  }
  if (total_cycles == 0) {
    std::printf("(no profiler samples recorded; set CCP_PROFILE_SAMPLE=N "
                "in the target process to enable 1-in-N sampling)\n");
    return 0;
  }
  std::printf("%-12s %16s %12s %12s %8s\n", "stage", "cycles", "samples",
              "cyc/sample", "share");
  for (size_t i = 0; i < ccp::telemetry::kProfStages; ++i) {
    if (samples[i] == 0 && cycles[i] == 0) continue;
    std::printf("%-12s %16" PRIu64 " %12" PRIu64 " %12.1f %7.1f%%\n",
                ccp::telemetry::prof_stage_name(
                    static_cast<ccp::telemetry::ProfStage>(i)),
                cycles[i], samples[i],
                samples[i] > 0
                    ? static_cast<double>(cycles[i]) /
                          static_cast<double>(samples[i])
                    : 0.0,
                100.0 * static_cast<double>(cycles[i]) /
                    static_cast<double>(total_cycles));
  }
  return 0;
}

/// Control-loop span view: end-to-end report->decide->apply latency and
/// its per-stage breakdown (docs/OBSERVABILITY.md "Control-loop spans").
int dump_loop(StatsClient& client) {
  auto snap = client.snapshot();
  if (!snap.has_value()) {
    std::fprintf(stderr, "ccp_stats: snapshot request failed\n");
    return 1;
  }
  static constexpr struct { const char* metric; const char* label; } kStages[] = {
      {"ccp_loop_emit_to_agent_ns", "emit_to_agent"},
      {"ccp_loop_agent_handler_ns", "agent_handler"},
      {"ccp_loop_agent_to_enqueue_ns", "agent_to_enqueue"},
      {"ccp_loop_enqueue_to_apply_ns", "enqueue_to_apply"},
      {"ccp_loop_total_ns", "total"},
  };
  bool any = false;
  std::printf("%-18s %10s %10s %10s %10s %10s\n", "stage", "count", "p50_us",
              "p90_us", "p99_us", "p99.9_us");
  for (const auto& st : kStages) {
    const auto* h = snap->histogram(st.metric);
    if (h == nullptr || h->count == 0) continue;
    any = true;
    std::printf("%-18s %10" PRIu64 " %10.1f %10.1f %10.1f %10.1f\n", st.label,
                h->count, h->quantile(0.5) / 1e3, h->quantile(0.9) / 1e3,
                h->quantile(0.99) / 1e3, h->quantile(0.999) / 1e3);
  }
  if (!any) {
    std::printf("(no completed spans recorded; spans need telemetry enabled "
                "and close at the datapath's command apply)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  double interval_secs = 1.0;
  bool once = false, json = false, prom = false, trace = false;
  bool resilience = false, table = false, jit = false, profile = false;
  bool loop = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") socket_path = next();
    else if (arg == "--interval") interval_secs = std::atof(next());
    else if (arg == "--once") once = true;
    else if (arg == "--json") json = true;
    else if (arg == "--prom") prom = true;
    else if (arg == "--trace") trace = true;
    else if (arg == "--resilience") resilience = true;
    else if (arg == "--table") table = true;
    else if (arg == "--jit") jit = true;
    else if (arg == "--profile") profile = true;
    else if (arg == "--loop") loop = true;
    else {
      usage(argv[0]);
      return 2;
    }
  }
  if (socket_path.empty()) {
    if (const char* env = std::getenv("CCP_STATS_SOCK")) socket_path = env;
  }
  if (socket_path.empty() || interval_secs <= 0) {
    usage(argv[0]);
    return 2;
  }

  auto client = StatsClient::connect(socket_path);
  if (client == nullptr) {
    std::fprintf(stderr, "ccp_stats: cannot connect to %s (is the process "
                         "running with a stats server?)\n",
                 socket_path.c_str());
    return 1;
  }

  if (trace) return dump_trace(*client);
  if (resilience) return dump_resilience(*client);
  if (table) return dump_table(*client);
  if (jit) return dump_jit(*client);
  if (profile) return dump_profile(*client);
  if (loop) return dump_loop(*client);

  if (json || prom) {
    auto snap = client->snapshot();
    if (!snap.has_value()) {
      std::fprintf(stderr, "ccp_stats: snapshot request failed\n");
      return 1;
    }
    const std::string text = json ? snap->to_json() : snap->to_prometheus();
    std::fwrite(text.data(), 1, text.size(), stdout);
    if (json) std::fputc('\n', stdout);
    return 0;
  }

  auto prev = client->snapshot();
  if (!prev.has_value()) {
    std::fprintf(stderr, "ccp_stats: snapshot request failed\n");
    return 1;
  }
  print_live_header();
  const auto delay = std::chrono::duration<double>(interval_secs);
  for (;;) {
    std::this_thread::sleep_for(delay);
    auto cur = client->snapshot();
    if (!cur.has_value()) {
      std::fprintf(stderr, "ccp_stats: peer went away\n");
      return once ? 1 : 0;
    }
    print_live_row(*prev, *cur);
    if (once) return 0;
    prev = std::move(cur);
  }
}
