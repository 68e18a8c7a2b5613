// The CCP agent: the user-space "glue" between congestion control
// algorithms and datapaths (§2). It demultiplexes datapath messages to
// per-flow algorithm instances, ships Install/UpdateFields/DirectControl
// commands back, and imposes host policy (per-connection rate/cwnd caps)
// on every decision an algorithm makes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "agent/algorithm.hpp"
#include "ipc/wire.hpp"
#include "util/flat_map.hpp"

namespace ccp::agent {

/// Host policy applied to all algorithm decisions (§2: "imposes policies
/// on the decisions of the congestion control algorithms, e.g.,
/// per-connection maximum transmission rates").
struct Policy {
  std::optional<double> max_rate_bps;
  std::optional<double> max_cwnd_bytes;
  std::optional<double> min_cwnd_bytes;
};

/// Rewrites every Rate/Cwnd control instruction of `prog` so the host
/// policy's caps travel with the program into the datapath.
void apply_policy(lang::Program& prog, const Policy& policy);

struct AgentConfig {
  std::string default_algorithm = "reno";
  Policy policy;
};

struct AgentStats {
  uint64_t flows_created = 0;
  uint64_t flows_closed = 0;
  uint64_t measurements = 0;
  uint64_t urgents = 0;
  uint64_t installs_sent = 0;
  uint64_t decode_errors = 0;
  uint64_t unknown_flow_msgs = 0;
  uint64_t unknown_algorithm = 0;
  uint64_t flows_resynced = 0;  // rebuilt from replayed FlowSummary msgs
  // Programs policy-rewritten, checked and printed: once per distinct
  // text while it stays cached, and on every AST install.
  uint64_t programs_prepared = 0;
};

class CcpAgent {
 public:
  /// Outgoing-frame callback; bytes are borrowed (copy to keep).
  using FrameTx = std::function<void(std::span<const uint8_t>)>;

  CcpAgent(AgentConfig config, FrameTx tx);
  ~CcpAgent();

  /// Registers an algorithm under `name`. Flows whose Create carries that
  /// name as alg_hint (or the configured default) use this factory.
  void register_algorithm(const std::string& name, AlgorithmFactory factory);

  /// Feeds one frame from the datapath. Malformed frames are dropped.
  void handle_frame(std::span<const uint8_t> frame);

  const AgentStats& stats() const { return stats_; }
  size_t num_flows() const { return flows_.size(); }

  /// Resync filter: accept replayed FlowSummary messages only when they
  /// echo `token` (the supervisor's connection generation). Summaries
  /// from a superseded request are dropped. Zero = accept any token.
  void expect_resync(uint64_t token) { expected_resync_token_ = token; }

  /// Algorithm instance for a flow (tests/introspection); null if absent.
  Algorithm* algorithm(ipc::FlowId id);

  /// Distinct program texts currently held prepared (introspection).
  size_t prepared_programs() const { return prepared_.size(); }

 private:
  class FlowEntry;
  struct PreparedProgram;
  using PreparedPtr = std::shared_ptr<const PreparedProgram>;

  /// Policy-rewrites, checks and prints `prog`; throws lang::ProgramError.
  PreparedPtr prepare(lang::Program prog);
  /// prepare(parse_program(text)), memoized on the exact text. Failures
  /// are not cached, so a bad text throws on every call.
  PreparedPtr prepare_text(std::string text);

  void on_create(const ipc::CreateMsg& msg);
  void on_measurement(const ipc::MeasurementMsg& msg);
  void on_urgent(const ipc::UrgentMsg& msg);
  void on_close(const ipc::FlowCloseMsg& msg);
  void on_flow_summary(const ipc::FlowSummaryMsg& msg);
  void send(const ipc::Message& msg);
  /// Copies the active control-loop span (the report/urgent currently
  /// being handled) onto an outgoing command, stamping the send time.
  /// No-op outside a handler or when the report carried no span.
  void stamp_span(telemetry::SpanStamp& span);

  AgentConfig config_;
  FrameTx tx_;
  std::map<std::string, AlgorithmFactory> registry_;  // cold: lookups at Create only
  util::FlatMap<ipc::FlowId, std::unique_ptr<FlowEntry>> flows_;
  AgentStats stats_;
  uint64_t expected_resync_token_ = 0;  // 0 = accept any

  // Prepared programs keyed by exact source text. The key is complete
  // only because config_.policy is fixed at construction: anything that
  // makes policy mutable must clear this map. Bounded by
  // lang::kDefaultProgramCacheCapacity (cleared when full); flows hold
  // their own reference, so clearing never invalidates a live layout.
  std::unordered_map<std::string, PreparedPtr> prepared_;

  // Hot-path scratch, reused across frames (see CcpDatapath for the
  // reentrancy discipline around rx_busy_).
  ipc::Encoder send_enc_;
  std::vector<ipc::Message> rx_scratch_;
  bool rx_busy_ = false;
  ipc::MeasurementMsg urgent_view_;  // urgent fields presented as a measurement

  // Span context of the report/urgent being handled right now; zero
  // span_id outside handlers. Commands issued from inside a handler
  // inherit it via stamp_span(), which is what links a datapath report
  // to the command it provoked.
  telemetry::SpanStamp current_span_;

  friend class FlowEntry;
};

}  // namespace ccp::agent
