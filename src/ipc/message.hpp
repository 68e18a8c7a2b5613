// Messages exchanged between the datapath and the CCP agent (Figure 1).
//
// Datapath -> agent:  Create and Urgent (flush at once), Measurement and
//                     FlowClose (batched: ride the next flush)
// Agent -> datapath:  Install (a program), UpdateFields (rebind $vars),
//                     DirectControl (one-shot cwnd/rate override)
//
// Measurements carry the fold register file by position; the agent knows
// the field names because it installed the program. This keeps the hot
// message small and fixed-layout, like the real CCP's netlink messages.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "telemetry/spans.hpp"

namespace ccp::ipc {

using FlowId = uint32_t;

/// Control-loop span context (telemetry/spans.hpp) carried by command
/// messages; span_id 0 = no span. Encoded at the end of each payload,
/// like MeasurementMsg::emitted_ns, so fixed-offset consumers of the
/// leading fields are unaffected.
using SpanStamp = telemetry::SpanStamp;

/// Why an Urgent message fired. Loss/Timeout/Ecn come from the datapath's
/// own congestion detection; FoldUrgent means a register declared
/// `urgent` changed (§2.1 "urgent measurements").
enum class UrgentKind : uint8_t { Loss = 0, Timeout = 1, Ecn = 2, FoldUrgent = 3 };

/// A new flow appeared in the datapath.
struct CreateMsg {
  FlowId flow_id = 0;
  uint32_t init_cwnd_bytes = 0;
  uint32_t mss = 1500;
  uint32_t src_port = 0;
  uint32_t dst_port = 0;
  std::string alg_hint;  // which algorithm the host policy wants, may be empty

  /// Datapath capability flag. Full datapaths compile and run installed
  /// programs; limited ones (the paper's §3 prototype: "reports only the
  /// most recent ACK and an EWMA-filtered RTT, sending rate, and
  /// receiving rate") accept only DirectControl and report a fixed field
  /// layout (prototype_field_names()). The agent translates for them —
  /// "it is also possible to support programs purely by issuing commands
  /// from the CCP each RTT" (§2.1).
  bool supports_programs = true;
};

/// The fixed measurement layout limited datapaths report, in order.
/// (Includes both "loss" and "lost" spellings so algorithms written
/// against either name translate cleanly.)
const std::vector<std::string>& prototype_field_names();

/// One batched report: the fold register file at Report() time.
struct MeasurementMsg {
  FlowId flow_id = 0;
  uint64_t report_seq = 0;  // per-flow, increments every report
  uint32_t num_acks_folded = 0;  // how many ACKs this batch summarizes
  bool is_vector = false;   // §2.4: raw per-ACK samples instead of fold state
  std::vector<double> fields;    // fold registers in program order, or
                                 // num_acks_folded * kVectorFieldsPerPkt samples
  uint64_t emitted_ns = 0;  // sender's monotonic clock at emit; 0 = unstamped.
                            // Feeds the report->OnMeasurement latency
                            // histogram (telemetry); near the end of the
                            // wire payload so fixed-offset consumers of
                            // the leading fields are unaffected.
  uint64_t span_id = 0;     // control-loop span opened at emit; 0 = none.
                            // The agent copies it (with emitted_ns) onto
                            // any command this report provokes.
};

/// Immediate notification of a congestion event (§2.1).
struct UrgentMsg {
  FlowId flow_id = 0;
  UrgentKind kind = UrgentKind::Loss;
  std::vector<double> fields;  // fold register snapshot at the event
  uint64_t emitted_ns = 0;     // see MeasurementMsg::emitted_ns
  uint64_t span_id = 0;        // see MeasurementMsg::span_id
};

struct FlowCloseMsg {
  FlowId flow_id = 0;
};

/// Install a new datapath program (Table 3's Install()). The program is
/// shipped as text and compiled by the datapath, so a datapath can reject
/// programs it cannot support.
struct InstallMsg {
  FlowId flow_id = 0;
  std::string program_text;
  std::vector<std::string> var_names;
  std::vector<double> var_values;
  bool vector_mode = false;  // §2.4: request per-ACK vector reports
  uint64_t emitted_ns = 0;   // see MeasurementMsg::emitted_ns (install RTT)
  SpanStamp span;            // control-loop span this install closes
};

/// Rebind install-time variables of the running program without resetting
/// fold state — the cheap per-report control message.
struct UpdateFieldsMsg {
  FlowId flow_id = 0;
  std::vector<double> var_values;  // positional, must match installed program
  SpanStamp span;                  // control-loop span this update closes
};

/// One-shot override used by simple window/rate algorithms and by agent
/// policy enforcement (Figure 1's CWND(c) / RATE(r) arrows).
struct DirectControlMsg {
  FlowId flow_id = 0;
  std::optional<double> cwnd_bytes;
  std::optional<double> rate_bps;
  SpanStamp span;  // control-loop span this override closes
};

/// A (re)started agent asks the datapath to replay summaries of every
/// active flow so it can rebuild per-flow state. `token` identifies the
/// agent generation; the datapath echoes it in each FlowSummaryMsg so the
/// agent can discard replays from a superseded request.
struct ResyncRequestMsg {
  uint64_t token = 0;
};

/// Datapath -> agent replay of one active flow's state in response to a
/// ResyncRequest. Carries what CreateMsg carried plus the live window and
/// smoothed RTT, so the restarted agent resumes near where the flow is
/// rather than from init_cwnd.
struct FlowSummaryMsg {
  FlowId flow_id = 0;
  uint32_t mss = 1500;
  uint32_t cwnd_bytes = 0;   // current enforced window
  uint64_t srtt_us = 0;      // smoothed RTT estimate, 0 if unmeasured
  bool in_fallback = false;  // flow is running the safe-mode program
  std::string alg_hint;      // from the original CreateMsg
  uint64_t token = 0;        // echoes ResyncRequestMsg::token
};

using Message = std::variant<CreateMsg, MeasurementMsg, UrgentMsg, FlowCloseMsg,
                             InstallMsg, UpdateFieldsMsg, DirectControlMsg,
                             ResyncRequestMsg, FlowSummaryMsg>;

/// Stable on-wire discriminators (never reorder).
enum class MsgType : uint8_t {
  Create = 1,
  Measurement = 2,
  Urgent = 3,
  FlowClose = 4,
  Install = 5,
  UpdateFields = 6,
  DirectControl = 7,
  ResyncRequest = 8,
  FlowSummary = 9,
};

MsgType message_type(const Message& m);

}  // namespace ccp::ipc
