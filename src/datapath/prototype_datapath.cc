#include "datapath/prototype_datapath.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"

namespace ccp::datapath {

PrototypeFlow::PrototypeFlow(ipc::FlowId id, FlowConfig config, MessageSink sink)
    : id_(id),
      config_(config),
      sink_(std::move(sink)),
      cwnd_bytes_(config.init_cwnd_bytes),
      cwnd_target_bytes_(config.init_cwnd_bytes),
      snd_rate_(config.rate_window),
      rcv_rate_(config.rate_window) {}

void PrototypeFlow::emit_loss_urgent() {
  urgent_since_report_ = true;
  auto& msg = std::get<ipc::UrgentMsg>(urgent_msg_);
  msg.flow_id = id_;
  msg.kind = ipc::UrgentKind::Loss;
  if (telemetry::enabled()) {
    telemetry::metrics().dp_urgents.inc();
    msg.emitted_ns = telemetry::now_ns();
  } else {
    msg.emitted_ns = 0;
  }
  sink_(urgent_msg_, /*urgent=*/true);
}

void PrototypeFlow::on_loss(const LossEvent& ev) {
  loss_ += ev.lost_packets;
  if (!urgent_since_report_) emit_loss_urgent();
  maybe_report(ev.now);
}

void PrototypeFlow::on_timeout(const TimeoutEvent& ev) {
  timeout_ = 1;
  urgent_since_report_ = true;
  auto& msg = std::get<ipc::UrgentMsg>(urgent_msg_);
  msg.flow_id = id_;
  msg.kind = ipc::UrgentKind::Timeout;
  if (telemetry::enabled()) {
    telemetry::metrics().dp_urgents.inc();
    msg.emitted_ns = telemetry::now_ns();
  } else {
    msg.emitted_ns = 0;
  }
  sink_(urgent_msg_, /*urgent=*/true);
  maybe_report(ev.now);
}

void PrototypeFlow::tick(TimePoint now) { maybe_report(now); }

void PrototypeFlow::maybe_report_slow(TimePoint now) {
  if (next_report_ == TimePoint{}) {
    next_report_ = now + config_.default_report_interval;
    return;
  }
  emit_report(now);
  const Duration interval = srtt_us_.initialized() && srtt_us_.value() > 0
                                ? srtt()
                                : config_.default_report_interval;
  next_report_ = now + interval;
}

void PrototypeFlow::emit_report(TimePoint now) {
  // Retune the estimator horizons to roughly one RTT (BBR-style delivery
  // rate sampling) here, at report cadence, right before the rates are
  // queried — not per ACK.
  if (srtt_us_.initialized()) {
    const Duration window = std::max(srtt(), Duration::from_millis(1));
    snd_rate_.set_window(window);
    rcv_rate_.set_window(window);
  }
  auto& msg = std::get<ipc::MeasurementMsg>(report_msg_);
  msg.flow_id = id_;
  msg.report_seq = report_seq_++;
  msg.num_acks_folded = acks_since_report_;
  if (telemetry::enabled()) {
    auto& m = telemetry::metrics();
    m.dp_reports.inc();
    m.dp_acks.inc(acks_since_report_);
    msg.emitted_ns = telemetry::now_ns();
  } else {
    msg.emitted_ns = 0;
  }
  // Fixed layout: ipc::prototype_field_names() order. assign() reuses the
  // vector's capacity, so steady-state reporting allocates nothing.
  msg.fields.assign({acked_,
                     acked_pkts_,
                     marked_,
                     loss_,
                     loss_,  // "lost" alias
                     timeout_,
                     srtt_us_.value(),
                     min_rtt_us_ < 1e9 ? min_rtt_us_ : 0,
                     snd_rate_.rate_bps(now),
                     rcv_rate_.rate_bps(now),
                     static_cast<double>(now.nanos()) / 1000.0,
                     inflight_});
  sink_(report_msg_, /*urgent=*/false);
  acked_ = acked_pkts_ = marked_ = loss_ = timeout_ = 0;
  acks_since_report_ = 0;
  urgent_since_report_ = false;
}

void PrototypeFlow::direct_control(const ipc::DirectControlMsg& msg) {
  if (msg.cwnd_bytes.has_value()) {
    const double clamped =
        std::clamp(*msg.cwnd_bytes, static_cast<double>(config_.min_cwnd_bytes),
                   static_cast<double>(config_.max_cwnd_bytes));
    const uint64_t target = static_cast<uint64_t>(clamped);
    cwnd_target_bytes_ = target;
    if (!config_.smooth_cwnd || target <= cwnd_bytes_) cwnd_bytes_ = target;
  }
  if (msg.rate_bps.has_value()) rate_bps_ = std::max(0.0, *msg.rate_bps);
}

// ------------------------------------------------------------- container

PrototypeDatapath::PrototypeDatapath(DatapathConfig config, FrameTx tx)
    : config_(config), tx_(std::move(tx)) {}

void PrototypeDatapath::send(const ipc::Message& msg) {
  send_enc_.clear();
  ipc::encode_frame_into(send_enc_, msg);
  tx_(send_enc_.buffer());
}

PrototypeFlow& PrototypeDatapath::create_flow(const FlowConfig& cfg,
                                              const std::string& alg_hint,
                                              TimePoint /*now*/) {
  const ipc::FlowId id = next_flow_id_++;
  auto sink = [this](const ipc::Message& msg, bool) { send(msg); };
  auto flow = std::make_unique<PrototypeFlow>(id, cfg, std::move(sink));
  PrototypeFlow& ref = *flow;
  flows_.insert_or_assign(id, std::move(flow));

  ipc::CreateMsg create;
  create.flow_id = id;
  create.init_cwnd_bytes = static_cast<uint32_t>(cfg.init_cwnd_bytes);
  create.mss = cfg.mss;
  create.alg_hint = alg_hint;
  create.supports_programs = false;  // the defining limitation
  send(create);
  return ref;
}

void PrototypeDatapath::close_flow(ipc::FlowId id, TimePoint /*now*/) {
  if (flows_.erase(id) > 0) send(ipc::FlowCloseMsg{id});
}

void PrototypeDatapath::handle_frame(std::span<const uint8_t> frame, TimePoint now) {
  (void)now;
  const bool use_scratch = !rx_busy_;
  std::vector<ipc::Message> local;
  std::vector<ipc::Message>& msgs = use_scratch ? rx_scratch_ : local;
  if (use_scratch) rx_busy_ = true;
  size_t n_msgs = 0;
  try {
    n_msgs = ipc::decode_frame_into(frame, msgs);
  } catch (const ipc::WireError& e) {
    if (use_scratch) rx_busy_ = false;
    if (telemetry::enabled()) telemetry::metrics().dp_decode_errors.inc();
    CCP_WARN("prototype datapath: dropping malformed frame: %s", e.what());
    return;
  }
  for (size_t i = 0; i < n_msgs; ++i) {
    if (const auto* dc = std::get_if<ipc::DirectControlMsg>(&msgs[i])) {
      if (PrototypeFlow* fl = flow(dc->flow_id)) fl->direct_control(*dc);
    } else {
      // Installs, update_fields, vector-mode requests: not supported.
      ++unsupported_msgs_;
    }
  }
  if (use_scratch) rx_busy_ = false;
}

void PrototypeDatapath::tick(TimePoint now) {
  for (auto& [id, flow] : flows_) flow->tick(now);
}

}  // namespace ccp::datapath
