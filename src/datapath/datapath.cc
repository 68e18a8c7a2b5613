#include "datapath/datapath.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "lang/error.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"

namespace ccp::datapath {

CcpDatapath::CcpDatapath(DatapathConfig config, FrameTx tx)
    : config_(config), tx_(std::move(tx)) {
  // One sink shared by every flow the table constructs (copied per slot
  // construction, not per create — recycled slots keep their copy).
  flows_.set_sink([this](const ipc::Message& msg, bool urgent) {
    // Flow messages carry the last tick() time, not their own event's
    // time. That time is never later than the event, so the batch ages
    // from a point up to one tick early: a flush can come up to one tick
    // early, never late.
    enqueue(msg, urgent, last_event_time_);
  });
  flows_.reserve(config_.expected_flows);
}

CcpFlow& CcpDatapath::create_flow(const FlowConfig& cfg, const std::string& alg_hint,
                                  TimePoint now) {
  return create_flow_with_id(next_flow_id_++, cfg, alg_hint, now);
}

CcpDatapath::~CcpDatapath() {
  telemetry::metrics().active_flows.sub(static_cast<int64_t>(flows_.size()));
}

void CcpDatapath::pump_rehash() {
  const size_t scanned = flows_.rehash_step(config_.rehash_step_buckets);
  if (scanned > 0 && telemetry::enabled()) {
    telemetry::metrics().dp_flow_rehash_steps.inc();
  }
}

CcpFlow& CcpDatapath::create_flow_with_id(ipc::FlowId id, const FlowConfig& cfg,
                                          const std::string& alg_hint,
                                          TimePoint now) {
  // Keep locally assigned ids clear of caller-chosen ones.
  if (id >= next_flow_id_) next_flow_id_ = id + 1;
  const size_t live_before = flows_.size();
  CcpFlow& ref = flows_.create(id, cfg, alg_hint);
  // +1, or 0 when the create replaced a live flow with the same id. The
  // gauge sums over every datapath in the process, so it moves with the
  // table whether or not telemetry is recording.
  telemetry::metrics().active_flows.add(
      static_cast<int64_t>(flows_.size()) - static_cast<int64_t>(live_before));
  if (telemetry::enabled()) telemetry::metrics().flows_created.inc();
  telemetry::trace(telemetry::TraceKind::FlowCreate, id,
                   static_cast<double>(cfg.init_cwnd_bytes));

  auto& create = std::get<ipc::CreateMsg>(create_msg_);
  create.flow_id = id;
  create.init_cwnd_bytes = static_cast<uint32_t>(cfg.init_cwnd_bytes);
  create.mss = cfg.mss;
  create.alg_hint = alg_hint;  // string assign: capacity reused across creates
  enqueue(create_msg_, /*urgent=*/true, now);
  return ref;
}

void CcpDatapath::close_flow(ipc::FlowId id, TimePoint now) {
  if (CcpFlow* fl = flows_.find(id); fl != nullptr) {
    if (telemetry::enabled()) {
      auto& m = telemetry::metrics();
      // Residual ACK accounting the flow hasn't drained at a report/tick.
      m.dp_acks.inc(fl->take_unreported_acks());
      m.flows_closed.inc();
    }
    flows_.erase(id);  // parks the slot; the next create recycles it
    telemetry::metrics().active_flows.sub(1);
    telemetry::trace(telemetry::TraceKind::FlowClose, id, 0.0);
    auto& close = std::get<ipc::FlowCloseMsg>(close_msg_);
    close.flow_id = id;
    // Not urgent: the agent needs no prompt answer to a close, so it
    // rides the next flush (a churn close is followed by a Create that
    // flushes both in one frame) instead of costing a frame and a wake-up.
    enqueue(close_msg_, /*urgent=*/false, now);
  }
}

void CcpDatapath::on_ack_batch(std::span<const FlowAck> burst) {
  if (flows_.rehash_pending()) [[unlikely]] pump_rehash();
  // No prefetching: sweeps ahead of this loop did not pay, even at a
  // million flows (docs/PERF.md "Burst intake").
  for (const FlowAck& fa : burst) {
    CcpFlow* flow = flows_.find(fa.flow_id);
    if (flow == nullptr) continue;
    if (fa.sent_bytes > 0) flow->on_send(SendEvent{fa.ev.now, fa.sent_bytes});
    flow->on_ack(fa.ev);
  }
}

void CcpDatapath::handle_frame(std::span<const uint8_t> frame, TimePoint now) {
  ++stats_.frames_received;
  if (telemetry::enabled()) telemetry::metrics().dp_frames_received.inc();
  // Decode into the member scratch (reusing message capacities) unless a
  // nested handle_frame is already using it.
  const bool use_scratch = !rx_busy_;
  std::vector<ipc::Message> local;
  std::vector<ipc::Message>& msgs = use_scratch ? rx_scratch_ : local;
  if (use_scratch) rx_busy_ = true;
  // Decode-stage cycle profiling: frames arrive far less often than
  // ACKs, so the sampler keeps its own tick at the same 1-in-N rate.
  uint64_t prof_c0 = 0;
  if (const uint32_t pmask = telemetry::profile_sample_mask();
      pmask != 0 && telemetry::enabled()) {
    thread_local uint32_t decode_tick = 0;
    if ((++decode_tick & pmask) == 0) [[unlikely]] {
      prof_c0 = telemetry::prof_cycles();
    }
  }
  size_t n_msgs = 0;
  try {
    n_msgs = ipc::decode_frame_into(frame, msgs);
  } catch (const ipc::WireError& e) {
    if (use_scratch) rx_busy_ = false;
    ++stats_.decode_errors;
    if (telemetry::enabled()) telemetry::metrics().dp_decode_errors.inc();
    CCP_WARN("datapath: dropping malformed frame: %s", e.what());
    return;
  }
  if (prof_c0 != 0) {
    telemetry::prof_record(telemetry::ProfStage::Decode,
                           telemetry::prof_cycles() - prof_c0);
  }
  // Span close bookkeeping: in the single-core datapath a command is
  // applied synchronously right after decode, so "enqueue" is the decode
  // completion time and "apply" is read per command below.
  const uint64_t enqueue_ns =
      telemetry::spans_active() ? telemetry::now_ns() : 0;
  for (size_t i = 0; i < n_msgs; ++i) {
    const auto& msg = msgs[i];
    ++stats_.msgs_received;
    std::visit(
        [&](const auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, ipc::InstallMsg>) {
            if (CcpFlow* fl = flow(m.flow_id)) {
              try {
                fl->install(m, now);
                telemetry::close_span_now(m.span, enqueue_ns, m.flow_id,
                                          telemetry::SpanCommand::Install);
              } catch (const lang::ProgramError& e) {
                ++stats_.install_errors;
                if (telemetry::enabled()) {
                  telemetry::metrics().dp_install_errors.inc();
                }
                CCP_WARN("datapath: rejecting program for flow %u: %s", m.flow_id,
                         e.what());
              }
            }
          } else if constexpr (std::is_same_v<T, ipc::UpdateFieldsMsg>) {
            if (CcpFlow* fl = flow(m.flow_id)) {
              try {
                fl->update_fields(m, now);
                telemetry::close_span_now(m.span, enqueue_ns, m.flow_id,
                                          telemetry::SpanCommand::UpdateFields);
              } catch (const lang::ProgramError& e) {
                ++stats_.install_errors;
                CCP_WARN("datapath: bad update_fields for flow %u: %s", m.flow_id,
                         e.what());
              }
            }
          } else if constexpr (std::is_same_v<T, ipc::DirectControlMsg>) {
            if (CcpFlow* fl = flow(m.flow_id)) {
              fl->direct_control(m, now);
              telemetry::close_span_now(m.span, enqueue_ns, m.flow_id,
                                        telemetry::SpanCommand::DirectControl);
            }
          } else if constexpr (std::is_same_v<T, ipc::ResyncRequestMsg>) {
            replay_flow_summaries(now, m.token);
          } else {
            CCP_WARN("datapath: unexpected message type %d from agent",
                     static_cast<int>(ipc::message_type(ipc::Message(m))));
          }
        },
        msg);
  }
  if (use_scratch) rx_busy_ = false;
}

size_t CcpDatapath::replay_flow_summaries(TimePoint now, uint64_t token) {
  size_t replayed = 0;
  // Slot (creation) order; the summary scratch and the interned hint
  // keep a million-flow replay free of per-flow allocation.
  flows_.for_each([&](CcpFlow& fl, const std::string& hint) {
    auto& summary = std::get<ipc::FlowSummaryMsg>(summary_msg_);
    summary.flow_id = fl.id();
    summary.mss = fl.config().mss;
    summary.cwnd_bytes = static_cast<uint32_t>(
        std::min<uint64_t>(fl.cwnd_bytes(), 0xffffffffu));
    const int64_t srtt_us = fl.srtt().micros();
    summary.srtt_us = srtt_us > 0 ? static_cast<uint64_t>(srtt_us) : 0;
    summary.in_fallback = fl.in_fallback();
    summary.alg_hint = hint;
    summary.token = token;
    enqueue(summary_msg_, /*urgent=*/false, now);
    telemetry::trace(telemetry::TraceKind::Resync, fl.id(),
                     static_cast<double>(summary.cwnd_bytes));
    ++replayed;
  });
  if (telemetry::enabled() && replayed > 0) {
    telemetry::metrics().dp_resync_flows.inc(replayed);
  }
  flush();
  return replayed;
}

void CcpDatapath::tick(TimePoint now) {
  last_event_time_ = now;
  // Pump the incremental rehash from the tick path too: an idle datapath
  // mid-grow still drains without waiting for ACK traffic.
  if (flows_.rehash_pending()) [[unlikely]] pump_rehash();
  // Per-flow maintenance, bounded when configured: tick_flow_budget = 0
  // sweeps every flow from slot 0 (the historical full walk, creation
  // order); a budget sweeps a bounded cohort behind a round-robin
  // cursor, the same bounded-per-call contract the rehash gives the
  // index — a million mostly-idle flows never stall one tick call.
  const size_t budget = config_.tick_flow_budget == 0
                            ? std::numeric_limits<size_t>::max()
                            : config_.tick_flow_budget;
  const size_t start = config_.tick_flow_budget == 0 ? 0 : tick_sweep_cursor_;
  // Drain per-flow ACK counts into the global counter on a slow cadence
  // (and at report/close) instead of paying an atomic RMW on every ACK.
  // Flows that report regularly drain themselves in emit_report; this
  // catches idle tails — flows that stopped folding, or whose program
  // never Report()s — so ccp_dp_acks_total still converges. Every 64th
  // tick is plenty fresh for a rate counter and keeps the drain walk off
  // the tick path a high-frequency driver spins.
  if ((++tick_seq_ & 63) == 0 && telemetry::enabled()) {
    uint64_t acks = 0;
    tick_sweep_cursor_ = flows_.sweep(start, budget, [&](CcpFlow& flow) {
      acks += flow.take_unreported_acks();
      flow.tick(now);
    });
    if (acks > 0) telemetry::metrics().dp_acks.inc(acks);
  } else {
    tick_sweep_cursor_ =
        flows_.sweep(start, budget, [&](CcpFlow& flow) { flow.tick(now); });
  }
  if (pending_msgs_ > 0 && now - oldest_pending_ >= config_.flush_interval) {
    flush();
  }
}

void CcpDatapath::enqueue(const ipc::Message& msg, bool urgent, TimePoint now) {
  if (pending_msgs_ == 0) {
    oldest_pending_ = now;
    batch_enc_.clear();
    batch_enc_.u16(0);  // frame msg count, patched at flush
  }
  ipc::encode_message(batch_enc_, msg);
  ++pending_msgs_;
  if (urgent || config_.flush_interval.is_zero() ||
      pending_msgs_ >= config_.max_batch_msgs ||
      pending_msgs_ == 0xffff /* u16 frame-count ceiling */) {
    flush();
  }
}

void CcpDatapath::flush() {
  if (pending_msgs_ == 0) return;
  batch_enc_.patch_u16(0, static_cast<uint16_t>(pending_msgs_));
  stats_.msgs_sent += pending_msgs_;
  stats_.bytes_sent += batch_enc_.size();
  ++stats_.frames_sent;
  if (telemetry::enabled()) {
    auto& m = telemetry::metrics();
    m.dp_frames_sent.inc();
    m.dp_flush_batch.record(pending_msgs_);
  }
  pending_msgs_ = 0;
  // Swap the frame out before transmitting: tx_ may synchronously loop a
  // response back into handle_frame -> enqueue, which must find the
  // encoder empty and ready. flush_buf_ keeps the frame bytes alive for
  // the duration of the call (receivers copy before returning) and its
  // capacity is recycled as the encoder's next buffer.
  flush_buf_.swap(batch_enc_.buffer());
  batch_enc_.clear();
  tx_(flush_buf_);
}

}  // namespace ccp::datapath
