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
    // `oldest_pending_` needs a timestamp; flows stamp messages via the
    // enqueue path below with the time of their triggering event. We use
    // the flow's last event time implicitly: enqueue() receives it from
    // tick()/on_ack() callers through the flow; here we approximate with
    // the batcher's own clock, which tick() keeps fresh.
    enqueue(msg, urgent, last_event_time_);
  });
  flows_.reserve(config_.expected_flows);
}

CcpFlow& CcpDatapath::create_flow(const FlowConfig& cfg, const std::string& alg_hint,
                                  TimePoint now) {
  return create_flow_with_id(next_flow_id_++, cfg, alg_hint, now);
}

void CcpDatapath::publish_table_gauges() {
  auto& m = telemetry::metrics();
  m.active_flows.set(static_cast<int64_t>(flows_.size()));
  m.dp_flows.set(static_cast<int64_t>(flows_.size()));
  m.dp_table_load_factor.set(
      static_cast<int64_t>(flows_.load_factor() * 10000.0));
  if (shard_stats_ != nullptr) {
    shard_stats_->flows.set(static_cast<int64_t>(flows_.size()));
  }
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
  CcpFlow& ref = flows_.create(id, cfg, alg_hint);
  if (telemetry::enabled()) {
    auto& m = telemetry::metrics();
    m.flows_created.inc();
    m.dp_flow_creates.inc();
    publish_table_gauges();
  }
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
      m.dp_flow_closes.inc();
    }
    flows_.erase(id);  // parks the slot; the next create recycles it
    if (telemetry::enabled()) publish_table_gauges();
    telemetry::trace(telemetry::TraceKind::FlowClose, id, 0.0);
    auto& close = std::get<ipc::FlowCloseMsg>(close_msg_);
    close.flow_id = id;
    enqueue(close_msg_, /*urgent=*/true, now);
  }
}

void CcpDatapath::on_ack_batch(std::span<const FlowAck> burst) {
  if (flows_.rehash_pending()) [[unlikely]] pump_rehash();
  // Intake prefetch pipeline. At million-flow scale the per-ACK cost is
  // dominated by dependent cache misses: the index bucket line, then the
  // flow object's lines, then the lines behind the flow's pointers (hot
  // block, estimator rings, fold state). Each chunk of 32 ACKs runs
  // three full-width sweeps before any ACK is processed, so every level
  // of the dependency chain is issued a whole sweep (hundreds of ns)
  // ahead of its first use:
  //   sweep 1  pull every index bucket line (pure hash, no loads)
  //   sweep 2  resolve every flow pointer (buckets now warm) and
  //            prefetch the flow objects' own lines — address
  //            arithmetic only, stalls on nothing
  //   sweep 3  dereference the (now warm) flows to prefetch the
  //            indirect lines: ring write positions, fold state
  //            (GCC deletes this sweep today: docs/PERF.md "Burst intake")
  // Holding resolved pointers across the chunk is safe because nothing
  // inside a burst can create or close flows: emission goes sink ->
  // enqueue -> FrameTx, and no FrameTx re-enters the flow lifecycle
  // (close_flow / create_flow happen between bursts, on the owner
  // thread).
  // A Zipf-popular stream is mostly repeats of a few hot flows whose
  // lines are already resident; prefetching those again wastes the issue
  // slots and fill-buffer probes the genuinely cold flows need. The
  // resolve sweep dedups per chunk through find_mark(): the first
  // resolution of a flow prefetches, repeats come back tagged (pointer
  // low bit) so the deep sweep skips them too.
  static constexpr size_t kChunk = 32;
  static constexpr uintptr_t kSeenTag = 1;
  CcpFlow* look[kChunk];
  for (size_t base = 0; base < burst.size(); base += kChunk) {
    const size_t n = std::min(burst.size() - base, kChunk);
    const FlowAck* const acks = burst.data() + base;
    if (++burst_stamp_ == 0) ++burst_stamp_;  // 0 is the fresh-bucket value
    for (size_t i = 0; i < n; ++i) flows_.prefetch(acks[i].flow_id);
    for (size_t i = 0; i < n; ++i) {
      bool fresh = false;
      CcpFlow* f = flows_.find_mark(acks[i].flow_id, burst_stamp_, fresh);
      if (f != nullptr && fresh) {
        f->prefetch_self();
      } else if (f != nullptr) {
        f = reinterpret_cast<CcpFlow*>(reinterpret_cast<uintptr_t>(f) |
                                       kSeenTag);
      }
      look[i] = f;
    }
    for (size_t i = 0; i < n; ++i) {
      CcpFlow* f = look[i];
      if (f != nullptr && (reinterpret_cast<uintptr_t>(f) & kSeenTag) == 0) {
        f->prefetch_for_ack();
      }
    }
    // Then the plain per-ACK calls, in arrival order.
    for (size_t i = 0; i < n; ++i) {
      CcpFlow* flow = reinterpret_cast<CcpFlow*>(
          reinterpret_cast<uintptr_t>(look[i]) & ~kSeenTag);
      if (flow == nullptr) continue;
      const FlowAck& fa = acks[i];
      if (fa.sent_bytes > 0) {
        flow->on_send(SendEvent{fa.ev.now, fa.sent_bytes});
      }
      flow->on_ack(fa.ev);
    }
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
  // Pump the incremental rehash from the tick path too: an idle shard
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
  if (shard_stats_ != nullptr && telemetry::enabled()) {
    // Per-shard attribution, per message (i.e. per report interval, not
    // per ACK): the aggregate dp_* counters in emit_report() keep their
    // totals; these break the same traffic down by owning shard.
    if (const auto* m = std::get_if<ipc::MeasurementMsg>(&msg)) {
      shard_stats_->reports.inc();
      shard_stats_->acks.inc(m->num_acks_folded);
    } else if (std::holds_alternative<ipc::UrgentMsg>(msg)) {
      shard_stats_->urgents.inc();
    }
  }
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
