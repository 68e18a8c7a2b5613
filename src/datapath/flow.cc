#include "datapath/flow.hpp"

#include <algorithm>

#include "lang/error.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"

namespace ccp::datapath {
namespace {

/// The program a flow runs before the agent installs anything: report the
/// standard statistics once per RTT. This mirrors the paper's §3
/// prototype datapath, which "reports only the most recent ACK and an
/// EWMA-filtered RTT, sending rate, and receiving rate".
constexpr const char* kDefaultProgram = R"(
fold {
  volatile acked   := acked + Pkt.bytes_acked          init 0;
  rtt              := ewma(rtt, Pkt.rtt, 0.125)        init 0;
  minrtt           := if(Pkt.rtt > 0, min(minrtt, Pkt.rtt), minrtt) init 0x7fffffff;
  snd              := Pkt.snd_rate                     init 0;
  rcv              := Pkt.rcv_rate                     init 0;
  volatile loss    := loss + Pkt.lost                  init 0 urgent;
  volatile timeout := max(timeout, Pkt.was_timeout)    init 0 urgent;
  volatile ecn     := ecn + Pkt.ecn                    init 0;
  inflight         := Pkt.bytes_in_flight              init 0;
}
control {
  WaitRtts(1.0);
  Report();
}
)";

/// Watchdog fallback (§5): complete NewReno-style congestion control
/// expressed in the fold language, needing no agent round trips at all.
/// `ssthresh` is declared before `win`, so its halving reads the
/// pre-update window while `win`'s loss branch reads the freshly-halved
/// ssthresh (registers update in declaration order; docs/LANGUAGE.md).
/// Below ssthresh the window grows per ACK (slow start); above it,
/// additively (~one MSS per window). Loss sets win to the halved
/// ssthresh; an RTO collapses to two segments. The control block applies
/// the window once per RTT.
constexpr const char* kFallbackProgram = R"(
fold {
  ssthresh := if(Pkt.was_timeout + Pkt.lost > 0,
                 max(win * 0.5, 2 * Pkt.mss),
                 ssthresh)
              init $ssthresh;
  win := if(Pkt.was_timeout > 0,
            2 * Pkt.mss,
            if(Pkt.lost > 0,
               ssthresh,
               if(win < ssthresh,
                  win + Pkt.bytes_acked,
                  win + Pkt.bytes_acked * Pkt.mss / win)))
         init $init_cwnd;
  volatile loss := loss + Pkt.lost init 0;
  rtt := ewma(rtt, Pkt.rtt, 0.125) init 0;
}
control {
  Cwnd(win);
  WaitRtts(1.0);
  Report();
}
)";

/// Held here so a create or slot reuse skips the compile cache's mutex
/// and full-text compare.
const std::shared_ptr<const lang::CompiledProgram>& default_program() {
  static const auto prog = lang::compile_text_shared(kDefaultProgram);
  return prog;
}

}  // namespace

CcpFlow::CcpFlow(ipc::FlowId id, FlowConfig config, MessageSink sink)
    : id_(id),
      config_(config),
      sink_(std::move(sink)),
      snd_rate_(config.rate_window, config.rate_ring_entries),
      rcv_rate_(config.rate_window, config.rate_ring_entries) {
  hot_.cwnd_bytes = config.init_cwnd_bytes;
  hot_.cwnd_target_bytes = config.init_cwnd_bytes;
  // Shared across every flow: the default program is compiled exactly
  // once per process, not once per flow.
  program_ = default_program();
  fold_.install(program_.get(), {});
  refresh_install_latches();
  watchdog_enabled_ =
      !config_.agent_timeout.is_zero() || config_.watchdog_rtts > 0;
}

CcpFlow::~CcpFlow() {
  // A flow closed while in fallback must not leak the gauge.
  if (in_fallback_ && telemetry::enabled()) {
    telemetry::metrics().flows_in_fallback.sub(1);
  }
}

void CcpFlow::park() {
  if (in_fallback_ && telemetry::enabled()) {
    telemetry::metrics().flows_in_fallback.sub(1);
  }
  // Cleared so the destructor (at table teardown) cannot settle the
  // gauge a second time.
  in_fallback_ = false;
}

// Mirrors the constructor field for field, but reuses every heap block
// the parked flow already owns: the estimator rings reinit in place, the
// fold machine re-installs the (process-shared) default program into its
// existing state vectors, and the report/urgent scratch messages keep
// their field capacities. hotpath_alloc_test's steady-churn config pins
// this path at zero allocations.
void CcpFlow::reset_for_reuse(ipc::FlowId id, const FlowConfig& config) {
  id_ = id;
  config_ = config;
  hot_ = FlowHot{};
  hot_.cwnd_bytes = config.init_cwnd_bytes;
  hot_.cwnd_target_bytes = config.init_cwnd_bytes;
  last_pkt_ = lang::PktInfo{};
  snd_rate_.reinit(config.rate_window, config.rate_ring_entries);
  rcv_rate_.reinit(config.rate_window, config.rate_ring_entries);
  program_ = default_program();
  fold_.install(program_.get(), {});
  control_pc_ = 0;
  advance_pc_on_resume_ = true;
  report_seq_ = 0;
  acks_flushed_ = 0;
  watchdog_enabled_ =
      !config_.agent_timeout.is_zero() || config_.watchdog_rtts > 0;
  agent_has_programmed_ = false;
  in_fallback_ = false;
  last_agent_contact_ = TimePoint{};
  fallback_entered_ = TimePoint{};
  vector_samples_.clear();
  refresh_install_latches();
}

Duration CcpFlow::srtt() const {
  return Duration::from_nanos(static_cast<int64_t>(hot_.srtt_us.value() * 1000.0));
}

Duration CcpFlow::rtt_or_default() const {
  if (hot_.srtt_us.initialized() && hot_.srtt_us.value() > 0) return srtt();
  return config_.default_report_interval;
}

// Delivery/sending rates are most meaningful over roughly one RTT
// (BBR-style delivery rate sampling). Called right before the estimators
// are queried — not per ACK, where the double->Duration conversion was
// measurable overhead for programs that never read the rates — and a
// no-op until the smoothed RTT has drifted 3% from the last retune: the
// horizon is a soft "roughly one RTT", and chasing every EWMA wiggle
// with two set_window calls (each invalidating the rate caches) was pure
// overhead on the steady-state path.
void CcpFlow::tune_rate_windows() {
  if (!hot_.srtt_us.initialized()) return;
  const double cur = hot_.srtt_us.value();
  if (cur > hot_.tuned_srtt_us * 0.97 && cur < hot_.tuned_srtt_us * 1.03) {
    return;
  }
  hot_.tuned_srtt_us = cur;
  const Duration window = std::max(srtt(), Duration::from_millis(1));
  snd_rate_.set_window(window);
  rcv_rate_.set_window(window);
}

// Writes the ACK's measurements straight into last_pkt_ rather than
// returning a PktInfo by value: the struct is 15 doubles, and building a
// local then copying it into last_pkt_ was a measurable slice of the
// per-ACK budget.
void CcpFlow::fill_pkt_info(const AckEvent& ev) {
  lang::PktInfo& pkt = last_pkt_;
  pkt.rtt_us = ev.rtt_sample.is_zero()
                   ? hot_.srtt_us.value()
                   : static_cast<double>(ev.rtt_sample.micros());
  pkt.bytes_acked = static_cast<double>(ev.bytes_acked);
  pkt.packets_acked = static_cast<double>(ev.packets_acked);
  pkt.lost_packets = static_cast<double>(ev.newly_lost_packets);
  pkt.ecn = ev.ecn ? 1.0 : 0.0;
  pkt.was_timeout = 0.0;
  // Windowed rate queries walk the estimator ring to expire old events;
  // skip them when nothing downstream looks at the result — exactly when
  // the estimator's install-time recording latch is off (the installed
  // program — control args included — doesn't read the field and vector
  // samples are off). Zero matches what a fresh PktInfo would carry.
  // The horizon retune (roughly one RTT, BBR-style delivery rate
  // sampling) also lives here, on the queried path only.
  const bool want_snd = snd_rate_.recording();
  const bool want_rcv = rcv_rate_.recording();
  if (want_snd || want_rcv) tune_rate_windows();
  // TTL-cached (window/8): per-ACK reads tolerate an estimate a fraction
  // of the window stale; loss/timeout and control paths still query the
  // exact-now rate_bps().
  pkt.snd_rate_bps = want_snd ? snd_rate_.rate_bps_cached(ev.now) : 0.0;
  pkt.rcv_rate_bps = want_rcv ? rcv_rate_.rate_bps_cached(ev.now) : 0.0;
  pkt.bytes_in_flight = static_cast<double>(ev.bytes_in_flight);
  pkt.packets_in_flight = static_cast<double>(ev.packets_in_flight);
  pkt.bytes_pending = static_cast<double>(ev.bytes_pending);
  pkt.now_us = static_cast<double>(ev.now.nanos()) / 1000.0;
  pkt.mss = static_cast<double>(config_.mss);
  pkt.cwnd = static_cast<double>(hot_.cwnd_bytes);
  pkt.rate_bps = hot_.rate_bps;
}

void CcpFlow::measure_ack(const AckEvent& ev) {
  ++hot_.acks_seen;  // plain; drained into ccp_dp_acks_total at flush points
  if (config_.smooth_cwnd && hot_.cwnd_target_bytes > hot_.cwnd_bytes) {
    // Open the window by at most the bytes this ACK freed: the ramp is
    // ACK-clocked, so the instantaneous send rate never exceeds 2x the
    // bottleneck (classic slow-start pacing, never a window-sized burst).
    hot_.cwnd_bytes =
        std::min(hot_.cwnd_target_bytes, hot_.cwnd_bytes + ev.bytes_acked);
  }
  if (!ev.rtt_sample.is_zero()) {
    hot_.srtt_us.update(static_cast<double>(ev.rtt_sample.micros()));
  }
  rcv_rate_.on_bytes(ev.bytes_delivered > 0 ? ev.bytes_delivered : ev.bytes_acked,
                     ev.now);

  fill_pkt_info(ev);
  if (hot_.vector_mode &&
      vector_samples_.size() <
          config_.max_vector_samples * kVectorFieldsPerPkt) {
    const lang::PktInfo& pkt = last_pkt_;
    vector_samples_.insert(vector_samples_.end(),
                           {pkt.rtt_us, pkt.bytes_acked, pkt.lost_packets, pkt.ecn,
                            pkt.snd_rate_bps, pkt.rcv_rate_bps});
  }
}

void CcpFlow::on_ack(const AckEvent& ev) {
  // Cycle-profiler gate: one relaxed load (the profiler's own mask, no
  // enabled() wrapper — sampling is opt-in and off by default, so this
  // is the per-ACK path's only telemetry instruction); when sampling is
  // on, every (mask+1)th ACK of this flow collects per-stage rdtsc
  // stamps on the stack (zero-alloc) and commits them in one cold call
  // at fold_event exit. ACK accounting is per-flow (hot_.acks_seen, a
  // plain store in measure_ack) and drained into the global atomic
  // counter at report/tick/close — no lock-prefixed add per ACK.
  telemetry::ProfSample prof;
  telemetry::ProfSample* ps = nullptr;
  const uint32_t mask = telemetry::profile_sample_mask();
  if (mask != 0 &&
      (static_cast<uint32_t>(hot_.acks_folded_total) & mask) == 0) [[unlikely]] {
    ps = &prof;
    prof.entry = telemetry::prof_cycles();
  }
  measure_ack(ev);
  if (ps) ps->measure = telemetry::prof_cycles();
  fold_event(ev.now, ps);
}

void CcpFlow::on_loss(const LossEvent& ev) {
  if (telemetry::enabled()) telemetry::metrics().dp_loss_events.inc();
  lang::PktInfo pkt;
  pkt.rtt_us = hot_.srtt_us.value();
  pkt.lost_packets = static_cast<double>(ev.lost_packets);
  // Exact-now rates, but only from recording estimators: a paused one
  // holds stale history nothing may read, so it reports 0 as
  // fill_pkt_info does.
  const bool want_snd = snd_rate_.recording();
  const bool want_rcv = rcv_rate_.recording();
  if (want_snd || want_rcv) tune_rate_windows();
  pkt.snd_rate_bps = want_snd ? snd_rate_.rate_bps(ev.now) : 0.0;
  pkt.rcv_rate_bps = want_rcv ? rcv_rate_.rate_bps(ev.now) : 0.0;
  pkt.bytes_in_flight = static_cast<double>(ev.bytes_in_flight);
  pkt.now_us = static_cast<double>(ev.now.nanos()) / 1000.0;
  pkt.mss = static_cast<double>(config_.mss);
  pkt.cwnd = static_cast<double>(hot_.cwnd_bytes);
  pkt.rate_bps = hot_.rate_bps;
  last_pkt_ = pkt;
  fold_event(ev.now);
}

void CcpFlow::on_timeout(const TimeoutEvent& ev) {
  if (telemetry::enabled()) telemetry::metrics().dp_timeouts.inc();
  lang::PktInfo pkt;
  pkt.rtt_us = hot_.srtt_us.value();
  pkt.was_timeout = 1.0;
  pkt.now_us = static_cast<double>(ev.now.nanos()) / 1000.0;
  pkt.mss = static_cast<double>(config_.mss);
  pkt.cwnd = static_cast<double>(hot_.cwnd_bytes);
  pkt.rate_bps = hot_.rate_bps;
  last_pkt_ = pkt;
  fold_event(ev.now);
}

void CcpFlow::fold_event(TimePoint now, telemetry::ProfSample* ps) {
  ++hot_.acks_since_report;
  ++hot_.acks_folded_total;
  check_watchdog(now);
  if (ps) ps->watchdog = telemetry::prof_cycles();
  const bool urgent = fold_.on_packet(last_pkt_);
  if (ps) ps->fold = telemetry::prof_cycles();
  // Damping: at most one urgent notification per report interval. During
  // a large loss episode every ACK can mark new losses; the agent only
  // needs to hear about the episode once per control period (its own
  // response cadence, §2.3), not once per ACK.
  if (urgent && !hot_.urgent_since_report) {
    hot_.urgent_since_report = true;
    emit_urgent(last_pkt_.was_timeout != 0.0  ? ipc::UrgentKind::Timeout
                : last_pkt_.lost_packets > 0  ? ipc::UrgentKind::Loss
                : last_pkt_.ecn != 0.0        ? ipc::UrgentKind::Ecn
                                              : ipc::UrgentKind::FoldUrgent);
  }
  // Steady-state fast path: while a control wait is pending, run_control
  // would return immediately — skip the call.
  if (!hot_.waiting || now >= hot_.wait_until) run_control(now);
  if (ps) {
    ps->done = telemetry::prof_cycles();
    telemetry::prof_commit(*ps, fold_.jit_active());
  }
}

void CcpFlow::tick(TimePoint now) {
  check_watchdog(now);
  run_control(now);
}

void CcpFlow::check_watchdog_slow(TimePoint now) {
  // Self-heal after a state transition that left an expired deadline
  // behind: a disarmed flow parks at max() and never comes back here.
  if (!watchdog_enabled_ || !agent_has_programmed_ || in_fallback_) {
    hot_.watchdog_deadline = TimePoint::max();
    return;
  }
  // Stale only past *both* thresholds: the fixed agent_timeout (zero =
  // always exceeded) and watchdog_rtts smoothed RTTs (unset = skipped).
  const Duration idle = now - last_agent_contact_;
  Duration threshold = config_.agent_timeout;
  if (config_.watchdog_rtts > 0) {
    threshold = std::max(threshold, rtt_or_default() * config_.watchdog_rtts);
  }
  if (idle <= threshold) {
    // Not stale: re-arm the fast-path deadline with the current srtt.
    // Agent contact after this leaves the deadline conservatively early;
    // the next crossing just lands here again and re-arms.
    hot_.watchdog_deadline = last_agent_contact_ + threshold;
    return;
  }
  CCP_WARN("flow %u: agent silent for %lld ms; engaging datapath fallback",
           id_, static_cast<long long>(idle.millis()));
  if (telemetry::enabled()) telemetry::metrics().dp_fallbacks.inc();
  telemetry::trace(telemetry::TraceKind::Fallback, id_, 0.0);
  enter_fallback(now);
}

void CcpFlow::enter_fallback(TimePoint now) {
  ipc::InstallMsg msg;
  msg.flow_id = id_;
  msg.program_text = kFallbackProgram;
  msg.var_names = {"init_cwnd", "ssthresh"};
  // Resume conservatively from half the current window, in congestion
  // avoidance (win == ssthresh).
  const double half = std::max(static_cast<double>(hot_.cwnd_bytes) / 2.0,
                               2.0 * config_.mss);
  msg.var_values = {half, half};
  install(msg, now);
  // install() clears the fallback/agent state; restore the flag so the
  // agent reclaims the flow on its next command.
  in_fallback_ = true;
  agent_has_programmed_ = false;
  fallback_entered_ = now;
  if (telemetry::enabled()) telemetry::metrics().flows_in_fallback.add(1);
}

void CcpFlow::record_fallback_exit(TimePoint now) {
  in_fallback_ = false;
  if (telemetry::enabled()) {
    auto& m = telemetry::metrics();
    m.dp_fallback_recoveries.inc();
    m.flows_in_fallback.sub(1);
    const int64_t ns = (now - fallback_entered_).nanos();
    m.fallback_recovery_ns.record(ns > 0 ? static_cast<uint64_t>(ns) : 0);
  }
  telemetry::trace(telemetry::TraceKind::FallbackExit, id_,
                   static_cast<double>(hot_.cwnd_bytes));
}

void CcpFlow::reinstall_default(TimePoint now) {
  install_compiled(default_program(), {},
                   /*vector_mode=*/false, now);
}

void CcpFlow::run_control(TimePoint now) {
  if (program_ == nullptr || program_->control_ops.empty()) return;
  if (hot_.waiting) {
    if (now < hot_.wait_until) return;
    hot_.waiting = false;
    if (advance_pc_on_resume_) {
      ++control_pc_;
      if (control_pc_ >= program_->control_ops.size()) control_pc_ = 0;
    }
  }

  // Execute until we hit a Wait. A full loop without any Wait means the
  // program gave no cadence; impose one RTT so it cannot spin (the paper's
  // natural control timescale, §2.3).
  size_t executed = 0;
  const size_t n = program_->control_ops.size();
  while (!hot_.waiting) {
    if (executed++ >= n) {
      hot_.waiting = true;
      advance_pc_on_resume_ = false;  // resume from this pc, don't skip it
      hot_.wait_until = now + rtt_or_default();
      return;
    }
    const auto op = program_->control_ops[control_pc_];
    switch (op) {
      case lang::ControlInstr::Op::SetRate:
        set_rate(fold_.eval_control_arg(control_pc_, last_pkt_));
        break;
      case lang::ControlInstr::Op::SetCwnd:
        set_cwnd(fold_.eval_control_arg(control_pc_, last_pkt_));
        break;
      case lang::ControlInstr::Op::Wait: {
        const double us = fold_.eval_control_arg(control_pc_, last_pkt_);
        hot_.waiting = true;
        advance_pc_on_resume_ = true;
        hot_.wait_until =
            now + Duration::from_nanos(static_cast<int64_t>(std::max(0.0, us) * 1000));
        return;  // pc advances when the wait expires
      }
      case lang::ControlInstr::Op::WaitRtts: {
        const double rtts = fold_.eval_control_arg(control_pc_, last_pkt_);
        hot_.waiting = true;
        advance_pc_on_resume_ = true;
        hot_.wait_until = now + rtt_or_default() * std::max(0.0, rtts);
        return;
      }
      case lang::ControlInstr::Op::Report:
        // Report news, not silence: once an empty report has gone out (or
        // before a fresh flow's first event), an interval that folded no
        // event sends nothing until one is folded. The volatiles were
        // reset at the last report, so the next one still covers every
        // event. With the watchdog armed every report goes out, since the
        // agent's answers to them are its contact.
        if (hot_.acks_since_report == 0 && hot_.quiet && !watchdog_enabled_) {
          if (telemetry::enabled()) {
            telemetry::metrics().dp_reports_suppressed.inc();
          }
        } else {
          emit_report(now);
        }
        break;
    }
    ++control_pc_;
    if (control_pc_ >= n) control_pc_ = 0;
  }
}

void CcpFlow::emit_report(TimePoint now) {
  (void)now;
  auto& msg = std::get<ipc::MeasurementMsg>(report_msg_);
  msg.flow_id = id_;
  msg.report_seq = report_seq_++;
  msg.num_acks_folded = hot_.acks_since_report;
  if (telemetry::enabled()) {
    auto& m = telemetry::metrics();
    m.dp_acks.inc(take_unreported_acks());
    m.dp_reports.inc();
    msg.emitted_ns = telemetry::now_ns();
    // Open a control-loop span — only while the flight recorder is
    // actually recording spans: the agent echoes the id (and our emit
    // time) onto whatever command this report provokes, and the span
    // closes where that command is applied. With recording off the id
    // stays 0 and every downstream hop skips its stamps and histograms.
    msg.span_id = telemetry::spans_active() ? telemetry::next_span_id() : 0;
    telemetry::trace(telemetry::TraceKind::Report, id_,
                     static_cast<double>(msg.report_seq));
  } else {
    msg.emitted_ns = 0;
    msg.span_id = 0;
  }
  if (hot_.vector_mode) {
    msg.is_vector = true;
    // Copy instead of move: vector_samples_ keeps its capacity, so the
    // next interval's samples append without reallocating. Grow the
    // destination geometrically (assign alone grows exactly-to-size, so
    // every slightly-longer interval would reallocate forever).
    if (msg.fields.capacity() < vector_samples_.size()) {
      msg.fields.reserve(
          std::max(vector_samples_.size(), 2 * msg.fields.capacity()));
    }
    msg.fields.assign(vector_samples_.begin(), vector_samples_.end());
    vector_samples_.clear();
  } else {
    msg.is_vector = false;
    const auto& st = fold_.state();
    msg.fields.assign(st.begin(), st.end());
  }
  sink_(report_msg_, /*urgent=*/false);
  fold_.reset_volatile();
  hot_.quiet = hot_.acks_since_report == 0;
  hot_.acks_since_report = 0;
  hot_.urgent_since_report = false;
}

void CcpFlow::emit_urgent(ipc::UrgentKind kind) {
  auto& msg = std::get<ipc::UrgentMsg>(urgent_msg_);
  msg.flow_id = id_;
  msg.kind = kind;
  const auto& st = fold_.state();
  msg.fields.assign(st.begin(), st.end());
  if (telemetry::enabled()) {
    telemetry::metrics().dp_urgents.inc();
    msg.emitted_ns = telemetry::now_ns();
    msg.span_id = telemetry::spans_active() ? telemetry::next_span_id() : 0;
    telemetry::trace(telemetry::TraceKind::Urgent, id_,
                     static_cast<double>(static_cast<uint8_t>(kind)));
  } else {
    msg.emitted_ns = 0;
    msg.span_id = 0;
  }
  sink_(urgent_msg_, /*urgent=*/true);
}

void CcpFlow::set_cwnd(double bytes) {
  const double clamped =
      std::clamp(bytes, static_cast<double>(config_.min_cwnd_bytes),
                 static_cast<double>(config_.max_cwnd_bytes));
  const uint64_t target = static_cast<uint64_t>(clamped);
  telemetry::trace(telemetry::TraceKind::SetCwnd, id_, clamped);
  hot_.cwnd_target_bytes = target;
  if (!config_.smooth_cwnd || target <= hot_.cwnd_bytes) {
    // Decreases (and everything when smoothing is off) apply immediately.
    hot_.cwnd_bytes = target;
  }
  // Increases ramp ACK-clocked in on_ack() (§3: "smooth congestion
  // window transitions in the datapath to avoid packet bursts").
}

void CcpFlow::set_rate(double bps) {
  hot_.rate_bps = std::max(0.0, bps);
  telemetry::trace(telemetry::TraceKind::SetRate, id_, hot_.rate_bps);
}

void CcpFlow::install(const ipc::InstallMsg& msg, TimePoint now) {
  // Compile first: if the program is malformed we throw and the previous
  // program keeps running (§5 safety: a bad Install cannot brick a flow).
  // The shared cache means re-installs of a known text never recompile.
  auto compiled = lang::compile_text_shared(msg.program_text);
  // Bind variables by name so callers can pass them in any order.
  auto var_values = lang::bind_vars(*compiled, msg.var_names, msg.var_values);
  install_compiled(std::move(compiled), std::move(var_values), msg.vector_mode,
                   now);
}

void CcpFlow::install_compiled(std::shared_ptr<const lang::CompiledProgram> prog,
                               std::vector<double> var_values, bool vector_mode,
                               TimePoint now) {
  const uint64_t t0 = telemetry::enabled() ? telemetry::now_ns() : 0;
  program_ = std::move(prog);
  fold_.install(program_.get(), std::move(var_values));
  control_pc_ = 0;
  hot_.waiting = false;
  hot_.acks_since_report = 0;
  // The new program's first report goes out, empty or not, unless the
  // flow has never folded an event: then there is still nothing to say.
  hot_.quiet = hot_.acks_folded_total == 0;
  hot_.vector_mode = vector_mode;
  vector_samples_.clear();
  if (hot_.vector_mode) {
    // Pre-size for a typical report interval so early ACKs do not grow
    // the buffer incrementally; the hard cap still bounds worst case.
    vector_samples_.reserve(
        std::min<size_t>(config_.max_vector_samples, 1024) * kVectorFieldsPerPkt);
  }
  refresh_install_latches();
  agent_has_programmed_ = true;
  if (in_fallback_) record_fallback_exit(now);
  last_agent_contact_ = now;
  rearm_watchdog();
  if (telemetry::enabled()) {
    auto& m = telemetry::metrics();
    m.dp_installs.inc();
    if (t0 != 0) m.install_apply_ns.record(telemetry::now_ns() - t0);
    telemetry::trace(telemetry::TraceKind::InstallApplied, id_, 0.0);
  }
  run_control(now);
}

void CcpFlow::update_fields(const ipc::UpdateFieldsMsg& msg, TimePoint now) {
  if (program_ == nullptr) return;
  last_agent_contact_ = now;
  if (in_fallback_) {
    // The agent is back, but its values target the program the fallback
    // replaced — they must not rebind the fallback's own variables. Drop
    // the stale update and hand the flow back to the default program; the
    // agent's next Install restores its control law.
    record_fallback_exit(now);
    reinstall_default(now);
    return;
  }
  if (msg.var_values.size() != program_->num_vars()) {
    // Stale update racing an in-flight Install (the agent swapped
    // programs while this message crossed the IPC boundary): drop it;
    // the agent's next update will match the new program.
    CCP_DEBUG("flow %u: dropping stale update_fields (%zu values, program has %zu)",
              id_, msg.var_values.size(), program_->num_vars());
    return;
  }
  fold_.update_vars(msg.var_values);
}

void CcpFlow::direct_control(const ipc::DirectControlMsg& msg, TimePoint now) {
  last_agent_contact_ = now;
  if (in_fallback_) {
    // Stop the fallback control loop before applying the override —
    // otherwise it would keep rewriting cwnd once per RTT and fight the
    // agent's setting.
    record_fallback_exit(now);
    reinstall_default(now);
  }
  if (msg.cwnd_bytes.has_value()) set_cwnd(*msg.cwnd_bytes);
  if (msg.rate_bps.has_value()) set_rate(*msg.rate_bps);
}

}  // namespace ccp::datapath
