// Per-flow CCP datapath state machine.
//
// This is the paper's "modification to the datapath" (§2): it enforces
// the congestion window and pacing rate received from the agent, gathers
// per-ACK statistics, folds them through the installed program, executes
// the control program's Rate/Cwnd/Wait/WaitRtts/Report sequence in the
// datapath itself, and emits batched Measurement and immediate Urgent
// messages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "datapath/cc_module.hpp"
#include "datapath/events.hpp"
#include "ipc/message.hpp"
#include "lang/compiler.hpp"
#include "lang/vm.hpp"
#include "util/ewma.hpp"
#include "util/rate_estimator.hpp"
#include "util/time.hpp"

namespace ccp::telemetry {
struct ProfSample;  // per-stage cycle profiler (telemetry/profiler.hpp)
}

namespace ccp::datapath {

/// Configuration for one flow.
struct FlowConfig {
  uint32_t mss = 1500;
  uint64_t init_cwnd_bytes = 10 * 1500;  // RFC 6928 initial window
  uint64_t min_cwnd_bytes = 2 * 1500;
  uint64_t max_cwnd_bytes = 1ULL << 30;
  Duration rate_window = Duration::from_millis(100);  // rate estimator horizon
  Duration default_report_interval = Duration::from_millis(10);  // pre-RTT fallback

  /// Smooth congestion window transitions (§3 future work, implemented):
  /// a cwnd *increase* from the agent becomes a target that the datapath
  /// approaches ACK-clocked (cwnd += bytes_acked per ACK, i.e. at most
  /// doubling per RTT), instead of a single burst-inducing jump.
  /// Decreases always apply immediately. The ablation bench
  /// (bench_ablation_smoothing) quantifies what this buys.
  bool smooth_cwnd = true;

  /// Safety watchdog (§5 "Is CCP safe to deploy?"): if the agent goes
  /// silent for this long while a non-default program is installed, the
  /// datapath falls back to a self-contained NewReno-style program that
  /// needs no agent at all (the fold registers run the whole control law
  /// — §5's "synthesize the congestion controller into the datapath").
  /// Zero disables the fixed-duration form of the watchdog.
  Duration agent_timeout = Duration::zero();

  /// RTT-relative watchdog threshold: the agent is stale after
  /// `watchdog_rtts` smoothed RTTs with no install/update/control from
  /// it. Scales naturally across fast LAN and slow WAN flows where a
  /// fixed agent_timeout cannot. Zero disables. When both knobs are set
  /// the flow must exceed *both* before falling back (the fixed timeout
  /// acts as a floor for very-short-RTT flows).
  double watchdog_rtts = 0;

  /// Vector mode (§2.4) memory bound: at most this many per-ACK samples
  /// are buffered between reports. A slow agent cannot make the datapath
  /// grow without bound — past the cap, new samples are dropped and the
  /// report goes out truncated (num_acks_folded still counts every ACK,
  /// so the agent can tell samples are missing).
  size_t max_vector_samples = 16384;

  /// Rate-estimator ring capacity, in events (rounded to a power of
  /// two). Two rings per flow make this the dominant per-flow footprint:
  /// 512 entries of 16 B is 16 KB/flow — fine for dozens of hot flows,
  /// ~16 GB at a million resident. Only flows whose program reads
  /// Pkt.snd_rate/Pkt.rcv_rate (or that run in vector mode) write their
  /// rings, so the rest never make those pages resident. Million-flow
  /// configurations shrink it (the anchor fallback keeps estimates
  /// graceful; see util/rate_estimator).
  size_t rate_ring_entries = RateEstimator::kDefaultCapacity;
};

/// Sink for messages the flow wants delivered to the agent. `urgent`
/// requests immediate flush (bypassing the batcher). The message is
/// borrowed: the sink must encode/copy before returning (flows reuse one
/// scratch message per kind across calls — the zero-alloc report path).
using MessageSink = std::function<void(const ipc::Message&, bool urgent)>;

/// The flow state the per-ACK path actually touches, split out of CcpFlow
/// so it packs into ~two cache lines regardless of how much cold
/// configuration/resync state the flow carries. The FlowTable keeps these
/// blocks in their own slab, so the per-ACK path touches one compact
/// block per flow instead of dragging whole CcpFlow objects
/// (rate-estimator rings included) through cache.
struct FlowHot {
  // Enforcement state (primitives (1) and (2) of §2.1).
  uint64_t cwnd_bytes = 0;
  uint64_t cwnd_target_bytes = 0;  // smooth-transition target (== cwnd if off)
  double rate_bps = 0;

  // Measurement state (primitive (3)). tuned_srtt_us remembers the srtt
  // at the last rate-window retune so the retune can be skipped until the
  // estimate actually moves (see CcpFlow::tune_rate_windows).
  Ewma srtt_us{0.125};  // RFC 6298 gain
  double tuned_srtt_us = 0;

  // Control / report cadence.
  bool waiting = false;
  bool urgent_since_report = false;  // damping: one urgent per interval
  bool vector_mode = false;          // §2.4 vector-of-measurements reporting
  TimePoint wait_until{};
  TimePoint watchdog_deadline = TimePoint::max();  // max() = disarmed
  uint32_t acks_since_report = 0;
  uint64_t acks_folded_total = 0;
  // ACKs measured on this flow, ever (plain increment in measure_ack).
  // The global ccp_dp_acks_total counter is fed from deltas of this at
  // report/tick/close time — one atomic RMW per interval instead of a
  // lock-prefixed add on every ACK of the hot path.
  uint64_t acks_seen = 0;
};

class CcpFlow final : public CcModule {
 public:
  /// `hot` points this flow's per-ACK block into the owning FlowTable's
  /// hot slab (stable for the slot's lifetime). Null — standalone flows,
  /// tests — makes the flow own a private block instead; behavior is
  /// identical either way.
  CcpFlow(ipc::FlowId id, FlowConfig config, MessageSink sink,
          FlowHot* hot = nullptr);
  ~CcpFlow() override;

  /// Re-initializes a parked (closed, slot-recycled) flow as a brand-new
  /// flow `id` — the storage-reuse twin of the constructor. Every
  /// internal buffer (estimator rings, fold state, vector samples,
  /// report scratch) keeps its capacity, so steady-state close->create
  /// churn allocates nothing. The caller must have park()ed the flow.
  void reset_for_reuse(ipc::FlowId id, const FlowConfig& config);

  /// Settles telemetry for a flow leaving service without destruction
  /// (the FlowTable parks closed flows for recycling): releases the
  /// in-fallback gauge the destructor would otherwise settle.
  void park();

  // --- stack-facing API (the datapath contract, §2.1) ---

  void on_ack(const AckEvent& ev) override;
  void on_loss(const LossEvent& ev) override;
  void on_timeout(const TimeoutEvent& ev) override;
  // Inline: runs per sent packet and is just the estimator's ring write
  // (nothing at all when the installed program does not read the rate).
  void on_send(const SendEvent& ev) override { snd_rate_.on_bytes(ev.bytes, ev.now); }

  /// Advances time-based control-program waits even when no ACKs arrive.
  void tick(TimePoint now) override;

  /// Current enforcement values the stack must obey.
  uint64_t cwnd_bytes() const override { return hot_->cwnd_bytes; }
  /// 0 means "no pacing" (window-limited only).
  double pacing_rate_bps() const override { return hot_->rate_bps; }

  // --- agent-facing API ---

  /// Compiles and installs a program. Throws lang::ProgramError on a bad
  /// program (the datapath rejects it; the old program keeps running).
  void install(const ipc::InstallMsg& msg, TimePoint now);
  /// Installs an already-compiled shared program with variables bound
  /// positionally (lang::bind_vars). This is the sharded install path:
  /// the control plane compiles an Install once and every owning shard's
  /// flows swap in the same immutable program at a quiescent point.
  void install_compiled(std::shared_ptr<const lang::CompiledProgram> prog,
                        std::vector<double> var_values, bool vector_mode,
                        TimePoint now);
  void update_fields(const ipc::UpdateFieldsMsg& msg, TimePoint now);
  void direct_control(const ipc::DirectControlMsg& msg, TimePoint now);

  /// Switches between fold reporting and vector-of-measurements
  /// reporting (§2.4). In vector mode the flow records one sample per
  /// ACK and ships the raw vector at Report() time.
  void set_vector_mode(bool enabled) {
    hot_->vector_mode = enabled;
    refresh_install_latches();
  }
  bool vector_mode() const { return hot_->vector_mode; }

  // --- burst intake prefetch (CcpDatapath::on_ack_batch) ---

  /// Stage-one prefetch: the flow object's own cache lines. Every address
  /// here is `this` plus a compile-time offset — no field is read — so a
  /// completely cold flow costs no stall to prefetch. Covers the lines
  /// holding the pointers/indices/latches that prefetch_for_ack() must
  /// *load* (hot_, the estimator recording latches and ring heads, the
  /// fold state pointer).
  void prefetch_self() const {
    const char* base = reinterpret_cast<const char*>(this);
    __builtin_prefetch(base);        // id_, config_ head
    __builtin_prefetch(base + 64);   // config_ tail, sink_, hot_ pointer
    // PktInfo is 15 doubles — it straddles two lines, and the per-ACK
    // fill writes most of it.
    const char* pkt = reinterpret_cast<const char*>(&last_pkt_);
    __builtin_prefetch(pkt, 1);
    __builtin_prefetch(pkt + sizeof(last_pkt_) - 1, 1);
    __builtin_prefetch(&snd_rate_);
    __builtin_prefetch(&rcv_rate_);
    __builtin_prefetch(&fold_);
    // Control/report tail: run_control's per-ACK gate reads control_pc_,
    // the watchdog flags, and the report watermark — the cycle profiler
    // shows these lines are where a cold flow's report_emit stage pays.
    const char* ctl = reinterpret_cast<const char*>(&control_pc_);
    __builtin_prefetch(ctl, 1);
    __builtin_prefetch(ctl + 64, 1);
  }
  /// Stage-two prefetch: the lines *behind* the flow's pointers — hot
  /// block, the write positions of the estimator rings that record, fold
  /// state. These require reading fields of the flow, so the burst intake
  /// calls this only after prefetch_self()'s lines have had a few ACKs'
  /// worth of work to arrive; a cold (Zipf-tail) flow's dependent misses
  /// then overlap earlier ACKs instead of serializing in front of its
  /// own. A paused estimator's ring is never written, so fetching its
  /// line would only evict a useful one. GCC finds this body free of
  /// side effects and deletes calls to it (docs/PERF.md "Burst intake").
  void prefetch_for_ack() {
    __builtin_prefetch(hot_, 1);
    if (snd_rate_.recording()) __builtin_prefetch(snd_rate_.write_pos(), 1);
    if (rcv_rate_.recording()) __builtin_prefetch(rcv_rate_.write_pos(), 1);
    __builtin_prefetch(fold_.state().data(), 1);
    __builtin_prefetch(fold_.vars_data());
  }

  // --- introspection (tests, tracing) ---

  ipc::FlowId id() const { return id_; }
  const FlowConfig& config() const { return config_; }
  /// True while the watchdog fallback program is driving this flow.
  bool in_fallback() const { return in_fallback_; }
  Duration srtt() const;
  const lang::FoldMachine& fold() const { return fold_; }
  /// The packet view the most recent event filled (the fold's input).
  const lang::PktInfo& last_pkt() const { return last_pkt_; }
  /// Sending / delivery rate estimators (recording only while the
  /// installed program or vector mode reads them).
  const RateEstimator& snd_rate() const { return snd_rate_; }
  const RateEstimator& rcv_rate() const { return rcv_rate_; }
  /// True when this flow's per-ACK folds run JIT-compiled native code
  /// (JitMode On or Verify at install time and codegen succeeded).
  bool jit_active() const { return fold_.jit_active(); }
  uint64_t reports_sent() const { return report_seq_; }
  uint64_t acks_folded_total() const { return hot_->acks_folded_total; }

  /// Returns the ACKs measured since the last call and marks them
  /// flushed. The owning datapath drains this into the global
  /// ccp_dp_acks_total counter at tick and flow-close (emit_report also
  /// drains, so the counter is fresh at report cadence); keeping the
  /// per-ACK count a plain per-flow field removes the atomic
  /// read-modify-write from the per-ACK path.
  uint64_t take_unreported_acks() {
    const uint64_t d = hot_->acks_seen - acks_flushed_;
    acks_flushed_ = hot_->acks_seen;
    return d;
  }

 private:
  /// Folds `last_pkt_` (filled in place by the event handlers — no
  /// per-ACK PktInfo copy) and runs urgency/control. `ps` is non-null
  /// only on profiler-sampled ACKs (on_ack decides); the stage stamps it
  /// collects cost one predictable branch each when sampling is off.
  void fold_event(TimePoint now, telemetry::ProfSample* ps = nullptr);
  /// Measurement half of an ACK (cwnd ramp, srtt, delivery rate, packet
  /// view, vector sample).
  void measure_ack(const AckEvent& ev);
  /// Per-ACK staleness gate, reduced to a single time compare: the
  /// precise threshold (agent_timeout floor, k smoothed RTTs) is folded
  /// into a cached deadline, recomputed only when the deadline expires —
  /// not per ACK, where the Duration*double srtt math was a measurable
  /// slice of the budget once the JIT shrank the fold itself. A
  /// disarmed watchdog (knobs off, agent never programmed, or already in
  /// fallback) parks the deadline at TimePoint::max(), so armed and
  /// disarmed flows pay the same one branch. The deadline is
  /// conservative (computed from the srtt at arm time): a shrinking RTT
  /// estimate delays fallback by at most one old threshold, and crossing
  /// a deadline while fresh merely re-arms.
  void check_watchdog(TimePoint now) {
    if (now < hot_->watchdog_deadline) return;
    check_watchdog_slow(now);
  }
  void check_watchdog_slow(TimePoint now);
  /// Resyncs the deadline with the armed state after a transition
  /// (install, fallback entry/exit). Epoch forces the next check onto
  /// the slow path, which computes the real deadline; max() disarms.
  void rearm_watchdog() {
    hot_->watchdog_deadline =
        (watchdog_enabled_ && agent_has_programmed_ && !in_fallback_)
            ? TimePoint::epoch()
            : TimePoint::max();
  }
  /// Re-derives the per-ACK latches that depend only on the installed
  /// program and vector mode: whether each rate estimator records — it
  /// does iff something can observe it (the program reads the field in
  /// any block, or vector samples carry it). Must run after every
  /// fold_.install and vector-mode change.
  void refresh_install_latches() {
    snd_rate_.set_recording(program_reads(lang::PktField::SndRateBps));
    rcv_rate_.set_recording(program_reads(lang::PktField::RcvRateBps));
  }
  bool program_reads(lang::PktField f) const {
    return hot_->vector_mode || program_ == nullptr ||
           program_->reads_pkt_field(f);
  }
  void enter_fallback(TimePoint now);
  void record_fallback_exit(TimePoint now);
  void reinstall_default(TimePoint now);
  void fill_pkt_info(const AckEvent& ev);
  void tune_rate_windows();
  void run_control(TimePoint now);
  void emit_report(TimePoint now);
  void emit_urgent(ipc::UrgentKind kind);
  void set_cwnd(double bytes);
  void set_rate(double bps);
  Duration rtt_or_default() const;

  ipc::FlowId id_;
  FlowConfig config_;
  MessageSink sink_;

  // The per-ACK working set, adjacent by construction: the hot block and
  // the packet view the fold reads.
  // Slab-resident (owned_hot_ null) or privately owned: either way hot_
  // is non-null for the flow's whole life and the per-ACK path is one
  // pointer indirection away from the ~2-line block. Declared before
  // hot_ so the member initializer can fall back to the owned block.
  std::unique_ptr<FlowHot> owned_hot_;
  FlowHot* hot_;
  lang::PktInfo last_pkt_;  // most recent event, for control-arg evaluation

  // Measurement state (primitive (3)), recorded only while observed (see
  // refresh_install_latches) and queried behind a short TTL cache rather
  // than walked per ACK.
  RateEstimator snd_rate_;
  RateEstimator rcv_rate_;

  // Program state. The compiled program is immutable and shared across
  // every flow (on any shard) running the same text; all mutable
  // execution state lives in this flow's FoldMachine.
  std::shared_ptr<const lang::CompiledProgram> program_;
  lang::FoldMachine fold_;
  size_t control_pc_ = 0;
  bool advance_pc_on_resume_ = true;
  uint64_t report_seq_ = 0;
  uint64_t acks_flushed_ = 0;  // watermark for take_unreported_acks()

  // Watchdog state. watchdog_enabled_ caches "either knob is set" so the
  // per-ACK staleness check stays one branch when the watchdog is off.
  bool watchdog_enabled_ = false;
  bool agent_has_programmed_ = false;  // a non-default program is active
  bool in_fallback_ = false;
  TimePoint last_agent_contact_{};
  TimePoint fallback_entered_{};  // feeds the recovery-time histogram

  // Vector mode (§2.4 first approach).
  std::vector<double> vector_samples_;  // flattened kVectorFieldsPerPkt per ACK

  // Reusable outgoing messages: emit_report()/emit_urgent() mutate these
  // in place and hand them to the sink by reference, so steady-state
  // reporting allocates nothing once field capacities settle.
  ipc::Message report_msg_{ipc::MeasurementMsg{}};
  ipc::Message urgent_msg_{ipc::UrgentMsg{}};

 public:
  /// Per-packet fields recorded in vector mode, in order:
  /// rtt_us, bytes_acked, lost, ecn, snd_rate, rcv_rate.
  static constexpr size_t kVectorFieldsPerPkt = 6;
};

}  // namespace ccp::datapath
