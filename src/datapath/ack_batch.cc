#include "datapath/ack_batch.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "datapath/datapath.hpp"
#include "datapath/flow.hpp"
#include "lang/compiler.hpp"
#include "lang/vm.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace ccp::datapath {

using lang::kBatchLanes;

AckBatchRunner::AckBatchRunner() {
  // Pre-size the staging rows for the common case (the default program:
  // 9 folds, a dozen slots) so even the first wave allocates nothing.
  for (Arena* a : {&lead_, &aux_}) {
    a->fold.resize(16 * kBatchLanes);
    a->pkt.resize(lang::kNumPktFields * kBatchLanes);
    a->vars.resize(8 * kBatchLanes);
    a->scratch.resize(32 * kBatchLanes);
    a->urgent_before.resize(8 * kBatchLanes);
  }
}

void AckBatchRunner::reserve(Arena& a, const lang::CompiledProgram& prog) {
  const size_t nf = prog.num_folds();
  const size_t nv = prog.num_vars();
  const size_t ns = prog.fold_block.n_slots;
  const size_t nu = prog.urgent_indices.size();
  // Grow-only staging: steady state never reallocates.
  if (a.fold.size() < nf * kBatchLanes) a.fold.resize(nf * kBatchLanes);
  if (a.vars.size() < std::max<size_t>(nv, 1) * kBatchLanes) {
    a.vars.resize(std::max<size_t>(nv, 1) * kBatchLanes);
  }
  if (a.scratch.size() < std::max<size_t>(ns, 1) * kBatchLanes) {
    a.scratch.resize(std::max<size_t>(ns, 1) * kBatchLanes);
  }
  if (a.urgent_before.size() < std::max<size_t>(nu, 1) * kBatchLanes) {
    a.urgent_before.resize(std::max<size_t>(nu, 1) * kBatchLanes);
  }
}

void AckBatchRunner::stage_lane(CcpFlow& flow,
                                const lang::CompiledProgram& prog,
                                size_t col) {
  lang::FoldMachine& fm = flow.fold_machine();
  const double* st = fm.state_data();
  double* fold = lead_.fold.data();
  const size_t nf = prog.num_folds();
  for (size_t r = 0; r < nf; ++r) fold[r * kBatchLanes + col] = st[r];
  const double* vs = fm.vars_data();
  double* vars = lead_.vars.data();
  const size_t nv = prog.num_vars();
  for (size_t r = 0; r < nv; ++r) vars[r * kBatchLanes + col] = vs[r];
  // Packet rows: only the fields the program actually loads (the
  // compiler's pkt_fields_used bitmap); unread rows keep stale junk
  // the kernel never addresses.
  const double* pk = lang::jit::pkt_ptr(flow.last_pkt());
  double* pkt = lead_.pkt.data();
  for (uint32_t b = prog.pkt_fields_used; b != 0; b &= b - 1) {
    const unsigned f = static_cast<unsigned>(std::countr_zero(b));
    pkt[f * kBatchLanes + col] = pk[f];
  }
  const auto& urgent = prog.urgent_indices;
  double* ub = lead_.urgent_before.data();
  for (size_t u = 0; u < urgent.size(); ++u) {
    ub[u * kBatchLanes + col] = st[urgent[u]];
  }
}

void AckBatchRunner::run(CcpDatapath& dp, std::span<const FlowAck> burst) {
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
  FlowTable& table = dp.flow_table();
  static constexpr size_t kChunk = 32;
  static constexpr uintptr_t kSeenTag = 1;
  CcpFlow* look[kChunk];
  for (size_t base = 0; base < burst.size(); base += kChunk) {
    const size_t n = std::min(burst.size() - base, kChunk);
    const FlowAck* const acks = burst.data() + base;
    if (++burst_stamp_ == 0) ++burst_stamp_;  // 0 is the fresh-bucket value
    for (size_t i = 0; i < n; ++i) table.prefetch(acks[i].flow_id);
    for (size_t i = 0; i < n; ++i) {
      bool fresh = false;
      CcpFlow* f = table.find_mark(acks[i].flow_id, burst_stamp_, fresh);
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
    run_chunk(std::span<const FlowAck>(acks, n), look);
  }
}

void AckBatchRunner::run_chunk(std::span<const FlowAck> burst,
                               CcpFlow* const* look) {
  static constexpr uintptr_t kSeenTag = 1;
  const size_t n = burst.size();
  for (size_t i = 0; i < n; ++i) {
    const FlowAck& fa = burst[i];
    CcpFlow* flow = reinterpret_cast<CcpFlow*>(
        reinterpret_cast<uintptr_t>(look[i]) & ~kSeenTag);
    if (flow == nullptr) continue;

    FlowHot& hot = flow->hot();
    if (hot.batch_epoch == wave_id_) {
      // Second ACK for this flow inside the open wave: its fold must
      // read the first ACK's writes (and its emissions must follow the
      // first's), so the wave closes here and a fresh one starts.
      flush_wave();
    }
    hot.batch_epoch = wave_id_;
    // Intake-time on_send is safe: flows are independent and a same-flow
    // repeat just flushed above, so no earlier lane of this wave can
    // observe this flow's estimator mid-update.
    if (fa.sent_bytes > 0) {
      flow->on_send(SendEvent{fa.ev.now, fa.sent_bytes});
    }

    Lane& ln = lanes_[n_lanes_];
    ln.flow = flow;
    ln.ack = &fa;
    ln.now = fa.ev.now;
    ln.urgent = false;
    ln.lead_col = -1;
    ln.exec = classify(*flow, fa.ev.now);
    if (ln.exec != Exec::Peel) {
      flow->ack_prepare(fa.ev);
      // Group after prepare: the watchdog gate inside ack_prepare may in
      // principle swap the program (in practice expired deadlines peel),
      // and grouping must see whatever program the fold will run.
      const lang::CompiledProgram* prog = flow->fold_machine().program();
      Group* grp = nullptr;
      for (size_t gi = 0; gi < n_groups_; ++gi) {
        if (groups_[gi].prog == prog && groups_[gi].exec == ln.exec) {
          grp = &groups_[gi];
          break;
        }
      }
      if (grp == nullptr) {
        grp = &groups_[n_groups_++];
        grp->prog = prog;
        grp->exec = ln.exec;
        grp->n = 0;
        if (grp == &groups_[0] && ln.exec != Exec::PerLane) {
          reserve(lead_, *prog);
        }
      }
      if (grp == &groups_[0] && ln.exec != Exec::PerLane) {
        // Lead-group lane: stage its SoA columns now, while ack_prepare
        // just pulled the flow's hot block and packet view into cache.
        ln.lead_col = static_cast<int8_t>(grp->n);
        stage_lane(*flow, *prog, grp->n);
      }
      grp->lane[grp->n++] = static_cast<uint8_t>(n_lanes_);
    }
    ++n_lanes_;
    if (n_lanes_ == kBatchLanes) flush_wave();
  }
  flush_wave();
}

// Engine classification for one lane: the cached per-flow class (one
// byte, maintained by CcpFlow across installs and mode switches) plus
// the two genuinely per-ACK gates.
AckBatchRunner::Exec AckBatchRunner::classify(CcpFlow& flow, TimePoint now) {
  const FlowHot& hot = flow.hot();
  // Covers "no installed program" and vector mode (report-dominated;
  // stays on the scalar path).
  if (hot.exec_class == Exec::Peel) return Exec::Peel;
  // An expired watchdog deadline can enter fallback, which installs a
  // program and emits — emission may only happen in arrival order at
  // finish time, so the whole ACK runs scalar.
  if (now >= hot.watchdog_deadline) return Exec::Peel;
  // Profiler-sampled ACKs peel: the per-stage stamp layout (measure /
  // watchdog / fold / emit) is the scalar path's. Same gate as scalar
  // on_ack — the mask's own relaxed load, no enabled() wrapper.
  const uint32_t mask = telemetry::profile_sample_mask();
  if (mask != 0 &&
      (static_cast<uint32_t>(hot.acks_folded_total) & mask) == 0) {
    return Exec::Peel;
  }
  return hot.exec_class;
}

namespace {

/// Duplicates SoA column `from` into column `to` for `rows` rows — the
/// ghost-lane padding for odd-count SIMD groups.
void dup_column(double* soa, size_t rows, size_t from, size_t to) {
  for (size_t r = 0; r < rows; ++r) {
    soa[r * kBatchLanes + to] = soa[r * kBatchLanes + from];
  }
}

}  // namespace

void AckBatchRunner::flush_wave() {
  if (n_lanes_ == 0) return;

  // Wave-sampled FoldBatch stage: one rdtsc pair around the whole
  // grouped execute, sampled by wave (not by ACK — a wave is the unit of
  // batch work). Lead-group scatter happens during finish, so the stage
  // covers the grouped fold execution itself.
  bool sampled = false;
  uint64_t t0 = 0;
  if (telemetry::enabled()) {
    const uint32_t mask = telemetry::profile_sample_mask();
    if (mask != 0 && (static_cast<uint32_t>(wave_seq_) & mask) == 0) {
      sampled = true;
      t0 = telemetry::prof_cycles();
    }
    ++wave_seq_;
  }

  for (size_t gi = 0; gi < n_groups_; ++gi) {
    execute_group(groups_[gi], /*staged=*/gi == 0);
  }

  if (sampled) [[unlikely]] {
    telemetry::prof_record(telemetry::ProfStage::FoldBatch,
                           telemetry::prof_cycles() - t0);
  }

  if (telemetry::enabled()) {
    // Per-wave occupancy accounting: one pass here instead of counter
    // RMWs per ACK. dp_acks itself needs no pass at all — every lane
    // (peeled ones included) bumps its flow's plain acks_seen in
    // measure_ack, drained at report/tick/close.
    size_t simd_lanes = 0;
    for (size_t gi = 0; gi < n_groups_; ++gi) {
      const Group& g = groups_[gi];
      // Single-lane groups run per-lane scalar regardless of class.
      if (g.exec == Exec::Simd && g.n >= 2) simd_lanes += g.n;
    }
    auto& m = telemetry::metrics();
    m.dp_batch_lanes_sum.inc(n_lanes_);
    m.dp_batch_waves.inc();
    m.dp_batch_simd_lanes.inc(simd_lanes);
    m.dp_batch_scalar_lanes.inc(n_lanes_ - simd_lanes);
  }

  // Finish in arrival order. Every report/urgent of the wave is emitted
  // here — peeled lanes run their whole scalar ACK at their original
  // position — so the byte stream matches a scalar replay exactly.
  // Lead-group lanes scatter their fold columns back (and compute their
  // urgency verdict) at their own finish slot: flows are independent, so
  // deferring a lane's state write past an earlier lane's emission
  // cannot be observed.
  const size_t n = n_lanes_;
  const lang::CompiledProgram* lead_prog =
      n_groups_ > 0 ? groups_[0].prog : nullptr;
  // Reset intake state first: a peeled on_ack below may reenter nothing,
  // but keeping the invariant "runner idle during finish" costs nothing.
  n_lanes_ = 0;
  n_groups_ = 0;
  ++wave_id_;
  for (size_t i = 0; i < n; ++i) {
    Lane& ln = lanes_[i];
    if (ln.exec == Exec::Peel) {
      ln.flow->on_ack(ln.ack->ev);
      continue;
    }
    if (ln.lead_col >= 0 &&
        (ln.exec == Exec::Simd || ln.exec == Exec::BatchInterp)) {
      // Deferred scatter + urgency judgment from the lead arena. (Verify
      // lanes never scatter — the per-flow machine stays authoritative —
      // and per-lane-executed lanes cleared lead_col in execute_group.)
      const size_t col = static_cast<size_t>(ln.lead_col);
      const size_t nf = lead_prog->num_folds();
      double* st = ln.flow->fold_machine().state_data();
      const double* fold = lead_.fold.data();
      for (size_t r = 0; r < nf; ++r) st[r] = fold[r * kBatchLanes + col];
      const auto& urgent = lead_prog->urgent_indices;
      const double* ub = lead_.urgent_before.data();
      bool urg = false;
      for (size_t u = 0; u < urgent.size(); ++u) {
        // The same comparison scalar on_packet uses (double !=): a NaN
        // urgent register reads as changed every ACK there too.
        if (st[urgent[u]] != ub[u * kBatchLanes + col]) {
          urg = true;
          break;
        }
      }
      ln.urgent = urg;
    }
    ln.flow->ack_finish(ln.urgent, ln.now);
  }
}

void AckBatchRunner::gather(const Group& g, Arena& a) {
  const lang::CompiledProgram* prog = g.prog;
  const size_t nf = prog->num_folds();
  const size_t nv = prog->num_vars();
  const auto& urgent = prog->urgent_indices;
  const uint32_t used = prog->pkt_fields_used;
  for (size_t i = 0; i < g.n; ++i) {
    CcpFlow* flow = lanes_[g.lane[i]].flow;
    lang::FoldMachine& fm = flow->fold_machine();
    const double* st = fm.state_data();
    for (size_t r = 0; r < nf; ++r) a.fold[r * kBatchLanes + i] = st[r];
    const double* vs = fm.vars_data();
    for (size_t r = 0; r < nv; ++r) a.vars[r * kBatchLanes + i] = vs[r];
    const double* pk = lang::jit::pkt_ptr(flow->last_pkt());
    for (uint32_t b = used; b != 0; b &= b - 1) {
      const unsigned f = static_cast<unsigned>(std::countr_zero(b));
      a.pkt[f * kBatchLanes + i] = pk[f];
    }
    for (size_t u = 0; u < urgent.size(); ++u) {
      a.urgent_before[u * kBatchLanes + i] = st[urgent[u]];
    }
  }
}

void AckBatchRunner::scatter_and_judge(const Group& g, Arena& a) {
  const lang::CompiledProgram* prog = g.prog;
  const size_t nf = prog->num_folds();
  const auto& urgent = prog->urgent_indices;
  for (size_t i = 0; i < g.n; ++i) {
    Lane& ln = lanes_[g.lane[i]];
    double* st = ln.flow->fold_machine().state_data();
    for (size_t r = 0; r < nf; ++r) st[r] = a.fold[r * kBatchLanes + i];
    bool urg = false;
    for (size_t u = 0; u < urgent.size(); ++u) {
      if (st[urgent[u]] != a.urgent_before[u * kBatchLanes + i]) {
        urg = true;
        break;
      }
    }
    ln.urgent = urg;
  }
}

void AckBatchRunner::execute_group(const Group& g, bool staged) {
  const size_t n = g.n;
  if (g.exec == Exec::PerLane || n == 1) {
    // Scalar-JIT programs without a batch kernel, and any single-lane
    // group: the per-flow machine is already the fastest correct engine.
    // (A single Verify lane still dual-runs inside on_packet.) Staged
    // columns are abandoned: clear lead_col so finish does not scatter
    // stale staging over the authoritative fold result.
    for (size_t i = 0; i < n; ++i) {
      Lane& ln = lanes_[g.lane[i]];
      ln.lead_col = -1;
      ln.urgent = ln.flow->fold_machine().on_packet(ln.flow->last_pkt());
    }
    return;
  }

  Arena& a = staged ? lead_ : aux_;
  if (!staged) {
    reserve(a, *g.prog);
    gather(g, a);
  }

  if (g.exec == Exec::Verify) {
    // Three-way: the batch engine folds a shadow SoA slice, the per-flow
    // machine folds authoritatively (itself comparing scalar JIT against
    // the interpreter), and the shadow columns must match the
    // authoritative registers bit for bit. No scatter — the batch result
    // can only ever skew the mismatch counter, never the congestion
    // response.
    lang::jit::BatchFoldFn fn =
        lanes_[g.lane[0]].flow->fold_machine().batch_fn();
    const lang::CompiledProgram* prog = g.prog;
    if (fn != nullptr) {
      if (n % 2 != 0) {
        dup_column(a.fold.data(), prog->num_folds(), n - 1, n);
        dup_column(a.vars.data(), prog->num_vars(), n - 1, n);
        dup_column(a.pkt.data(), lang::kNumPktFields, n - 1, n);
      }
      fn(a.fold.data(), a.pkt.data(), a.vars.data(), a.scratch.data(),
         (n + 1) / 2);
    } else {
      lang::eval_block_batch(prog->fold_block, a.fold.data(), a.pkt.data(),
                             a.vars.data(), a.scratch.data(), n);
    }
    const size_t nf = prog->num_folds();
    for (size_t i = 0; i < n; ++i) {
      Lane& ln = lanes_[g.lane[i]];
      ln.urgent = ln.flow->fold_machine().on_packet(ln.flow->last_pkt());
      const double* st = ln.flow->fold_machine().state_data();
      for (size_t r = 0; r < nf; ++r) {
        if (std::bit_cast<uint64_t>(st[r]) !=
            std::bit_cast<uint64_t>(a.fold[r * kBatchLanes + i])) {
          telemetry::metrics().jit_verify_mismatches.inc();
          break;
        }
      }
    }
    return;
  }

  // SoA execution: one grouped fold call over the arena. The lead group
  // was staged at intake and scatters during finish; later groups
  // gathered above and scatter here.
  if (g.exec == Exec::Simd) {
    lang::jit::BatchFoldFn fn =
        lanes_[g.lane[0]].flow->fold_machine().batch_fn();
    if (n % 2 != 0) {
      // Ghost lane: duplicate the last live column so the pair loop has
      // two real operands; the ghost's results are never scattered.
      dup_column(a.fold.data(), g.prog->num_folds(), n - 1, n);
      dup_column(a.vars.data(), g.prog->num_vars(), n - 1, n);
      dup_column(a.pkt.data(), lang::kNumPktFields, n - 1, n);
    }
    fn(a.fold.data(), a.pkt.data(), a.vars.data(), a.scratch.data(),
       (n + 1) / 2);
  } else {
    lang::eval_block_batch(g.prog->fold_block, a.fold.data(), a.pkt.data(),
                           a.vars.data(), a.scratch.data(), n);
  }
  if (!staged) scatter_and_judge(g, a);
}

}  // namespace ccp::datapath
