// Cross-flow batch execution of the per-ACK path.
//
// The scalar path (CcpFlow::on_ack) walks one flow at a time: measure,
// gate, fold, control. When the stack hands the datapath a burst of ACKs
// — NIC interrupt coalescing, GRO, or a poll loop draining a queue —
// most of those ACKs belong to flows running the *same* compiled fold
// program, and the per-ACK fixed costs (dispatch, telemetry gates,
// profiler checks) repeat identically per lane. AckBatchRunner fuses the
// burst: it prepares every flow (measurement + watchdog) at intake,
// groups lanes by program, gathers each group's hot registers into
// struct-of-arrays slices, folds the whole group in one call — the JIT's
// packed-SIMD batch kernel when the program is eligible, the scalar
// batch interpreter otherwise — and then finishes every lane (urgent +
// control/report) in arrival order so the wire is byte-identical to the
// scalar path.
//
// The dominant shape of a wave is a single group (every lane runs the
// same program on the same engine), and the runner is laid out around
// it: lanes that join the wave's *first* group stage their SoA columns
// at intake — while the flow's hot block and packet view are already in
// cache from ack_prepare — and scatter back during the arrival-order
// finish walk, so the common case touches each flow in exactly two
// passes (intake, finish) with one grouped fold call between them.
// Later groups of a mixed wave take the generic gather/execute/scatter
// path on a secondary arena.
//
// Lanes the fused loop cannot serve bit-exactly peel out to the plain
// scalar on_ack at their arrival position: flows without an installed
// program, vector-mode flows, profiler-sampled ACKs (the per-stage
// stamps belong to the scalar stage layout), and flows whose watchdog
// deadline has expired (fallback entry emits messages mid-sequence,
// which only the scalar path may do).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "datapath/events.hpp"
#include "ipc/message.hpp"
#include "lang/bytecode.hpp"
#include "lang/jit/jit.hpp"

namespace ccp::lang {
struct CompiledProgram;
}

namespace ccp::datapath {

class CcpDatapath;
class CcpFlow;

/// One ACK of a burst, addressed by flow. `sent_bytes` carries the bytes
/// the stack sent for this flow since its previous event (0 = none) so a
/// burst intake replaces the usual on_send/on_ack call pair.
struct FlowAck {
  ipc::FlowId flow_id = 0;
  uint64_t sent_bytes = 0;
  AckEvent ev;
};

/// Executes bursts of ACKs wave by wave (at most lang::kBatchLanes lanes
/// per wave). Owns the struct-of-arrays staging buffers, which grow to
/// the largest program seen and are then reused forever — the steady
/// state is allocation-free (hotpath_alloc_test pins this).
///
/// Not thread-safe: one runner per shard/datapath, called from its owner
/// thread only.
class AckBatchRunner {
 public:
  AckBatchRunner();

  /// Runs every ACK of `burst` against `dp`'s flows. Unknown flow ids
  /// are skipped. Equivalent to the scalar on_send/on_ack sequence in
  /// arrival order, message for message.
  void run(CcpDatapath& dp, std::span<const FlowAck> burst);

 private:
  /// One ≤32-ACK chunk after the intake prefetch sweeps: `look[i]` is
  /// the resolved (possibly seen-tagged) flow for burst[i].
  void run_chunk(std::span<const FlowAck> burst, CcpFlow* const* look);

  // The lane's execution engine (cached per flow; see BatchExec in
  // events.hpp). Doubles as part of the grouping key so one grouped
  // call never mixes engines.
  using Exec = BatchExec;

  struct Lane {
    CcpFlow* flow = nullptr;
    const FlowAck* ack = nullptr;  // full event, read back only on peel
    TimePoint now{};               // finish-time clock (== ack->ev.now)
    Exec exec = Exec::Peel;
    bool urgent = false;   // fold verdict, consumed by ack_finish
    int8_t lead_col = -1;  // staged column in the lead arena, -1 = none
  };

  struct Group {
    const lang::CompiledProgram* prog = nullptr;
    Exec exec = Exec::Peel;
    uint8_t n = 0;
    uint8_t lane[lang::kBatchLanes] = {};  // indices into lanes_, arrival order
  };

  /// One set of struct-of-arrays staging rows, stride lang::kBatchLanes.
  /// Grow-only: sized for the largest program seen, then reused forever.
  struct Arena {
    std::vector<double> fold;
    std::vector<double> pkt;  // kNumPktFields rows, writes gated by the
                              // program's pkt_fields_used bitmap
    std::vector<double> vars;
    std::vector<double> scratch;
    std::vector<double> urgent_before;  // urgent-register snapshot rows
  };

  static Exec classify(CcpFlow& flow, TimePoint now);
  void flush_wave();
  void execute_group(const Group& g, bool staged);
  static void reserve(Arena& a, const lang::CompiledProgram& prog);
  /// Copies one flow's fold registers, vars, used packet fields, and
  /// urgent snapshot into column `col` of the lead arena.
  void stage_lane(CcpFlow& flow, const lang::CompiledProgram& prog, size_t col);
  void gather(const Group& g, Arena& a);
  void scatter_and_judge(const Group& g, Arena& a);

  // Current wave (intake accumulates, flush_wave drains).
  Lane lanes_[lang::kBatchLanes];
  Group groups_[lang::kBatchLanes];
  size_t n_lanes_ = 0;
  size_t n_groups_ = 0;
  uint64_t wave_id_ = 1;    // matched against FlowHot::batch_epoch (0 = never)
  uint32_t burst_stamp_ = 0;  // FlowTable::find_mark prefetch dedup (0 reserved)
  uint64_t wave_seq_ = 0;   // profiler sampling counter (waves, not ACKs)

  Arena lead_;  // wave's first group: staged at intake, scattered at finish
  Arena aux_;   // later groups of mixed waves: gather/execute/scatter
};

}  // namespace ccp::datapath
