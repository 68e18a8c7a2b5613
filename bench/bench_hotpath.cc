// End-to-end hot-path throughput: ACK -> per-flow demux -> fold/counters
// -> batched report -> IPC frame -> agent -> control command -> datapath.
//
// This is the steady-state loop the paper's §2.3 scalability argument
// rests on: the datapath must fold millions of ACKs per second locally
// while the agent only sees batched reports. The bench drives both
// datapath implementations against a real CcpAgent over the inproc
// transport, with a per-packet flow-table lookup on every ACK (the demux
// a real stack performs), and reports end-to-end ACKs/sec. The agent is
// pumped inline on the bench thread, so full_acks_per_sec is an inproc
// number and the JSON labels it so (full_acks_per_sec_transport); the
// headline through a real transport is e2ebench's wan_bulk.
//
// The full datapath also runs with telemetry disabled ("stripped"), with
// the ACK watchdog armed, and with the flight recorder on (control-loop
// spans + the sampled cycle profiler). Every comparison — those three
// overheads, interpreter vs JIT, and 64 vs a million resident flows — is
// one bench::paired() estimate (bench_common.hpp), and one gate table
// at the bottom of main() holds every threshold (docs/OBSERVABILITY.md
// "Overhead accounting").
//
// Results land in BENCH_hotpath.json at the repo root, with each gate's
// value and verdict. Run once with --baseline before a hot-path change to
// record the "before" numbers, then plain afterwards; the JSON keeps
// both. `--enforce <ratio>` exits nonzero if any gate fails, the ratchet
// being this run's instrumented throughput >= ratio * the committed
// full_acks_per_sec (CI uses 0.9: fail on >10% regression).
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "agent/agent.hpp"
#include "algorithms/registry.hpp"
#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "datapath/datapath.hpp"
#include "datapath/prototype_datapath.hpp"
#include "ipc/transport.hpp"
#include "ipc/wire.hpp"
#include "lang/compiler.hpp"
#include "lang/jit/jit.hpp"
#include "lang/pkt_fields.hpp"
#include "lang/vm.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/zipf.hpp"

namespace {

using namespace ccp;

constexpr size_t kFlows = 64;
constexpr uint64_t kAcks = 4'000'000;
// ACKs (or folds) per side per paired trial: short slices of long-lived
// loops, so both sides of a trial see the same state of a shared host.
constexpr uint64_t kSlice = 250'000;

/// One datapath and a real agent over the inproc transport, with kFlows
/// flows, run as a single-threaded event loop: ACKs round-robin across
/// the flows on a virtual clock (1 us per ACK, 10 ms RTT => ~156 ACKs
/// folded per report per flow), both IPC directions pumped every 256
/// ACKs. Per-ACK scalar calls: this is the ratcheted headline. The loop
/// lives across step() calls, so a paired comparison can interleave two
/// loops in short slices.
template <typename Datapath>
class Loop {
 public:
  Loop(const datapath::DatapathConfig& dcfg, const datapath::FlowConfig& fcfg)
      : pair_(ipc::make_inproc_pair()),
        dp_(dcfg, [this](std::span<const uint8_t> f) { pair_.a->send_frame(f); }),
        agent_(agent::AgentConfig{},
               [this](std::span<const uint8_t> f) { pair_.b->send_frame(f); }) {
    algorithms::register_builtin_algorithms(agent_);
    for (size_t i = 0; i < kFlows; ++i) {
      ids_.push_back(dp_.create_flow(fcfg, "reno", now_).id());
    }
    pump();
    ev_.bytes_acked = 1500;
    ev_.packets_acked = 1;
    ev_.bytes_in_flight = 64 * 1500;
    ev_.packets_in_flight = 64;
    run(kSlice);  // warm-up: programs installed, capacities settled
  }

  /// Runs `acks` more ACKs. The agent is pumped inline, so thread CPU
  /// time covers the whole loop.
  bench::Rate step(uint64_t acks) {
    return bench::measure(acks, [&] { run(acks); });
  }

 private:
  void pump() {
    pair_.b->drain_frames([this](std::span<const uint8_t> f) { agent_.handle_frame(f); });
    pair_.a->drain_frames([this](std::span<const uint8_t> f) { dp_.handle_frame(f, now_); });
  }

  void run(uint64_t acks) {
    const Duration kAckGap = Duration::from_micros(1);
    const Duration kRtt = Duration::from_millis(10);
    for (const uint64_t end = i_ + acks; i_ < end; ++i_) {
      now_ += kAckGap;
      auto* fl = dp_.flow(ids_[i_ % kFlows]);  // per-packet demux
      ev_.now = now_;
      ev_.rtt_sample = kRtt + Duration::from_nanos(static_cast<int64_t>(i_ % 1024) * 1000);
      fl->on_send(datapath::SendEvent{now_, 1500});
      fl->on_ack(ev_);
      if ((i_ & 255) == 255) {
        dp_.tick(now_);
        pump();
      }
    }
  }

  ipc::TransportPair pair_;
  Datapath dp_;
  agent::CcpAgent agent_;
  std::vector<ipc::FlowId> ids_;
  TimePoint now_ = TimePoint::epoch() + Duration::from_millis(1);
  datapath::AckEvent ev_;
  uint64_t i_ = 0;
};

datapath::DatapathConfig full_config() {
  datapath::DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  return dcfg;
}

// --- million-flow churn (slab-backed flow table at scale) ---

// A front-end fleet datapath holds ~1M concurrent connections with ~100k
// connects/disconnects a second, and connection popularity is heavy-
// tailed. The churn section reproduces that shape: Zipf(s=1.5)-popular
// ACK bursts over the full resident set, with close->create churn ops
// interleaved. Four numbers matter:
//
//   lookup_cost_ratio    CPU time of FlowTable::find over uniform-random
//                        resident ids, over that of the same lookups in
//                        a reference index with the table's layout and
//                        capacity (ReferenceIndex), in the same paired
//                        trials. Host memory speed and probe-chain
//                        branches cancel, so a line touched beyond the
//                        one bucket probe shows at any population: the
//                        storage-layer gate.
//   added_ns_per_ack     CPU ns per Zipf ACK (demux + fold + batching)
//                        that the resident set adds over 64 flows,
//                        reported ungated: the hot flows stay cached, and
//                        the cold-flow state misses that dominate it move
//                        with the host (docs/OBSERVABILITY.md). A
//                        difference, not a ratio: a faster warm path does
//                        not move it.
//   churn_ops_per_sec    close->create pairs sustained while ACKs keep
//                        flowing. Gated >= the fleet's ~100k/sec.
//   rehash bounds        max_step_buckets (largest single migration step)
//                        and forced_drains (must be 0): growth through
//                        every doubling from 64 to 2M buckets without one
//                        unbounded pause.
//
// No agent on this path: a no-op FrameTx stands in for the transport,
// so the numbers isolate the datapath side (demux + fold + batching) the
// way the table change can affect it.

// The agent-installed program every churn-section flow runs: folds per
// ACK (the hot path under test) but reports far beyond the run's virtual
// horizon — the fleet-realistic cadence for a mostly-idle
// million-connection set. One shared text so every install is a
// program-cache hit.
constexpr const char* kChurnProgram =
    "fold { acked := acked + Pkt.bytes_acked init 0;\n"
    "       rtt := ewma(rtt, Pkt.rtt, 0.125) init 0; }\n"
    "control { WaitRtts(100000.0); Report(); }";

constexpr size_t kBurst = 32;

/// One datapath with its resident flows and their popularity law.
struct ZipfSide {
  datapath::CcpDatapath& dp;
  std::vector<ipc::FlowId> resident;
  util::ZipfSampler zipf;
  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
};

/// Drives `acks` ACKs through on_ack_batch in bursts of kBurst, the flow
/// of each drawn Zipf-popular from the resident set, ticking every 2048
/// ACKs. After each burst, `churn_ops` uniform victims are closed and
/// replaced by a fresh flow running kChurnProgram (~1 op per 10 ACKs at
/// 3 per burst — at multi-M ACKs/sec well over the fleet's ~100k
/// ops/sec). Each replacement recycles the parked slot, so steady state
/// allocates nothing; tests/hotpath_alloc_test.cc pins the same op mix.
bench::Rate drive_zipf(ZipfSide& s, Rng& rng, uint64_t acks, int churn_ops,
                       const datapath::FlowConfig& fcfg) {
  const Duration kAckGap = Duration::from_micros(1);
  const Duration kRtt = Duration::from_millis(10);
  // Persistent burst template, the way a poll-mode stack reuses its ring
  // descriptors: each burst refreshes only flow id, clock and RTT sample.
  std::vector<datapath::FlowAck> burst(kBurst);
  for (datapath::FlowAck& fa : burst) {
    fa.sent_bytes = 1500;
    fa.ev.bytes_acked = 1500;
    fa.ev.packets_acked = 1;
    fa.ev.bytes_in_flight = 64 * 1500;
    fa.ev.packets_in_flight = 64;
  }
  ipc::InstallMsg ins;
  ins.program_text = kChurnProgram;
  return bench::measure(acks, [&] {
    for (uint64_t i = 0; i < acks;) {
      size_t nb = 0;
      for (; nb < kBurst && i < acks; ++nb, ++i) {
        s.now += kAckGap;
        datapath::FlowAck& fa = burst[nb];
        fa.flow_id = s.resident[s.zipf(rng) - 1];
        fa.ev.now = s.now;
        fa.ev.rtt_sample =
            kRtt + Duration::from_nanos(static_cast<int64_t>(i % 1024) * 1000);
      }
      s.dp.on_ack_batch(std::span<const datapath::FlowAck>(burst.data(), nb));
      for (int c = 0; c < churn_ops; ++c) {
        ipc::FlowId& victim = s.resident[rng.next_below(s.resident.size())];
        s.dp.close_flow(victim, s.now);
        victim = s.dp.create_flow(fcfg, "reno", s.now).id();
        ins.flow_id = victim;
        s.dp.handle_frame(ipc::encode_frame(ipc::Message{ins}), s.now);
      }
      if ((i & 2047) == 0) s.dp.tick(s.now);
    }
  });
}

/// The lookup gate's yardstick: an index laid out like FlowTable's (16 B
/// buckets, the same capacity and Fibonacci hash, linear probing) over
/// the same ids, probed the same way. A lookup here touches what the
/// table's design promises — the one bucket line, or its neighbour when
/// a probe runs off the end of it — so FlowTable::find over it costs
/// about 1, and whatever find touches beyond that shows above 1.
class ReferenceIndex {
 public:
  ReferenceIndex(const std::vector<ipc::FlowId>& ids, size_t capacity)
      : buckets_(capacity), shift_(64 - std::countr_zero(capacity)) {
    for (const ipc::FlowId id : ids) {
      size_t i = home(id);
      while (buckets_[i].flow != nullptr) i = (i + 1) & (buckets_.size() - 1);
      buckets_[i] = {id, 0, this};
    }
  }

  const void* find(ipc::FlowId id) const {
    for (size_t i = home(id);; i = (i + 1) & (buckets_.size() - 1)) {
      const Bucket& b = buckets_[i];
      if (b.flow == nullptr) return nullptr;
      if (b.key == id) return b.flow;
    }
  }

 private:
  struct Bucket {
    ipc::FlowId key = 0;
    uint32_t slot = 0;  // unused; keeps FlowTable's 16 B bucket layout
    const void* flow = nullptr;
  };
  size_t home(ipc::FlowId id) const {
    return static_cast<size_t>((static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Bucket> buckets_;
  unsigned shift_;
};

/// `n` lookups through `find` over `ids`, cycling from `pos`. They are
/// independent of one another, so the core overlaps their misses the way
/// it does across a burst's demux, and the rate is bounded by the cache
/// lines each lookup touches.
template <typename Find>
bench::Rate lookup_loop(Find&& find, const std::vector<ipc::FlowId>& ids, size_t& pos,
                        uint64_t n) {
  uint64_t found = 0;
  const bench::Rate r = bench::measure(n, [&] {
    for (uint64_t i = 0; i < n; ++i) {
      found += find(ids[pos]) != nullptr;
      pos = pos + 1 == ids.size() ? 0 : pos + 1;
    }
  });
  if (found != n) std::abort();  // every id is resident
  return r;
}

// --- interpreter vs JIT fold execution ---

// The stock program every flow starts with (same shape as the datapath
// default): a handful of counters and filters.
constexpr const char* kStockFoldProgram = R"(
fold {
  acked  := acked + Pkt.bytes_acked                           init 0;
  rtt    := ewma(rtt, Pkt.rtt, 0.125)                         init 0;
  minrtt := if(Pkt.rtt > 0, min(minrtt, Pkt.rtt), minrtt)     init 1e9;
  loss   := loss + Pkt.lost                                   init 0;
  rcv    := Pkt.rcv_rate                                      init 0;
}
control { WaitRtts(1.0); Report(); }
)";

// Arithmetic-dense fold of the kind BBR/Copa-style algorithms install:
// chained filters, a division, a square root, and derived scores. This
// is where interpretation overhead (dispatch + slot traffic per op)
// dominates and native lowering pays off most — the >= 1.3x gate below
// is evaluated on this program.
constexpr const char* kFoldHeavyProgram = R"(
fold {
  acked   := acked + Pkt.bytes_acked                          init 0;
  rtt     := ewma(rtt, Pkt.rtt, 0.125)                        init 0;
  rttvar  := ewma(rttvar, abs(Pkt.rtt - rtt), 0.25)           init 0;
  minrtt  := if(Pkt.rtt > 0, min(minrtt, Pkt.rtt), minrtt)    init 1e9;
  maxrate := max(maxrate, Pkt.rcv_rate)                       init 0;
  bw      := ewma(bw, Pkt.bytes_acked / max(Pkt.rtt, 1), 0.25) init 0;
  loss    := loss + Pkt.lost                                  init 0;
  pace    := sqrt(bw * max(rtt - minrtt, 0) + 1)              init 0;
  util    := if(maxrate > 0, Pkt.snd_rate / maxrate, 0)       init 0;
  score   := 0.8 * score + 0.2 * (bw / max(rtt, 1))           init 0;
}
control { WaitRtts(1.0); Report(); }
)";

/// Pure fold execution of one program under one engine: a FoldMachine
/// installed with the requested JitMode folds synthetic ACKs (RTT
/// jittered per packet so the filters keep moving). This isolates
/// exactly the code the JIT replaces — no demux, batching, or IPC.
class FoldLoop {
 public:
  FoldLoop(const lang::CompiledProgram& prog, bool use_jit) {
    namespace jit = lang::jit;
    const jit::JitMode saved = jit::mode();
    jit::set_mode(use_jit ? jit::JitMode::On : jit::JitMode::Off);
    m_.install(&prog, {});
    jit::set_mode(saved);
    pkt_.bytes_acked = 1500;
    pkt_.packets_acked = 1;
    pkt_.bytes_in_flight = 64.0 * 1500;
    pkt_.packets_in_flight = 64;
    pkt_.snd_rate_bps = 9.5e8;
    pkt_.rcv_rate_bps = 9.0e8;
    pkt_.mss = 1448;
    pkt_.cwnd = 96'000;
    run(kSlice);  // warm-up: scratch sized, branch predictors settled
  }

  bench::Rate step(uint64_t n) {
    return bench::measure(n, [&] { run(n); });
  }

 private:
  void run(uint64_t n) {
    for (const uint64_t end = i_ + n; i_ < end; ++i_) {
      pkt_.rtt_us = 10'000.0 + static_cast<double>(i_ % 1024);
      pkt_.now_us = static_cast<double>(i_);
      pkt_.lost_packets = (i_ % 4096) == 0 ? 1.0 : 0.0;
      m_.on_packet(pkt_);
    }
  }

  lang::FoldMachine m_;
  lang::PktInfo pkt_;
  uint64_t i_ = 0;
};

/// Interpreter (A) vs JIT (B) on one program.
bench::Paired compare_engines(const char* program_text) {
  const auto prog = lang::compile_text_shared(program_text);
  FoldLoop interp(*prog, false);
  FoldLoop native(*prog, true);
  return bench::paired([&] { return interp.step(kSlice); },
                       [&] { return native.step(kSlice); });
}

}  // namespace

int main(int argc, char** argv) {
  bool baseline = false;
  double enforce_ratio = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--baseline") {
      baseline = true;
    } else if (arg == "--enforce" && i + 1 < argc) {
      enforce_ratio = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--baseline] [--enforce <min_ratio>]\n",
                   argv[0]);
      return 2;
    }
  }

  // The committed values, read before this run overwrites them.
  double committed_full = 0.0;
  const bool have_committed = bench::read_json_num(
      bench::bench_json_path(), "hotpath", "full_acks_per_sec", &committed_full);

  bench::banner("hot path (end-to-end)",
                "ACK -> demux -> fold -> batched report -> agent -> control");

  uint64_t steal_ticks = 0;
  int trials_kept = 0;
  const auto report = [&](const char* what, const bench::Paired& p,
                          double value, const char* unit) {
    steal_ticks += p.steal;
    trials_kept += p.kept;
    std::printf("  %-22s %8.2f %s (median of %d/%d paired CPU-time trials, "
                "%d dropped for steal, %llu steal ticks)\n",
                what, value, unit, p.kept, bench::kPairedTrials, p.dropped,
                static_cast<unsigned long long>(p.steal));
  };

  bench::section("full datapath: stripped / watchdog / flight recorder vs instrumented");
  datapath::FlowConfig wd_cfg;
  wd_cfg.watchdog_rtts = 8.0;
  // Telemetry and the flight recorder are process-wide switches, so both
  // sides of those comparisons step one loop: the same flows at the same
  // addresses, and only the switch differs.
  Loop<datapath::CcpDatapath> loop(full_config(), {});
  const auto instrumented = [&] { return loop.step(kSlice); };
  const auto stripped = [&] {
    telemetry::set_enabled(false);
    const bench::Rate r = loop.step(kSlice);
    telemetry::set_enabled(true);
    return r;
  };
  // Spans through the full loop plus the 1-in-1024 cycle profiler, on
  // top of normal instrumentation.
  const auto recorder = [&] {
    telemetry::enable_spans(4096);
    telemetry::set_profile_sample(1024);
    const bench::Rate r = loop.step(kSlice);
    telemetry::set_profile_sample(0);
    telemetry::disable_spans();
    return r;
  };
  // The watchdog is armed per flow at create, so its two sides are
  // separate loops, fresh each trial: a fixed pair of heap layouts would
  // bias every trial the same way. Its thresholds are never reached (the
  // agent refreshes contact every report interval): this measures the
  // armed check, not a fallback transition.
  const auto unarmed = [&] {
    return Loop<datapath::CcpDatapath>(full_config(), {}).step(kSlice);
  };
  const auto watchdog = [&] {
    return Loop<datapath::CcpDatapath>(full_config(), wd_cfg).step(kSlice);
  };
  const bench::Paired tel = bench::paired(stripped, instrumented);
  const bench::Paired wd = bench::paired(unarmed, watchdog);
  const bench::Paired rec = bench::paired(instrumented, recorder);
  const double full_acks = tel.best_wall_b;
  const double telemetry_pct = (1.0 - tel.ratio) * 100.0;
  const double watchdog_pct = (1.0 - wd.ratio) * 100.0;
  const double recorder_pct = (1.0 - rec.ratio) * 100.0;
  std::printf("%zu flows, slices of %llu ACKs; best wall rates:\n", kFlows,
              static_cast<unsigned long long>(kSlice));
  std::printf("  instrumented: %.2f M ACKs/sec\n", full_acks / 1e6);
  std::printf("  stripped:     %.2f M ACKs/sec\n", tel.best_wall_a / 1e6);
  std::printf("  watchdog on:  %.2f M ACKs/sec\n", wd.best_wall_b / 1e6);
  std::printf("  recorder on:  %.2f M ACKs/sec (spans + 1/1024 profiler)\n",
              rec.best_wall_b / 1e6);
  report("telemetry overhead:", tel, telemetry_pct, "%");
  report("watchdog overhead:", wd, watchdog_pct, "%");
  report("recorder overhead:", rec, recorder_pct, "%");
  const double rep_p50_us =
      telemetry::metrics().report_latency_ns.quantile(0.5) / 1e3;
  const double rep_p99_us =
      telemetry::metrics().report_latency_ns.quantile(0.99) / 1e3;
  std::printf("report latency (emit -> agent handler): p50 %.1f us, p99 %.1f us\n",
              rep_p50_us, rep_p99_us);

  bench::section("fold execution: interpreter vs JIT");
  const bench::Paired stock = compare_engines(kStockFoldProgram);
  const bench::Paired heavy = compare_engines(kFoldHeavyProgram);
  std::printf("  jit backend: %s\n",
              lang::jit::available() ? "x86-64 native" : "unavailable (interpreter only)");
  std::printf("  stock program:      interp %.2f M folds/sec, jit %.2f M\n",
              stock.best_wall_a / 1e6, stock.best_wall_b / 1e6);
  std::printf("  fold-heavy program: interp %.2f M folds/sec, jit %.2f M\n",
              heavy.best_wall_a / 1e6, heavy.best_wall_b / 1e6);
  report("stock jit speedup:", stock, stock.ratio, "x");
  report("fold-heavy speedup:", heavy, heavy.ratio, "x");

  bench::section("prototype datapath (fixed measurements, DirectControl)");
  const bench::Rate proto =
      Loop<datapath::PrototypeDatapath>(datapath::DatapathConfig{}, {}).step(kAcks);
  std::printf("%zu flows, %llu ACKs: %.2f M ACKs/sec\n", kFlows,
              static_cast<unsigned long long>(kAcks), proto.wall / 1e6);

  bench::section("million-flow churn (Zipf acks + close/create over the slab table)");
  // CCP_BENCH_CHURN_FLOWS overrides the resident count (quick local runs
  // and memory-tight CI containers; 1M flows with 16-entry rate rings is
  // ~2.5 GB).
  uint64_t resident_flows = 1'000'000;
  if (const char* env = std::getenv("CCP_BENCH_CHURN_FLOWS")) {
    const uint64_t v = std::strtoull(env, nullptr, 10);
    if (v >= 64) resident_flows = v;
  }
  constexpr double kZipfS = 1.5;
  constexpr uint64_t kChurnAcks = 2'000'000;
  constexpr int kChurnOpsPerBurst = 3;
  datapath::FlowConfig churn_fcfg;
  // Small rate rings: the estimator window still works at the bench's
  // ACK cadence, and per-flow memory stays ~2.5 KB instead of ~50 KB —
  // the difference between a 2.5 GB and a 50 GB resident set.
  churn_fcfg.rate_ring_entries = 16;
  datapath::DatapathConfig churn_dcfg;
  churn_dcfg.flush_interval = Duration::from_millis(1);
  churn_dcfg.max_batch_msgs = 32;
  // Tick maintenance budget = 64 flows per tick — the same visit count
  // the 64-flow baseline's full sweep does, so the two sides pay an
  // identical maintenance rate and the difference isolates table scale.
  // (No armed watchdogs here, so sweep rotation latency is inert.)
  churn_dcfg.tick_flow_budget = 64;
  // expected_flows stays 0 on purpose: setting up a million flows then
  // streams the index through every doubling from 64 to 2M buckets, so
  // the rehash stats below cover ~15 incremental grows under live
  // inserts — the exact path the bounded-pause gate checks.
  constexpr size_t kLookupIds = size_t{1} << 20;
  // lookup_cost_ratio ceilings, per population: midway between the
  // largest clean reading and the smallest reading of a build whose find
  // makes a second index probe, to one decimal. 262,144 flows (CI): clean
  // 1.04-1.37, second probe 1.77-2.67; 1M: 1.04-1.14 and 1.74-1.95
  // (docs/OBSERVABILITY.md, "Overhead accounting").
  const double lookup_ceiling = resident_flows < 1'000'000 ? 1.6 : 1.4;
  bench::Paired scale;
  bench::Paired lookup;
  double lookup_cost_ratio = 0.0;
  bench::Rate churn;
  double churn_ops_per_sec = 0.0;
  uint64_t churn_ops = 0;
  datapath::FlowTable::Stats churn_table{};
  double churn_load_factor = 0.0;
  size_t churn_index_cap = 0;
  uint64_t churn_setup_ms = 0;
  {
    datapath::CcpDatapath dp64(churn_dcfg, [](std::span<const uint8_t>) {});
    datapath::CcpDatapath dp_big(churn_dcfg, [](std::span<const uint8_t>) {});
    ZipfSide s64{dp64, {}, util::ZipfSampler(64, kZipfS)};
    ZipfSide big{dp_big, {}, util::ZipfSampler(resident_flows, kZipfS)};
    for (size_t i = 0; i < 64; ++i) {
      s64.resident.push_back(dp64.create_flow(churn_fcfg, "reno", s64.now).id());
    }
    big.resident.reserve(resident_flows);
    const TimePoint s0 = monotonic_now();
    for (uint64_t i = 0; i < resident_flows; ++i) {
      big.resident.push_back(dp_big.create_flow(churn_fcfg, "reno", big.now).id());
      if ((i & 8191) == 0) dp_big.tick(big.now);  // flush create batches
    }
    const TimePoint s1 = monotonic_now();
    churn_setup_ms = static_cast<uint64_t>((s1 - s0).secs() * 1e3);
    // Program every flow, both sides. The stock WaitRtts(1.0) default
    // would have every idle flow emit a report on each maintenance
    // visit, turning the measurement into a report-economics benchmark
    // (the headline section already covers the report path); pacing
    // reports out isolates demux + fold + table, which is what this
    // section gates.
    ipc::InstallMsg churn_ins;
    churn_ins.program_text = kChurnProgram;
    for (ZipfSide* s : {&s64, &big}) {
      for (const ipc::FlowId id : s->resident) {
        churn_ins.flow_id = id;
        s->dp.handle_frame(ipc::encode_frame(ipc::Message{churn_ins}), s->now);
      }
    }
    std::printf("  setup: %llu flows resident in %llu ms (%.2f M creates/sec, "
                "index grew %llu times)\n",
                static_cast<unsigned long long>(resident_flows),
                static_cast<unsigned long long>(churn_setup_ms),
                static_cast<double>(resident_flows) /
                    std::max((s1 - s0).secs(), 1e-9) / 1e6,
                static_cast<unsigned long long>(
                    dp_big.flow_table().stats().grows));

    Rng rng(0x5eedULL);
    const auto acks_on = [&](ZipfSide& s, uint64_t acks, int churn_ops) {
      return drive_zipf(s, rng, acks, churn_ops, churn_fcfg);
    };
    // Warm both sides: programs compiled, staging sized, hot set cached.
    acks_on(s64, kChurnAcks / 10, 0);
    acks_on(big, kChurnAcks / 10, 0);
    scale = bench::paired([&] { return acks_on(s64, kSlice, 0); },
                          [&] { return acks_on(big, kSlice, 0); });
    // Lookups alone, over uniform-random resident ids: FlowTable::find
    // against the same lookups in a reference index.
    std::vector<ipc::FlowId> ids(kLookupIds);
    for (ipc::FlowId& id : ids) id = big.resident[rng.next_below(resident_flows)];
    datapath::FlowTable& table = dp_big.flow_table();
    const ReferenceIndex ref(big.resident, table.index_capacity());
    size_t ref_pos = 0, table_pos = 0;
    lookup = bench::paired(
        [&] {
          return lookup_loop([&](ipc::FlowId id) { return ref.find(id); }, ids, ref_pos,
                             kSlice);
        },
        [&] {
          return lookup_loop([&](ipc::FlowId id) { return table.find(id); }, ids,
                             table_pos, kSlice);
        });
    lookup_cost_ratio = 1.0 / lookup.ratio;
    // Churn phase: the same ACK stream with close->create ops per burst.
    churn = acks_on(big, kChurnAcks, kChurnOpsPerBurst);
    churn_ops = (kChurnAcks + kBurst - 1) / kBurst * kChurnOpsPerBurst;
    churn_ops_per_sec =
        churn.wall * static_cast<double>(churn_ops) / static_cast<double>(kChurnAcks);
    churn_table = dp_big.flow_table().stats();
    churn_load_factor = dp_big.flow_table().load_factor();
    churn_index_cap = dp_big.flow_table().index_capacity();
  }
  std::printf("  acks: %.2f M/sec @ 64 flows, %.2f M/sec @ %llu flows\n",
              scale.best_wall_a / 1e6, scale.best_wall_b / 1e6,
              static_cast<unsigned long long>(resident_flows));
  report("added by scale:", scale, scale.added_ns, "ns/ACK");
  std::printf("  lookups: %.1f M/sec @ %llu flows, reference index %.1f M/sec\n",
              lookup.best_wall_b / 1e6, static_cast<unsigned long long>(resident_flows),
              lookup.best_wall_a / 1e6);
  report("lookup vs reference:", lookup, lookup_cost_ratio, "x");
  std::printf("  churn: %.0f k ops/sec sustained alongside %.2f M acks/sec "
              "(%llu ops, %llu recycled slots)\n",
              churn_ops_per_sec / 1e3, churn.wall / 1e6,
              static_cast<unsigned long long>(churn_ops),
              static_cast<unsigned long long>(churn_table.recycles));
  std::printf("  rehash: %llu grows, %llu steps, max step %llu buckets "
              "(budget %zu), %llu forced drains; load factor %.2f over "
              "%zu buckets\n",
              static_cast<unsigned long long>(churn_table.grows),
              static_cast<unsigned long long>(churn_table.rehash_steps),
              static_cast<unsigned long long>(churn_table.max_step_buckets),
              churn_dcfg.rehash_step_buckets,
              static_cast<unsigned long long>(churn_table.forced_drains),
              churn_load_factor, churn_index_cap);

  // --- gates: one row per threshold, one loop evaluates them all ---
  struct Gate {
    const char* metric;
    std::string_view op;  // "<", "<=" or ">=": the value passes if `value op threshold`
    double threshold;
    double value;
    const char* why;
  };
  std::vector<Gate> gates;
  if (enforce_ratio > 0 && have_committed) {
    gates.push_back({"full_acks_per_sec", ">=", enforce_ratio * committed_full, full_acks,
                     "ratchet: instrumented throughput vs the committed value"});
  }
  gates.insert(gates.end(), {
      {"telemetry_overhead_pct", "<", 3.0, telemetry_pct,
       "always-on counters are plain per-flow increments drained at report cadence"},
      {"watchdog_overhead_pct", "<", 2.0, watchdog_pct,
       "the armed k-RTT staleness check is one compare per ACK"},
      {"recorder_overhead_pct", "<", 6.0, recorder_pct,
       "spans, hop stamps and the 1/1024 profiler bill to the flight-recorder tier"},
  });
  if (lang::jit::available()) {
    gates.push_back({"jit_speedup", ">=", 1.3, heavy.ratio,
                     "native lowering must beat the interpreter on the fold-heavy program"});
  }
  gates.insert(gates.end(), {
      {"lookup_cost_ratio", "<", lookup_ceiling, lookup_cost_ratio,
       "a resident-set lookup touches one bucket line, not two"},
      {"churn_ops_per_sec", ">=", 100'000.0, churn_ops_per_sec,
       "the fleet's ~100k connects/disconnects a second"},
      {"max_step_buckets", "<=", static_cast<double>(churn_dcfg.rehash_step_buckets),
       static_cast<double>(churn_table.max_step_buckets),
       "no index migration step beyond its budget"},
      {"forced_drains", "<=", 0.0, static_cast<double>(churn_table.forced_drains),
       "no grow drains the old index synchronously"},
  });
  bool enforce_passed = true;
  std::string gates_json = "[";
  for (const Gate& g : gates) {
    const bool ok = g.op == ">="   ? g.value >= g.threshold
                    : g.op == "<=" ? g.value <= g.threshold
                                   : g.value < g.threshold;
    enforce_passed = enforce_passed && ok;
    std::printf("[enforce] %-4s %s = %.4g %s %.4g (%s)\n", ok ? "ok" : "FAIL",
                g.metric, g.value, std::string(g.op).c_str(), g.threshold, g.why);
    if (gates_json.size() > 1) gates_json += ", ";
    gates_json += "{\"metric\": \"" + std::string(g.metric) + "\", \"op\": \"" +
                  std::string(g.op) + "\", \"threshold\": " +
                  bench::json_num(g.threshold) + ", \"value\": " +
                  bench::json_num(g.value) + ", \"passed\": " +
                  (ok ? "true" : "false") + "}";
  }
  gates_json += "]";

  const char* full_key = baseline ? "before_full_acks_per_sec" : "full_acks_per_sec";
  const char* proto_key = baseline ? "before_proto_acks_per_sec" : "proto_acks_per_sec";
  bench::update_json_section(
      bench::bench_json_path(), "hotpath",
      {{full_key, bench::json_num(full_acks)},
       {proto_key, bench::json_num(proto.wall)},
       {"full_acks_per_sec_stripped", bench::json_num(tel.best_wall_a)},
       {"telemetry_overhead_pct", bench::json_num(telemetry_pct)},
       {"watchdog_acks_per_sec", bench::json_num(wd.best_wall_b)},
       {"watchdog_overhead_pct", bench::json_num(watchdog_pct)},
       {"recorder_acks_per_sec", bench::json_num(rec.best_wall_b)},
       {"recorder_overhead_pct", bench::json_num(recorder_pct)},
       {"report_latency_p50_us", bench::json_num(rep_p50_us)},
       {"report_latency_p99_us", bench::json_num(rep_p99_us)},
       {"full_acks_per_sec_transport", "\"inproc\""},
       {"n_flows", bench::json_num(static_cast<double>(kFlows))},
       {"acks", bench::json_num(static_cast<double>(kSlice))},
       {"methodology",
        "\"full_* keys drive per-ACK on_send/on_ack (the ratcheted headline, "
        "best wall rate). Every *_overhead_pct, jit_speedup and "
        "churn added_ns_per_ack and lookup_cost_ratio is one bench::paired() estimate: the median over " +
            std::to_string(bench::kPairedTrials) +
            " A/B trials, order alternating, on thread-CPU-time rates, "
            "dropping trials that saw host steal when at least half saw "
            "none. gates records every threshold, value and verdict of the "
            "run that wrote this file\""},
       {"gates", gates_json},
       {"enforce_passed", enforce_passed ? "true" : "false"},
       {"steal_ticks", bench::json_num(static_cast<double>(steal_ticks))},
       {"trials_kept", bench::json_num(trials_kept)}});
  bench::update_json_section(
      bench::bench_json_path(), "jit",
      {{"available", bench::json_num(lang::jit::available() ? 1.0 : 0.0)},
       {"jit_acks_per_sec", bench::json_num(heavy.best_wall_b)},
       {"interp_acks_per_sec", bench::json_num(heavy.best_wall_a)},
       {"jit_speedup", bench::json_num(heavy.ratio)},
       {"stock_jit_acks_per_sec", bench::json_num(stock.best_wall_b)},
       {"stock_interp_acks_per_sec", bench::json_num(stock.best_wall_a)},
       {"stock_jit_speedup", bench::json_num(stock.ratio)},
       {"fold_acks", bench::json_num(static_cast<double>(kSlice))},
       {"methodology",
        "\"pure FoldMachine loop; *_acks_per_sec are best wall rates, "
        "*_speedup the paired CPU-time median; jit_* keys are the "
        "fold-heavy program\""}});
  bench::update_json_section(
      bench::bench_json_path(), "churn",
      {{"resident_flows", bench::json_num(static_cast<double>(resident_flows))},
       {"zipf_s", bench::json_num(kZipfS)},
       {"acks", bench::json_num(static_cast<double>(kChurnAcks))},
       {"acks_per_sec_64", bench::json_num(scale.best_wall_a)},
       {"acks_per_sec_resident", bench::json_num(scale.best_wall_b)},
       {"added_ns_per_ack", bench::json_num(scale.added_ns)},
       {"lookups_per_sec", bench::json_num(lookup.best_wall_b)},
       {"reference_lookups_per_sec", bench::json_num(lookup.best_wall_a)},
       {"lookup_cost_ratio", bench::json_num(lookup_cost_ratio)},
       {"churn_acks_per_sec", bench::json_num(churn.wall)},
       {"churn_ops_per_sec", bench::json_num(churn_ops_per_sec)},
       {"churn_ops", bench::json_num(static_cast<double>(churn_ops))},
       {"setup_ms", bench::json_num(static_cast<double>(churn_setup_ms))},
       {"slot_recycles", bench::json_num(static_cast<double>(churn_table.recycles))},
       {"index_grows", bench::json_num(static_cast<double>(churn_table.grows))},
       {"rehash_steps", bench::json_num(static_cast<double>(churn_table.rehash_steps))},
       {"buckets_migrated",
        bench::json_num(static_cast<double>(churn_table.buckets_migrated))},
       {"max_step_buckets",
        bench::json_num(static_cast<double>(churn_table.max_step_buckets))},
       {"forced_drains",
        bench::json_num(static_cast<double>(churn_table.forced_drains))},
       {"index_capacity", bench::json_num(static_cast<double>(churn_index_cap))},
       {"load_factor", bench::json_num(churn_load_factor)},
       {"methodology",
        "\"Zipf(1.5)-popular ACK bursts of 32 via on_ack_batch, no agent "
        "(no-op FrameTx). added_ns_per_ack = paired CPU-time median of "
        "1e9/rate_resident - 1e9/rate_64, the same driver at both sizes; "
        "lookup_cost_ratio = paired CPU-time median of FlowTable::find over "
        "uniform-random resident ids vs the same lookups in a reference "
        "index of the same layout and capacity; "
        "the churn phase adds 3 uniform-victim close->create ops per burst. "
        "expected_flows=0, so setup drove the index through every "
        "doubling under the bounded incremental rehash\""}});

  return enforce_ratio > 0 && !enforce_passed ? 1 : 0;
}
