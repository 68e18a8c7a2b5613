#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "datapath/flow.hpp"
#include "scenario/library.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace e2e {
namespace {

using ccp::Rng;
using datapath::FlowAck;

TimePoint vt_at(int64_t ns) { return TimePoint::from_nanos(ns); }

// ------------------------------------------------------------- counters

/// Counters read around the measured phase; deltas feed the per-layer
/// metrics. Telemetry counters are safe to read from any thread.
struct Counters {
  uint64_t frames_sent = 0, msgs_sent = 0, bytes_sent = 0;
  uint64_t ft_grows = 0, ft_rehash = 0, ft_recycles = 0;
  uint64_t reports = 0, urgents = 0, installs = 0, install_errors = 0;
  uint64_t jit_compiles = 0, jit_fallbacks = 0, evictions = 0;
  uint64_t simd = 0, scalar = 0, ring_full = 0, send_failures = 0;
  uint64_t agent_decode = 0, agent_unknown = 0;
};

Counters snap(Harness* h) {
  Counters c;
  const auto& m = ccp::telemetry::metrics();
  if (h != nullptr) {
    const auto& s = h->dp().stats();
    c.frames_sent = s.frames_sent;
    c.msgs_sent = s.msgs_sent;
    c.bytes_sent = s.bytes_sent;
    const auto& ft = h->dp().flow_table().stats();
    c.ft_grows = ft.grows;
    c.ft_rehash = ft.rehash_steps;
    c.ft_recycles = ft.recycles;
  }
  c.reports = m.dp_reports.value();
  c.urgents = m.dp_urgents.value();
  c.installs = m.dp_installs.value();
  c.install_errors = m.dp_install_errors.value();
  c.jit_compiles = m.jit_compiles.value();
  c.jit_fallbacks = m.jit_fallbacks.value();
  c.evictions = m.lang_cache_evictions.value();
  c.simd = m.dp_batch_simd_lanes.value();
  c.scalar = m.dp_batch_scalar_lanes.value();
  c.ring_full = m.ipc_ring_full.value();
  c.send_failures = m.ipc_send_failures.value();
  c.agent_decode = m.agent_decode_errors.value();
  c.agent_unknown = m.agent_unknown_flow.value();
  return c;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Everything the per-layer metrics are derived from.
struct LayerIn {
  double wall_ns = 0;
  uint64_t acks = 0;
  Counters c0, c1;
  uint64_t drain_calls = 0, drained = 0, down_frames = 0;
  std::vector<double> up_wait, down_wait;
  double load_factor = 0;
  std::vector<std::pair<std::string, std::pair<double, double>>> scenarios;  // wall_s, pkts
};

std::vector<Named> layer_metrics(const LayerIn& in,
                                 const std::vector<std::unique_ptr<ThreadTrace>>& threads,
                                 std::vector<std::string>& failures, bool ledger_check) {
  KindAgg agg[kNumKinds];
  int64_t driver_self = 0;
  for (const auto& t : threads) {
    for (int k = 0; k < kNumKinds; ++k) {
      agg[k].count += t->agg[k].count;
      agg[k].total_ns += t->agg[k].total_ns;
      agg[k].self_ns += t->agg[k].self_ns;
      if (t->name == "driver") driver_self += t->agg[k].self_ns;
    }
  }
  auto self_per = [&](int k, double n) { return ratio(static_cast<double>(agg[k].self_ns), n); };
  auto self_per_call = [&](int k) { return self_per(k, static_cast<double>(agg[k].count)); };
  const Counters& a = in.c0;
  const Counters& b = in.c1;
  const double acks = static_cast<double>(in.acks);
  const double frames = static_cast<double>(b.frames_sent - a.frames_sent);
  const double msgs = static_cast<double>(b.msgs_sent - a.msgs_sent);
  const double installs = static_cast<double>(b.installs - a.installs);
  const double lanes = static_cast<double>((b.simd - a.simd) + (b.scalar - a.scalar));

  std::vector<Named> out = {
      {"datapath.ack_intake.ns_per_ack", self_per(kAckIntake, acks), "ns"},
      {"datapath.tick.ns_per_call", self_per_call(kTick), "ns"},
      {"datapath.flush.ns_per_call", self_per_call(kFlush), "ns"},
      {"datapath.handle_frame.ns_per_frame", self_per_call(kDpHandle), "ns"},
      {"datapath.create_flow.ns", self_per_call(kCreateFlow), "ns"},
      {"datapath.close_flow.ns", self_per_call(kCloseFlow), "ns"},
      {"datapath.acks_per_report", ratio(acks, static_cast<double>(b.reports - a.reports)),
       "ack/report"},
      {"datapath.msgs_per_frame", ratio(msgs, frames), "msg/frame"},
      {"datapath.bytes_per_frame",
       ratio(static_cast<double>(b.bytes_sent - a.bytes_sent), frames), "B/frame"},
      {"datapath.urgents", static_cast<double>(b.urgents - a.urgents), "count"},
      {"datapath.batch.simd_share", ratio(static_cast<double>(b.simd - a.simd), lanes), "ratio"},
      {"datapath.flow_table.grows", static_cast<double>(b.ft_grows - a.ft_grows), "count"},
      {"datapath.flow_table.rehash_steps", static_cast<double>(b.ft_rehash - a.ft_rehash),
       "count"},
      {"datapath.flow_table.recycles", static_cast<double>(b.ft_recycles - a.ft_recycles),
       "count"},
      {"datapath.flow_table.load_factor", in.load_factor, "ratio"},
      {"lang.installs", installs, "count"},
      {"lang.install_errors", static_cast<double>(b.install_errors - a.install_errors), "count"},
      {"lang.compiles_per_install",
       ratio(static_cast<double>(b.jit_compiles - a.jit_compiles), installs), "ratio"},
      {"lang.jit_fallbacks", static_cast<double>(b.jit_fallbacks - a.jit_fallbacks), "count"},
      {"lang.cache_evictions", static_cast<double>(b.evictions - a.evictions), "count"},
      {"ipc.up.send_ns_per_frame", self_per_call(kUpSend), "ns"},
      {"ipc.up.wait_us_p50", percentile(in.up_wait, 50), "us"},
      {"ipc.up.wait_us_p99", percentile(in.up_wait, 99), "us"},
      {"ipc.down.send_ns_per_frame", self_per_call(kDownSend), "ns"},
      {"ipc.down.wait_us_p50", percentile(in.down_wait, 50), "us"},
      {"ipc.down.wait_us_p99", percentile(in.down_wait, 99), "us"},
      {"ipc.drain.ns_per_call", self_per_call(kDrain), "ns"},
      {"ipc.drain.frames_per_call",
       ratio(static_cast<double>(in.drained), static_cast<double>(in.drain_calls)), "frame/call"},
      {"ipc.send_failures", static_cast<double>(b.send_failures - a.send_failures), "count"},
      {"ipc.ring_full", static_cast<double>(b.ring_full - a.ring_full), "count"},
      {"agent.handle_frame.ns_per_frame", self_per_call(kAgentHandle), "ns"},
      {"agent.handle_frame.ns_per_msg", self_per(kAgentHandle, msgs), "ns"},
      {"agent.frames_out_per_msg_in", ratio(static_cast<double>(in.down_frames), msgs),
       "frame/msg"},
      {"agent.busy_share", ratio(static_cast<double>(agg[kAgentHandle].total_ns), in.wall_ns),
       "ratio"},
      {"agent.decode_errors", static_cast<double>(b.agent_decode - a.agent_decode), "count"},
      {"agent.unknown_flow_msgs", static_cast<double>(b.agent_unknown - a.agent_unknown),
       "count"},
  };
  static const char* kHandlers[3] = {"init_ns", "on_measurement_ns", "on_urgent_ns"};
  for (int alg = 0; alg < 4; ++alg) {
    for (int h = 0; h < 3; ++h) {
      out.push_back({std::string("algorithms.") + kTimedAlgs[alg] + "." + kHandlers[h],
                     self_per_call(kAlgBase + 3 * alg + h), "ns"});
    }
  }
  for (const auto& name : ccp::scenario::builtin_scenario_names()) {
    double wall = 0, pkts = 0;
    for (const auto& s : in.scenarios) {
      if (s.first == name) {
        wall = s.second.first;
        pkts = s.second.second;
      }
    }
    out.push_back({"scenario." + name + ".wall_s", wall, "s"});
    out.push_back({"scenario." + name + ".pkts", pkts, "pkt"});
  }
  const double unattributed = ratio(in.wall_ns - static_cast<double>(driver_self), acks);
  out.push_back({"bench.gen.ns_per_ack", self_per(kGen, acks), "ns"});
  out.push_back({"ledger.unattributed_ns_per_ack", unattributed, "ns"});
  if (ledger_check && acks > 0) {
    const double whole = in.wall_ns / acks;
    if (std::abs(unattributed) > 0.10 * whole) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "ledger: driver-thread self times leave %.1f of %.1f ns/ACK unattributed (>10%%)",
                    unattributed, whole);
      failures.emplace_back(line);
    }
  }
  return out;
}

// ----------------------------------------------------------- run phases

/// Repeats a set-up that takes microseconds until `min_total_s` have
/// passed; returns the median time of one.
double timed_setups(const std::function<void()>& build, double min_total_s, int& reps) {
  std::vector<double> t;
  double total = 0;
  while (total < min_total_s && t.size() < 100000) {
    const int64_t t0 = now_ns();
    build();
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    t.push_back(s);
    total += s;
  }
  reps = static_cast<int>(t.size());
  return median(t);
}

/// The measured rounds of every trial in a run. Each round yields a
/// rate, a CPU cost per operation and latency percentiles.
///
/// The host shares its cores, which moves a round two ways. Steal on the
/// benchmark's CPUs only ever slows a round, so only the least-stolen
/// rounds count: those with no steal tick, or, when fewer than a quarter
/// are clean, the quarter with the fewest ticks. Contention the guest
/// cannot see (a busy hyperthread sibling, shared cache) switches whole
/// stretches of a run between a slow and a fast state, in proportions
/// that differ from run to run. A median would flip between the states,
/// so the run reports the slow state, which every run visits: the 10th
/// percentile of round rates and the 90th of per-round costs and
/// latencies.
struct Rounds {
  struct One {
    double rate, cpu, p50, p99;
    uint64_t steal;  // host steal ticks on the benchmark's CPUs
  };
  std::vector<One> all;
  std::vector<double> cur;  // latency samples of the round in progress
  size_t samples = 0;
  uint64_t steal_ticks = 0;

  void close(double ops, int64_t wall_ns, int64_t cpu_ns, uint64_t steal) {
    steal_ticks += steal;
    if (ops > 0 && wall_ns > 0) {
      all.push_back({ops / (static_cast<double>(wall_ns) / 1e9),
                     static_cast<double>(cpu_ns) / ops, percentile(cur, 50),
                     percentile(cur, 99), steal});
      samples += cur.size();
    }
    cur.clear();
  }
  std::vector<One> used() const {
    std::vector<double> steal;
    for (const auto& x : all) steal.push_back(static_cast<double>(x.steal));
    const double limit = percentile(steal, 25);
    std::vector<One> out;
    for (const auto& x : all) {
      if (static_cast<double>(x.steal) <= limit) out.push_back(x);
    }
    return out;
  }
  void into(Result& r) const {
    std::vector<double> rate, cpu, p50, p99;
    for (const auto& x : used()) {
      rate.push_back(x.rate);
      cpu.push_back(x.cpu);
      p50.push_back(x.p50);
      p99.push_back(x.p99);
    }
    r.ops_per_sec = percentile(rate, 10);
    r.cpu_ns_per_op = percentile(cpu, 90);
    r.lat_p50_us = percentile(p50, 90);
    r.lat_p99_us = percentile(p99, 90);
    r.lat_samples = samples;
    r.steal_ticks = steal_ticks;
  }
  std::string describe() const {
    std::vector<double> rate;
    for (const auto& x : all) rate.push_back(x.rate);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "rounds=%zu used=%zu round_rate_p10/p50/p90=%.4g/%.4g/%.4g", all.size(),
                  used().size(), percentile(rate, 10), percentile(rate, 50),
                  percentile(rate, 90));
    return buf;
  }
};

/// Trials per untraced run: each builds a fresh world (its set-up time is
/// one sample of setup_s) and measures an equal share of the run.
int trials(const RunOptions& o) { return o.traced ? 1 : 5; }

/// Detects driver stalls: an iteration that starts more than 1 ms after
/// the previous one (the thread lost its CPU, or something blocked).
struct StallMeter {
  int64_t last = 0;
  void tick(Result& r) {
    const int64_t t = now_ns();
    if (last != 0 && t - last > 1'000'000) {
      ++r.stalls;
      r.stall_ms += static_cast<double>(t - last) / 1e6;
    }
    last = t;
  }
};

void fail(Result& r, uint64_t n, const std::string& what) {
  if (n == 0) return;
  r.failed += n;
  r.failures.push_back(what + " (" + std::to_string(n) + ")");
}

/// Failures every harness workload shares: transport, pairing, decode,
/// install and unknown-flow errors, and frames left unanswered.
void link_checks(Harness& h, bool quiet_ok, uint64_t ring_full0, Result& r) {
  const LinkFailures& f = h.failures();
  fail(r, f.up_send + f.down_send, "ipc send_frame returned false");
  fail(r, f.up_overflow + f.down_overflow, "more unanswered frames than the tag ring holds");
  fail(r, f.tag_missing, "agent frame without a pairing tag");
  fail(r, ccp::telemetry::metrics().ipc_ring_full.value() - ring_full0, "shm ring full");
  fail(r, h.dp().stats().decode_errors, "datapath decode errors");
  fail(r, h.dp().stats().install_errors, "datapath install errors");
  fail(r, h.agent().stats().decode_errors, "agent decode errors");
  fail(r, h.agent().stats().unknown_flow_msgs, "agent unknown-flow messages");
  fail(r, h.agent().stats().unknown_algorithm, "agent unknown algorithm");
  if (!quiet_ok) fail(r, h.unresolved(), "frames still unanswered at the end of the run");
  r.attempted += h.up_frames() + h.down_frames();
}

void start_trace(const RunOptions& o) {
  if (o.traced) Tracer::begin();
}

/// Per-run traced bookkeeping around the measured phase.
struct TracedPhase {
  LayerIn in;
  uint64_t drain0 = 0, drained0 = 0, down0 = 0;
  void begin(Harness& h) {
    in.c0 = snap(&h);
    drain0 = h.drain_calls();
    drained0 = h.drained_frames();
    down0 = h.down_frames();
  }
  void end(Harness& h) {
    in.c1 = snap(&h);
    in.drain_calls = h.drain_calls() - drain0;
    in.drained = h.drained_frames() - drained0;
    in.down_frames = h.down_frames() - down0;
    in.load_factor = h.dp().flow_table().load_factor();
  }
};

const char* kAlgMix3[3] = {"reno", "cubic", "bbr"};

}  // namespace

// ------------------------------------------------------------- wan_bulk

Result run_wan_bulk(const RunOptions& o) {
  constexpr size_t kFlows = 1024;
  constexpr size_t kBurst = 32;
  constexpr int64_t kAckNs = 120;         // 100 Gbit/s of 1500 B packets
  constexpr int64_t kTickNs = 1'000'000;  // datapath tick every 1 ms virtual
  constexpr int64_t kRttNs = 10'000'000;
  constexpr uint64_t kRound = uint64_t{1} << 17;
  constexpr uint64_t kWarmup = uint64_t{1} << 19;
  Result r;

  Rng rng(o.seed);
  std::vector<int64_t> jitter(4096);
  for (auto& j : jitter) j = static_cast<int64_t>(rng.uniform(-1e6, 1e6));  // ±1 ms
  std::vector<uint64_t> inflight(kFlows);
  for (auto& x : inflight) x = 1500 * (40 + rng.next_below(80));

  HarnessConfig hc;
  hc.dp.flush_interval = Duration::from_millis(1);
  hc.dp.max_batch_msgs = 64;
  hc.timed_algorithms = o.traced;
  datapath::FlowConfig fcfg;

  std::unique_ptr<Harness> h;
  std::vector<ipc::FlowId> ids;
  int64_t vt = 0, next_tick = 0;
  uint64_t seq = 0, acks = 0;
  Rounds rounds;               // latency: service time of one 32-ACK burst
  std::vector<double> loop_us; // report -> command loops, reported beside it
  std::vector<double> setups, rss;  // per trial
  bool measuring = false;
  StallMeter stall;
  FlowAck burst[kBurst];

  auto pump = [&](uint64_t n) {
    for (uint64_t done = 0; done < n; done += kBurst) {
      {
        Span s(kGen);
        if (measuring && !o.traced) stall.tick(r);
        for (size_t j = 0; j < kBurst; ++j) {
          const uint64_t k = seq++;
          const size_t f = k % kFlows;
          FlowAck& a = burst[j];
          a.flow_id = ids[f];
          a.sent_bytes = 1500;
          a.ev.now = vt_at(vt);
          a.ev.bytes_acked = 1500;
          a.ev.bytes_delivered = 1500;
          a.ev.packets_acked = 1;
          a.ev.rtt_sample = Duration::from_nanos(kRttNs + jitter[k & 4095]);
          a.ev.bytes_in_flight = inflight[f];
          vt += kAckNs;
        }
      }
      {
        Span s(kAckIntake);
        const int64_t b0 = measuring ? now_ns() : 0;
        h->dp().on_ack_batch(burst);
        if (measuring) rounds.cur.push_back(static_cast<double>(now_ns() - b0) / 1e3);
      }
      h->set_now(vt_at(vt));
      if (vt >= next_tick) {
        Span s(kTick);
        h->dp().tick(vt_at(vt));
        next_tick = vt + kTickNs;
      }
      h->drain();
      h->resolve();
    }
  };

  auto build = [&] {
    h.reset();
    h = std::make_unique<Harness>(hc);
    h->on_complete = [&](const UpRec& u) {
      if (measuring && u.received > 0) {
        loop_us.push_back(static_cast<double>(u.last_apply_ns - u.send_ns) / 1e3);
      }
    };
    ids.clear();
    vt = 1'000'000'000;
    next_tick = vt;
    seq = 0;
    for (size_t i = 0; i < kFlows; ++i) {
      ids.push_back(h->dp().create_flow(fcfg, kAlgMix3[i % 3], vt_at(vt)).id());
      if (i % 64 == 63) {
        h->drain();
        h->resolve();
      }
    }
    h->quiesce(10);
    pump(kWarmup);  // programs compiled, rings and caches filled
    h->quiesce(10);
  };

  for (int trial = 0; trial < trials(o); ++trial) {
    const uint64_t ring_full0 = ccp::telemetry::metrics().ipc_ring_full.value();
    reset_peak_rss();
    const int64_t s0 = now_ns();
    build();
    setups.push_back(static_cast<double>(now_ns() - s0) / 1e9);

    TracedPhase tp;
    start_trace(o);
    tp.begin(*h);
    measuring = true;
    stall.last = 0;
    const int64_t w0 = now_ns();
    const uint64_t acks0 = acks;
    while (now_ns() - w0 < static_cast<int64_t>(o.seconds / trials(o) * 1e9)) {
      const uint64_t st0 = steal_ticks();
      const int64_t t0 = now_ns(), c0 = process_cpu_ns();
      pump(kRound);
      acks += kRound;
      rounds.close(static_cast<double>(kRound), now_ns() - t0, process_cpu_ns() - c0,
                   steal_ticks() - st0);
    }
    const int64_t wall = now_ns() - w0;
    h->set_now(vt_at(vt));
    const bool quiet = h->quiesce(10);
    measuring = false;
    tp.end(*h);
    h->stop_agent();
    rss.push_back(peak_rss_mb());

    // Output checks: every report reached the agent, nothing was dropped.
    link_checks(*h, quiet, ring_full0, r);
    uint64_t dp_reports = 0;
    for (const auto id : ids) dp_reports += h->dp().flow(id)->reports_sent();
    r.attempted += 1;
    if (h->agent().stats().measurements != dp_reports) {
      fail(r, 1, "agent measurements " + std::to_string(h->agent().stats().measurements) +
                     " != datapath reports " + std::to_string(dp_reports));
    }
    if (o.traced) {
      tp.in.wall_ns = static_cast<double>(wall);
      tp.in.acks = acks - acks0;
      tp.in.down_wait = h->down_wait_us();
      tp.in.up_wait = h->up_wait_us();
      r.threads = Tracer::collect();
      const size_t before = r.failures.size();
      r.layer = layer_metrics(tp.in, r.threads, r.failures, /*ledger_check=*/true);
      r.attempted += 1;
      r.failed += r.failures.size() - before;
    }
  }
  h.reset();
  r.setup_s = median(setups);
  r.setup_reps = static_cast<int>(setups.size());
  r.peak_rss_mb = median(rss);
  rounds.into(r);

  r.named = {{"acks_per_sec", r.ops_per_sec, "ACK/s"},
             {"cpu_ns_per_ack", r.cpu_ns_per_op, "ns"},
             {"burst_p50_us", r.lat_p50_us, "us"},
             {"burst_p99_us", r.lat_p99_us, "us"},
             {"loop_p50_us", percentile(loop_us, 50), "us"},
             {"loop_p99_us", percentile(loop_us, 99), "us"}};
  r.notes.push_back("acks=" + std::to_string(acks) + " " + rounds.describe() +
                    " loop_samples=" + std::to_string(loop_us.size()));
  return r;
}

// ------------------------------------------------------------- ctl_loop

Result run_ctl_loop(const RunOptions& o) {
  constexpr size_t kFlows = 16;
  constexpr int64_t kAckGapNs = 1'000'000;  // > any RTT sample: every ACK ends an RTT
  constexpr int64_t kRoundNs = 20'000'000;
  Result r;

  HarnessConfig hc;
  hc.link = HarnessConfig::Link::UnixSocket;
  hc.dp.flush_interval = Duration::zero();  // flush per report
  hc.timed_algorithms = o.traced;
  datapath::FlowConfig fcfg;

  Rng rng(o.seed);
  std::unique_ptr<Harness> h;
  std::vector<ipc::FlowId> ids;
  std::vector<uint32_t> outstanding(kFlows);
  std::vector<uint64_t> loss_cwnd(kFlows);  // cwnd before an injected loss, 0 = none
  std::vector<uint32_t> since_loss(kFlows);
  int64_t vt = 0;
  uint64_t loops = 0, acks = 0, losses = 0, loss_checked = 0, lost_not_cut = 0;
  Rounds rounds;
  std::vector<double> setups, rss;  // per trial
  bool measuring = false;

  auto step = [&](size_t f) {
    datapath::AckEvent ev;
    datapath::SendEvent send;
    bool loss = false;
    {
      Span s(kGen);
      vt += kAckGapNs;
      ev.now = vt_at(vt);
      ev.bytes_acked = 1500;
      ev.bytes_delivered = 1500;
      ev.packets_acked = 1;
      ev.rtt_sample = Duration::from_nanos(50'000 + static_cast<int64_t>(rng.next_below(100'000)));
      ev.ecn = rng.next_double() < 0.05;
      ev.bytes_in_flight = 30'000;
      ++since_loss[f];
      // 1-in-1000 loss, never inside the algorithms' two-report cut
      // damping window, so every loss must produce a cut.
      loss = rng.next_double() < 0.001 && since_loss[f] > 8;
      if (loss) {
        ev.newly_lost_packets = 1;
        since_loss[f] = 0;
      }
      send.now = ev.now;
      send.bytes = 1500;
    }
    h->set_ctx(static_cast<int64_t>(f));
    h->set_now(vt_at(vt));
    const uint64_t before = h->up_frames();
    {
      Span s(kAckIntake);
      datapath::CcpFlow* flow = h->dp().flow(ids[f]);
      if (loss) loss_cwnd[f] = flow->cwnd_bytes();
      flow->on_send(send);
      flow->on_ack(ev);
    }
    outstanding[f] += static_cast<uint32_t>(h->up_frames() - before);
    ++acks;
    if (loss) ++losses;
  };

  auto check_loss = [&](size_t f) {
    if (loss_cwnd[f] == 0) return;
    ++loss_checked;
    if (h->dp().flow(ids[f])->cwnd_bytes() >= loss_cwnd[f]) ++lost_not_cut;
    loss_cwnd[f] = 0;
  };

  // Lock-step rounds, as when every flow shares one RTT: once every
  // flow's commands have been applied, each flow gets its next ACK; then
  // wait for the agent. (Letting each flow restart on its own made the
  // loop's latency distribution settle into run-dependent convoys.)
  auto cycle = [&] {
    if (std::all_of(outstanding.begin(), outstanding.end(), [](uint32_t n) { return n == 0; })) {
      for (size_t f = 0; f < kFlows; ++f) {
        check_loss(f);
        step(f);
      }
    }
    if (h->drain() == 0 && h->resolve() == 0) h->wait_for_agent();
    h->resolve();
  };

  auto run_for = [&](int64_t ns) {
    const int64_t t0 = now_ns();
    while (now_ns() - t0 < ns) cycle();
  };

  auto build = [&] {
    h.reset();
    h = std::make_unique<Harness>(hc);
    h->on_complete = [&](const UpRec& u) {
      if (u.ctx >= 0) --outstanding[static_cast<size_t>(u.ctx)];
      if (u.received > 0) {
        ++loops;
        if (measuring) rounds.cur.push_back(static_cast<double>(u.last_apply_ns - u.send_ns) / 1e3);
      }
    };
    ids.clear();
    std::fill(outstanding.begin(), outstanding.end(), 0);
    std::fill(loss_cwnd.begin(), loss_cwnd.end(), 0);
    vt = 1'000'000'000;
    for (size_t i = 0; i < kFlows; ++i) {
      ids.push_back(h->dp().create_flow(fcfg, i % 2 ? "dctcp" : "reno", vt_at(vt)).id());
    }
    h->quiesce(10);
    run_for(100'000'000);  // warm-up
    h->quiesce(10);
    for (size_t f = 0; f < kFlows; ++f) check_loss(f);
  };

  for (int trial = 0; trial < trials(o); ++trial) {
    const uint64_t ring_full0 = ccp::telemetry::metrics().ipc_ring_full.value();
    reset_peak_rss();
    const int64_t s0 = now_ns();
    build();
    setups.push_back(static_cast<double>(now_ns() - s0) / 1e9);

    TracedPhase tp;
    start_trace(o);
    tp.begin(*h);
    measuring = true;
    const uint64_t acks0 = acks;
    const int64_t w0 = now_ns();
    while (now_ns() - w0 < static_cast<int64_t>(o.seconds / trials(o) * 1e9)) {
      const uint64_t l0 = loops, st0 = steal_ticks();
      const int64_t t0 = now_ns(), c0 = process_cpu_ns();
      run_for(kRoundNs);
      rounds.close(static_cast<double>(loops - l0), now_ns() - t0, process_cpu_ns() - c0,
                   steal_ticks() - st0);
    }
    const int64_t wall = now_ns() - w0;
    measuring = false;
    const bool quiet = h->quiesce(10);
    // Losses whose cut landed during the final drain.
    for (size_t f = 0; f < kFlows; ++f) check_loss(f);
    tp.end(*h);
    h->stop_agent();
    rss.push_back(peak_rss_mb());

    link_checks(*h, quiet, ring_full0, r);
    r.attempted += 1;
    fail(r, quiet ? 0 : 1, "pairing tag FIFO not empty at the end");
    if (o.traced) {
      tp.in.wall_ns = static_cast<double>(wall);
      tp.in.acks = acks - acks0;
      tp.in.down_wait = h->down_wait_us();
      tp.in.up_wait = h->up_wait_us();
      r.threads = Tracer::collect();
      r.layer = layer_metrics(tp.in, r.threads, r.failures, false);
    }
  }
  h.reset();
  r.setup_s = median(setups);
  r.setup_reps = static_cast<int>(setups.size());
  r.peak_rss_mb = median(rss);
  rounds.into(r);
  r.attempted += losses;
  fail(r, lost_not_cut, "injected losses that did not lower cwnd");
  fail(r, losses - loss_checked, "injected losses never answered");

  r.named = {{"loop_p50_us", r.lat_p50_us, "us"},
             {"loop_p99_us", r.lat_p99_us, "us"},
             {"loops_per_sec", r.ops_per_sec, "loop/s"},
             {"cpu_us_per_loop", r.cpu_ns_per_op / 1e3, "us"}};
  r.notes.push_back("loop_samples=" + std::to_string(r.lat_samples) + " acks=" +
                    std::to_string(acks) + " losses=" + std::to_string(losses) + " " +
                    rounds.describe());
  return r;
}

// ---------------------------------------------------------------- churn

Result run_churn(const RunOptions& o) {
  constexpr size_t kResident = 16384;
  constexpr size_t kBurst = 32;
  constexpr int64_t kAckNs = 120;
  constexpr int64_t kTickNs = 1'000'000;
  constexpr int64_t kRttNs = 10'000'000;
  constexpr size_t kBacklog = 128;  // creates awaiting Install (listen backlog)
  constexpr double kChurnPerAck = 0.1;
  constexpr uint64_t kRound = uint64_t{1} << 18;  // ~5k set-ups: a steady per-round rate
  constexpr uint64_t kWarmup = uint64_t{1} << 18;
  static const char* kMix[4] = {"reno", "cubic", "dctcp", "bbr"};
  Result r;

  Rng rng(o.seed);
  // Seeded inputs: Zipf(1.5) slot popularity, victims, RTT jitter.
  std::vector<uint32_t> zipf(size_t{1} << 20);
  {
    ccp::util::ZipfSampler z(kResident, 1.5);
    // Rank 1 is the most popular; scatter ranks over slots so popular
    // flows are not all neighbours in the table.
    std::vector<uint32_t> perm(kResident);
    for (size_t i = 0; i < kResident; ++i) perm[i] = static_cast<uint32_t>(i);
    for (size_t i = kResident - 1; i > 0; --i) std::swap(perm[i], perm[rng.next_below(i + 1)]);
    for (auto& s : zipf) s = perm[z(rng) - 1];
  }
  std::vector<uint32_t> victims(size_t{1} << 16);
  for (auto& v : victims) v = static_cast<uint32_t>(rng.next_below(kResident));
  std::vector<int64_t> jitter(4096);
  for (auto& j : jitter) j = static_cast<int64_t>(rng.uniform(-1e6, 1e6));

  HarnessConfig hc;
  hc.dp.flush_interval = Duration::from_millis(1);
  hc.dp.max_batch_msgs = 64;
  hc.dp.tick_flow_budget = 1024;
  hc.timed_algorithms = o.traced;
  datapath::FlowConfig fcfg;

  std::unique_ptr<Harness> h;
  std::vector<ipc::FlowId> slot_id(kResident);
  std::vector<int64_t> pending_since(kResident);  // create time, 0 = established
  const ccp::lang::CompiledProgram* default_prog = nullptr;
  int64_t vt = 0, next_tick = 0;
  uint64_t seq = 0, vseq = 0, conns = 0, refused = 0, backlog = 0, acks = 0;
  double credit = 0;
  Rounds rounds;
  std::vector<double> ack_rate, cpu_per_ack, setups, rss;
  bool measuring = false;
  StallMeter stall;
  FlowAck burst[kBurst];

  auto churn_op = [&] {
    size_t v = victims[vseq++ & (victims.size() - 1)];
    for (int tries = 0; pending_since[v] != 0 && tries < 8; ++tries) {
      v = victims[vseq++ & (victims.size() - 1)];
    }
    if (pending_since[v] != 0) return;
    {
      Span s(kCloseFlow);
      h->dp().close_flow(slot_id[v], vt_at(vt));
    }
    // The Create is the last message of the frame that carries it
    // (flushed inside create_flow when the batch fills, else below), so
    // that frame is answered exactly when the flow's Install is applied.
    h->set_ctx(static_cast<int64_t>(v));
    const int64_t t0 = now_ns();
    {
      Span s(kCreateFlow);
      slot_id[v] = h->dp().create_flow(fcfg, kMix[v % 4], vt_at(vt)).id();
    }
    pending_since[v] = t0;
    ++backlog;
    {
      Span s(kFlush);
      h->dp().flush();
    }
    h->set_ctx(-1);
  };

  auto pump = [&](uint64_t n) {
    for (uint64_t done = 0; done < n; done += kBurst) {
      {
        Span s(kGen);
        if (measuring && !o.traced) stall.tick(r);
        for (size_t j = 0; j < kBurst; ++j) {
          const uint64_t k = seq++;
          FlowAck& a = burst[j];
          a.flow_id = slot_id[zipf[k & (zipf.size() - 1)]];
          a.sent_bytes = 1500;
          a.ev.now = vt_at(vt);
          a.ev.bytes_acked = 1500;
          a.ev.bytes_delivered = 1500;
          a.ev.packets_acked = 1;
          a.ev.rtt_sample = Duration::from_nanos(kRttNs + jitter[k & 4095]);
          a.ev.bytes_in_flight = 60'000;
          vt += kAckNs;
        }
      }
      {
        Span s(kAckIntake);
        h->dp().on_ack_batch(burst);
      }
      acks += kBurst;
      h->set_now(vt_at(vt));
      if (vt >= next_tick) {
        Span s(kTick);
        h->dp().tick(vt_at(vt));
        next_tick = vt + kTickNs;
      }
      credit += kChurnPerAck * kBurst;
      while (credit >= 1) {
        credit -= 1;
        if (backlog >= kBacklog) {
          ++refused;  // backlog full: this connection attempt is refused
          continue;
        }
        churn_op();
      }
      h->drain();
      h->resolve();
    }
  };

  auto build = [&] {
    h.reset();
    h = std::make_unique<Harness>(hc);
    h->on_complete = [&](const UpRec& u) {
      if (u.ctx < 0) return;
      const size_t v = static_cast<size_t>(u.ctx);
      if (measuring) {
        rounds.cur.push_back(static_cast<double>(u.last_apply_ns - pending_since[v]) / 1e3);
      }
      pending_since[v] = 0;
      --backlog;
      ++conns;
    };
    vt = 1'000'000'000;
    next_tick = vt;
    seq = vseq = 0;
    backlog = 0;
    credit = 0;
    std::fill(pending_since.begin(), pending_since.end(), 0);
    for (size_t i = 0; i < kResident; ++i) {
      auto& flow = h->dp().create_flow(fcfg, kMix[i % 4], vt_at(vt));
      slot_id[i] = flow.id();
      if (i == 0) default_prog = flow.fold().program();
      // Bound the set-up backlog below the ring: drain as creates go out.
      while (h->unresolved() > 64) {
        if (h->drain() == 0) std::this_thread::yield();
        h->resolve();
      }
    }
    h->quiesce(30);
    pump(kWarmup);
    h->quiesce(30);
  };

  for (int trial = 0; trial < trials(o); ++trial) {
    const uint64_t ring_full0 = ccp::telemetry::metrics().ipc_ring_full.value();
    reset_peak_rss();
    const int64_t s0 = now_ns();
    build();
    setups.push_back(static_cast<double>(now_ns() - s0) / 1e9);

    TracedPhase tp;
    start_trace(o);
    tp.begin(*h);
    measuring = true;
    stall.last = 0;
    const uint64_t acks0 = acks;
    const int64_t w0 = now_ns();
    while (now_ns() - w0 < static_cast<int64_t>(o.seconds / trials(o) * 1e9)) {
      const uint64_t n0 = conns, st0 = steal_ticks();
      const int64_t t0 = now_ns(), c0 = process_cpu_ns();
      pump(kRound);
      const int64_t wall = now_ns() - t0, cpu = process_cpu_ns() - c0;
      ack_rate.push_back(static_cast<double>(kRound) / (static_cast<double>(wall) / 1e9));
      cpu_per_ack.push_back(static_cast<double>(cpu) / static_cast<double>(kRound));
      rounds.close(static_cast<double>(conns - n0), wall, cpu, steal_ticks() - st0);
    }
    const int64_t wall = now_ns() - w0;
    h->set_now(vt_at(vt));
    const bool quiet = h->quiesce(30);
    measuring = false;
    tp.end(*h);
    h->stop_agent();
    rss.push_back(peak_rss_mb());

    // Output checks at quiescence: both sides agree on the flow set, and
    // every flow runs the program its agent installed.
    link_checks(*h, quiet, ring_full0, r);
    r.attempted += 1 + kResident;
    if (h->agent().num_flows() != h->dp().num_flows()) {
      fail(r, 1, "agent flows " + std::to_string(h->agent().num_flows()) +
                     " != datapath flows " + std::to_string(h->dp().num_flows()));
    }
    uint64_t on_default = 0;
    for (size_t i = 0; i < kResident; ++i) {
      const datapath::CcpFlow* flow = h->dp().flow(slot_id[i]);
      if (flow == nullptr || flow->in_fallback() || flow->fold().program() == default_prog) {
        ++on_default;
      }
    }
    fail(r, on_default, "flows not running their agent's program");
    if (o.traced) {
      tp.in.wall_ns = static_cast<double>(wall);
      tp.in.acks = acks - acks0;
      tp.in.down_wait = h->down_wait_us();
      tp.in.up_wait = h->up_wait_us();
      r.threads = Tracer::collect();
      r.layer = layer_metrics(tp.in, r.threads, r.failures, false);
    }
  }
  h.reset();
  r.setup_s = median(setups);
  r.setup_reps = static_cast<int>(setups.size());
  r.peak_rss_mb = median(rss);
  rounds.into(r);

  r.named = {{"conn_per_sec", r.ops_per_sec, "op/s"},
             {"flow_setup_p50_us", r.lat_p50_us, "us"},
             {"flow_setup_p99_us", r.lat_p99_us, "us"},
             {"acks_per_sec", median(ack_rate), "ACK/s"},
             {"cpu_ns_per_ack", median(cpu_per_ack), "ns"}};
  r.notes.push_back("setups=" + std::to_string(conns) + " refused=" + std::to_string(refused) +
                    " setup_samples=" + std::to_string(r.lat_samples) +
                    " resident=" + std::to_string(kResident) + " " + rounds.describe());
  return r;
}

// ------------------------------------------------------- scenario_matrix

Result run_scenario_matrix(const RunOptions& o) {
  namespace sc = ccp::scenario;
  Result r;
  const auto names = sc::builtin_scenario_names();
  std::vector<sc::ScenarioSpec> specs;
  // Set-up is the loader path a user's scenario file takes: render each
  // built-in spec to text and parse it back, at the bench seed.
  auto build = [&] {
    specs.clear();
    for (const auto& name : names) {
      sc::ScenarioSpec spec = sc::parse_spec(sc::format_spec(sc::builtin_scenario(name)));
      spec.seed = o.seed;
      specs.push_back(std::move(spec));
    }
  };
  r.setup_s = timed_setups(build, 0.3, r.setup_reps);

  LayerIn in;
  start_trace(o);
  in.c0 = snap(nullptr);
  const uint64_t steal0 = steal_ticks();
  const int64_t w0 = now_ns();
  uint64_t bad_flows = 0, bad_hops = 0, runs = 0;
  // Run round-robin until the time is up and every scenario has run. A
  // scenario does the same work on every run of one seed, so its least
  // disturbed run (the shortest) is its cost; the headline sums those,
  // so where the time ran out does not change the mix.
  std::vector<double> walls(names.size(), 1e300), cpus(names.size(), 1e300);
  std::vector<double> pkts(names.size());
  for (size_t i = 0; runs < specs.size() || now_ns() - w0 < static_cast<int64_t>(o.seconds * 1e9);
       i = (i + 1) % specs.size()) {
    const int64_t t0 = now_ns(), c0 = process_cpu_ns();
    sc::Scorecard card;
    {
      Span s(kScenario);
      card = sc::run_scenario(specs[i]);
    }
    const int64_t wall_ns = now_ns() - t0;
    const int64_t cpu_ns = process_cpu_ns() - c0;
    double delivered = 0;
    for (const auto& hop : card.hops) {
      delivered += static_cast<double>(hop.delivered_pkts);
      // A hop cannot deliver more than its capacity carries, nor
      // nothing at all while flows cross it.
      if (hop.delivered_pkts == 0 || hop.utilization > 1.0 + 1e-9) ++bad_hops;
    }
    for (const auto& f : card.flows) {
      if (!(f.throughput_mbps > 0)) ++bad_flows;
    }
    r.attempted += 1 + card.flows.size() + card.hops.size();
    ++runs;
    walls[i] = std::min(walls[i], static_cast<double>(wall_ns) / 1e9);
    cpus[i] = std::min(cpus[i], static_cast<double>(cpu_ns));
    pkts[i] = delivered;
  }
  const int64_t wall = now_ns() - w0;
  r.steal_ticks = steal_ticks() - steal0;
  r.peak_rss_mb = peak_rss_mb();
  in.c1 = snap(nullptr);

  double total_pkts = 0, total_wall = 0, total_cpu = 0;
  std::vector<double> lat;
  for (size_t i = 0; i < names.size(); ++i) {
    total_pkts += pkts[i];
    total_wall += walls[i];
    total_cpu += cpus[i];
    lat.push_back(walls[i] * 1e6);
    in.scenarios.push_back({names[i], {walls[i], pkts[i]}});
  }
  r.ops_per_sec = total_pkts / total_wall;
  r.cpu_ns_per_op = total_cpu / total_pkts;
  // The scenarios differ in size, and which one sits in the middle of six
  // changes with the seed, so the typical scenario is their mean wall;
  // the tail is the slowest one.
  r.lat_p50_us = total_wall / static_cast<double>(names.size()) * 1e6;
  r.lat_p99_us = percentile(lat, 100);
  r.lat_samples = lat.size();
  fail(r, bad_flows, "flows that delivered no bytes");
  fail(r, bad_hops, "hops that delivered nothing or more than capacity");

  r.named = {{"sim_pkts_per_sec", r.ops_per_sec, "pkt/s"},
             {"scenario_wall_mean_us", r.lat_p50_us, "us"},
             {"scenario_wall_max_us", r.lat_p99_us, "us"}};
  r.notes.push_back("scenario_runs=" + std::to_string(runs));
  if (o.traced) {
    in.wall_ns = static_cast<double>(wall);
    r.threads = Tracer::collect();
    r.layer = layer_metrics(in, r.threads, r.failures, false);
  }
  return r;
}

std::vector<Named> per_layer_spec() {
  std::vector<std::string> ignored;
  return layer_metrics(LayerIn{}, {}, ignored, false);
}

}  // namespace e2e
