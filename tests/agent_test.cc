#include <gtest/gtest.h>

#include <map>
#include <set>

#include "agent/agent.hpp"
#include "algorithms/bbr.hpp"
#include "algorithms/registry.hpp"
#include "builtin_installs.hpp"
#include "lang/compiler.hpp"
#include "lang/error.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/sema.hpp"
#include "telemetry/telemetry.hpp"

namespace ccp::agent {
namespace {

/// A scripted algorithm that records every callback.
class Probe final : public Algorithm {
 public:
  struct Shared {
    int inits = 0;
    int measurements = 0;
    int urgents = 0;
    std::vector<double> last_acked;
    ipc::UrgentKind last_kind{};
  };

  Probe(Shared* shared, std::string program,
        std::vector<std::pair<std::string, double>> vars)
      : shared_(shared), program_(std::move(program)), vars_(std::move(vars)) {}

  std::string_view name() const override { return "probe"; }
  AlgorithmTraits traits() const override { return {{"ACKs"}, {"CWND"}}; }

  void init(FlowControl& flow) override {
    ++shared_->inits;
    flow.install_text(program_, vars_);
  }
  void on_measurement(FlowControl&, const Measurement& m) override {
    ++shared_->measurements;
    shared_->last_acked.push_back(m.get("acked", -1));
  }
  void on_urgent(FlowControl&, ipc::UrgentKind kind, const Measurement&) override {
    ++shared_->urgents;
    shared_->last_kind = kind;
  }

 private:
  Shared* shared_;
  std::string program_;
  std::vector<std::pair<std::string, double>> vars_;
};

struct Harness {
  std::vector<std::vector<ipc::Message>> sent;
  Probe::Shared probe;
  AgentConfig config;
  std::unique_ptr<CcpAgent> agent;

  explicit Harness(AgentConfig cfg = {}) : config(std::move(cfg)) {
    config.default_algorithm = "probe";
    agent = std::make_unique<CcpAgent>(config, [this](std::span<const uint8_t> frame) {
      sent.push_back(ipc::decode_frame(frame));
    });
  }

  void register_probe(
      std::string program =
          "fold { volatile acked := acked + Pkt.bytes_acked init 0; }\n"
          "control { Cwnd($cwnd); WaitRtts(1.0); Report(); }",
      std::vector<std::pair<std::string, double>> vars = {{"cwnd", 14600.0}}) {
    agent->register_algorithm("probe", [this, program, vars](const FlowInfo&) {
      return std::make_unique<Probe>(&probe, program, vars);
    });
  }

  void deliver(const ipc::Message& msg) {
    agent->handle_frame(ipc::encode_frame(msg));
  }

  template <typename T>
  std::vector<T> sent_of() const {
    std::vector<T> out;
    for (const auto& frame : sent) {
      for (const auto& msg : frame) {
        if (auto* m = std::get_if<T>(&msg)) out.push_back(*m);
      }
    }
    return out;
  }
};

ipc::CreateMsg create(ipc::FlowId id, const std::string& hint = "") {
  ipc::CreateMsg m;
  m.flow_id = id;
  m.mss = 1460;
  m.init_cwnd_bytes = 14600;
  m.alg_hint = hint;
  return m;
}

TEST(Agent, CreateInstantiatesAlgorithmAndInstalls) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  EXPECT_EQ(h.probe.inits, 1);
  EXPECT_EQ(h.agent->num_flows(), 1u);
  auto installs = h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0].flow_id, 1u);
  EXPECT_NO_THROW(lang::parse_program(installs[0].program_text));
}

TEST(Agent, MeasurementDispatchedByFieldName) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  ipc::MeasurementMsg m;
  m.flow_id = 1;
  m.fields = {4321.0};  // positional: 'acked' is the only register
  h.deliver(m);
  EXPECT_EQ(h.probe.measurements, 1);
  ASSERT_EQ(h.probe.last_acked.size(), 1u);
  EXPECT_DOUBLE_EQ(h.probe.last_acked[0], 4321.0);
}

TEST(Agent, UrgentDispatched) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  ipc::UrgentMsg u;
  u.flow_id = 1;
  u.kind = ipc::UrgentKind::Timeout;
  h.deliver(u);
  EXPECT_EQ(h.probe.urgents, 1);
  EXPECT_EQ(h.probe.last_kind, ipc::UrgentKind::Timeout);
}

TEST(Agent, UnknownFlowMessagesCounted) {
  Harness h;
  h.register_probe();
  ipc::MeasurementMsg m;
  m.flow_id = 404;
  h.deliver(m);
  EXPECT_EQ(h.agent->stats().unknown_flow_msgs, 1u);
  EXPECT_EQ(h.probe.measurements, 0);
}

TEST(Agent, UnknownAlgorithmCounted) {
  Harness h;
  h.register_probe();
  h.deliver(create(1, "quantum_tcp"));
  EXPECT_EQ(h.agent->stats().unknown_algorithm, 1u);
  EXPECT_EQ(h.agent->num_flows(), 0u);
}

TEST(Agent, FlowCloseDestroysState) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  h.deliver(ipc::Message(ipc::FlowCloseMsg{1}));
  EXPECT_EQ(h.agent->num_flows(), 0u);
  // Subsequent measurements are orphaned, not crashes.
  ipc::MeasurementMsg m;
  m.flow_id = 1;
  h.deliver(m);
  EXPECT_EQ(h.agent->stats().unknown_flow_msgs, 1u);
}

TEST(Agent, MalformedFrameCounted) {
  Harness h;
  h.register_probe();
  std::vector<uint8_t> junk = {1, 2, 3};
  h.agent->handle_frame(junk);
  EXPECT_EQ(h.agent->stats().decode_errors, 1u);
}

TEST(Agent, PolicyCapsRateInInstalledProgram) {
  AgentConfig cfg;
  cfg.policy.max_rate_bps = 1e6;
  Harness h(cfg);
  h.register_probe("control { Rate($r); WaitRtts(1.0); Report(); }",
                   {{"r", 5e9}});
  h.deliver(create(1));
  auto installs = h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 1u);
  // The cap must be baked into the program text as min(..., cap).
  EXPECT_NE(installs[0].program_text.find("min"), std::string::npos);
  EXPECT_NE(installs[0].program_text.find("1000000"), std::string::npos);
}

TEST(Agent, PolicyClampsCwndBothWays) {
  AgentConfig cfg;
  cfg.policy.min_cwnd_bytes = 3000;
  cfg.policy.max_cwnd_bytes = 50000;
  Harness h(cfg);
  h.register_probe();
  h.deliver(create(1));
  auto installs = h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_NE(installs[0].program_text.find("max"), std::string::npos);
  EXPECT_NE(installs[0].program_text.find("50000"), std::string::npos);
}

// Regression test for the positional update_fields bug: bindings given
// in a different order than the program's $-variable order must still
// land on the right variables.
TEST(Agent, UpdateFieldsUsesProgramVariableOrder) {
  Harness h;
  // Program order: $b first (in fold), then $a.
  h.register_probe(
      "fold { x := $b init 0; }\n"
      "control { Cwnd($a); WaitRtts(1.0); Report(); }",
      {{"a", 111.0}, {"b", 222.0}});

  class Updater final : public Algorithm {
   public:
    std::string_view name() const override { return "updater"; }
    AlgorithmTraits traits() const override { return {}; }
    void init(FlowControl& flow) override {
      flow.install_text(
          "fold { x := $b init 0; }\n"
          "control { Cwnd($a); WaitRtts(1.0); Report(); }",
          std::vector<std::pair<std::string, double>>{{"a", 111.0}, {"b", 222.0}});
    }
    void on_measurement(FlowControl& flow, const Measurement&) override {
      // Update only $a; $b must keep its old value.
      flow.update_fields(
          std::vector<std::pair<std::string, double>>{{"a", 333.0}});
    }
    void on_urgent(FlowControl&, ipc::UrgentKind, const Measurement&) override {}
  };
  h.agent->register_algorithm(
      "updater", [](const FlowInfo&) { return std::make_unique<Updater>(); });
  h.deliver(create(7, "updater"));
  ipc::MeasurementMsg m;
  m.flow_id = 7;
  m.fields = {0.0};
  h.deliver(m);

  auto updates = h.sent_of<ipc::UpdateFieldsMsg>();
  ASSERT_EQ(updates.size(), 1u);
  // Program variable order is [b, a] (b appears first in the fold).
  ASSERT_EQ(updates[0].var_values.size(), 2u);
  EXPECT_DOUBLE_EQ(updates[0].var_values[0], 222.0);  // $b preserved
  EXPECT_DOUBLE_EQ(updates[0].var_values[1], 333.0);  // $a updated
}

TEST(Agent, AlgorithmAccessorWorks) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  ASSERT_NE(h.agent->algorithm(1), nullptr);
  EXPECT_EQ(h.agent->algorithm(1)->name(), "probe");
  EXPECT_EQ(h.agent->algorithm(2), nullptr);
}

TEST(Agent, VectorMeasurementSamplesDecoded) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  ipc::MeasurementMsg m;
  m.flow_id = 1;
  m.is_vector = true;
  m.num_acks_folded = 2;
  m.fields = {100, 1460, 0, 0, 5e6, 6e6,   // sample 1
              200, 2920, 1, 1, 7e6, 8e6};  // sample 2
  Measurement meas(nullptr, &m);
  auto samples = meas.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].rtt_us, 100);
  EXPECT_DOUBLE_EQ(samples[1].bytes_acked, 2920);
  EXPECT_DOUBLE_EQ(samples[1].lost, 1);
}

TEST(Agent, ReportLatencyBeyondOldSaturationRecordsCorrectly) {
  // Regression for the p50 = 65.535 µs plateau in BENCH_hotpath.json.
  // The emitted_ns stamp was never the problem (it is a full u64 on the
  // wire); the latency histogram's quantile() returned raw bucket uppers
  // at 8-sub-bucket resolution, so everything at the top of the
  // distribution reported exactly 65535 ns. A synthetic latency three
  // orders of magnitude past that point must round-trip through the
  // stamp and come back within the histogram's documented 3.125% bucket
  // error — not clamp.
  telemetry::set_enabled(true);
  auto& hist = telemetry::metrics().report_latency_ns;
  hist.reset();

  Harness h;
  h.register_probe();
  h.deliver(create(1));

  constexpr uint64_t kSyntheticLatencyNs = 100'000'000;  // 100 ms
  for (int i = 0; i < 9; ++i) {
    ipc::MeasurementMsg m;
    m.flow_id = 1;
    m.fields = {1.0};
    m.emitted_ns = telemetry::now_ns() - kSyntheticLatencyNs;
    h.deliver(m);
  }
  telemetry::set_enabled(false);

  ASSERT_EQ(hist.count(), 9u);
  const double p50 = hist.quantile(0.5);
  EXPECT_GT(p50, 65'535'000.0) << "latency percentile still saturating";
  EXPECT_GE(p50, static_cast<double>(kSyntheticLatencyNs) * 0.96);
  // Handler overhead between now_ns() and the record is microseconds;
  // the upper slack is bucket error, not scheduling noise.
  EXPECT_LE(p50, static_cast<double>(kSyntheticLatencyNs) * 1.04);
}

// --- resync (docs/RESILIENCE.md) ---

ipc::FlowSummaryMsg summary(ipc::FlowId id, uint64_t token,
                            uint32_t cwnd = 30'000) {
  ipc::FlowSummaryMsg m;
  m.flow_id = id;
  m.mss = 1460;
  m.cwnd_bytes = cwnd;
  m.srtt_us = 12'000;
  m.in_fallback = true;
  m.alg_hint = "";  // falls back to the configured default algorithm
  m.token = token;
  return m;
}

TEST(Agent, FlowSummaryRebuildsFlowAndReinstalls) {
  Harness h;
  h.register_probe();
  h.agent->expect_resync(3);
  h.deliver(summary(9, /*token=*/3));
  EXPECT_EQ(h.agent->num_flows(), 1u);
  EXPECT_EQ(h.agent->stats().flows_resynced, 1u);
  EXPECT_EQ(h.probe.inits, 1);  // algorithm re-initialized the flow
  // init() installs the program — that very Install is what pulls the
  // datapath flow out of fallback.
  auto installs = h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0].flow_id, 9u);
}

TEST(Agent, FlowSummaryFromSupersededResyncDropped) {
  Harness h;
  h.register_probe();
  h.agent->expect_resync(5);
  h.deliver(summary(9, /*token=*/4));  // stale generation
  EXPECT_EQ(h.agent->num_flows(), 0u);
  EXPECT_EQ(h.agent->stats().flows_resynced, 0u);
  h.deliver(summary(9, /*token=*/5));
  EXPECT_EQ(h.agent->num_flows(), 1u);
}

TEST(Agent, FlowSummaryForKnownFlowIsIgnored) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  ASSERT_EQ(h.probe.inits, 1);
  // Live local state is fresher than any replay: do not re-init.
  h.deliver(summary(1, /*token=*/0));
  EXPECT_EQ(h.probe.inits, 1);
  EXPECT_EQ(h.agent->stats().flows_resynced, 0u);
}

// --- program preparation cache ---

using test_support::Bindings;
using test_support::builtin_installs;
using test_support::RecordedInstall;

/// The uncached preparation every Install used to get: parse, apply
/// policy, check, print.
std::string fresh_program_text(const std::string& text, const Policy& policy) {
  lang::Program prog = lang::parse_program(text);
  apply_policy(prog, policy);
  lang::check_or_throw(prog);
  return lang::print_program(prog);
}

/// Replays one recorded install as its own algorithm's init.
class Replay final : public Algorithm {
 public:
  explicit Replay(const RecordedInstall* install) : install_(install) {}
  std::string_view name() const override { return "replay"; }
  AlgorithmTraits traits() const override { return {}; }
  void init(FlowControl& flow) override {
    flow.set_vector_mode(install_->vector_mode);
    flow.install_text(install_->text, install_->vars);
  }
  void on_measurement(FlowControl&, const Measurement&) override {}
  void on_urgent(FlowControl&, ipc::UrgentKind, const Measurement&) override {}

 private:
  const RecordedInstall* install_;
};

void expect_builtin_installs_match_fresh_preparation(const Policy& policy) {
  telemetry::set_enabled(false);  // no emitted_ns stamp: frames are deterministic
  const std::vector<RecordedInstall> installs = builtin_installs();
  ASSERT_GE(installs.size(), 8u);

  AgentConfig cfg;
  cfg.policy = policy;
  std::vector<std::vector<uint8_t>> frames;
  CcpAgent agent(cfg, [&frames](std::span<const uint8_t> frame) {
    frames.emplace_back(frame.begin(), frame.end());
  });
  std::set<std::string> distinct;
  for (size_t i = 0; i < installs.size(); ++i) {
    const std::string name = "replay" + std::to_string(i);
    agent.register_algorithm(name, [rec = &installs[i]](const FlowInfo&) {
      return std::make_unique<Replay>(rec);
    });
    distinct.insert(installs[i].text);

    ipc::InstallMsg expected;
    expected.program_text = fresh_program_text(installs[i].text, policy);
    expected.vector_mode = installs[i].vector_mode;
    for (const auto& [var, value] : installs[i].vars) {
      expected.var_names.push_back(var);
      expected.var_values.push_back(value);
    }
    // Two successive flows: the first prepares (or reuses an earlier
    // algorithm's identical text), the second certainly reuses.
    for (ipc::FlowId id : {static_cast<ipc::FlowId>(2 * i + 1),
                           static_cast<ipc::FlowId>(2 * i + 2)}) {
      frames.clear();
      agent.handle_frame(ipc::encode_frame(create(id, name)));
      ASSERT_EQ(frames.size(), 1u) << name;
      expected.flow_id = id;
      EXPECT_EQ(frames[0], ipc::encode_frame(ipc::Message(expected)))
          << "install " << i << " flow " << id << " differs from a fresh preparation";
    }
  }
  EXPECT_EQ(agent.stats().installs_sent, 2 * installs.size());
  EXPECT_EQ(agent.stats().programs_prepared, distinct.size());
}

TEST(AgentProgramCache, BuiltinInstallsMatchFreshPreparation) {
  expect_builtin_installs_match_fresh_preparation(Policy{});
}

TEST(AgentProgramCache, BuiltinInstallsMatchFreshPreparationUnderPolicy) {
  Policy policy;
  policy.min_cwnd_bytes = 3000;
  policy.max_cwnd_bytes = 50'000;
  policy.max_rate_bps = 1e6;
  expect_builtin_installs_match_fresh_preparation(policy);
}

TEST(AgentProgramCache, ThousandFlowsPrepareEachTextOnce) {
  std::set<std::string> texts;
  CcpAgent agent({}, [&texts](std::span<const uint8_t> frame) {
    for (const auto& msg : ipc::decode_frame(frame)) {
      if (auto* install = std::get_if<ipc::InstallMsg>(&msg)) {
        texts.insert(install->program_text);
      }
    }
  });
  algorithms::register_builtin_algorithms(agent);
  const char* kAlgs[] = {"reno", "cubic", "dctcp", "bbr"};
  for (ipc::FlowId id = 1; id <= 1000; ++id) {
    agent.handle_frame(ipc::encode_frame(create(id, kAlgs[id % 4])));
  }
  EXPECT_EQ(agent.stats().installs_sent, 1000u);
  // reno and cubic share one window program: three distinct texts.
  EXPECT_EQ(texts.size(), 3u);
  EXPECT_EQ(agent.stats().programs_prepared, texts.size());
  EXPECT_EQ(agent.prepared_programs(), texts.size());
}

TEST(AgentProgramCache, MalformedTextThrowsEveryTimeAndIsNotCached) {
  class Broken final : public Algorithm {
   public:
    std::string_view name() const override { return "broken"; }
    AlgorithmTraits traits() const override { return {}; }
    void init(FlowControl& flow) override {
      for (const char* text : {"fold { x := ; }",  // parse error
                               "control { Cwnd(10000); WaitRtts(1.0); }"}) {  // no Report
        for (int i = 0; i < 2; ++i) {
          EXPECT_THROW(flow.install_text(text, Bindings{}), lang::ProgramError);
        }
      }
    }
    void on_measurement(FlowControl&, const Measurement&) override {}
    void on_urgent(FlowControl&, ipc::UrgentKind, const Measurement&) override {}
  };
  Harness h;
  h.agent->register_algorithm(
      "broken", [](const FlowInfo&) { return std::make_unique<Broken>(); });
  for (ipc::FlowId id = 1; id <= 3; ++id) h.deliver(create(id, "broken"));
  EXPECT_EQ(h.agent->stats().programs_prepared, 0u);
  EXPECT_EQ(h.agent->prepared_programs(), 0u);
  EXPECT_EQ(h.agent->stats().installs_sent, 0u);
  EXPECT_TRUE(h.sent_of<ipc::InstallMsg>().empty());
}

TEST(AgentProgramCache, BbrReportsDecodeUnderProbeBwFieldsAfterSwitch) {
  telemetry::set_enabled(false);
  Harness h;
  algorithms::register_builtin_algorithms(*h.agent);
  h.deliver(create(1, "bbr"));
  auto installs = h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 1u);
  const lang::Program startup = lang::parse_program(installs[0].program_text);

  // Constant-rate reports in the Startup layout until BBR reinstalls.
  for (int i = 0; i < 10 && h.sent_of<ipc::InstallMsg>().size() < 2; ++i) {
    ipc::MeasurementMsg m;
    m.flow_id = 1;
    m.fields.assign(startup.folds.size(), 0.0);
    m.fields[startup.fold_index("rcv")] = 1e7;
    m.fields[startup.fold_index("minrtt")] = 10'000;
    h.deliver(m);
  }
  installs = h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 2u);
  const lang::Program probe_bw = lang::parse_program(installs[1].program_text);
  ASSERT_NE(startup.fold_index("minrtt"), probe_bw.fold_index("minrtt"));
  EXPECT_EQ(h.agent->stats().programs_prepared, 2u);

  // A ProbeBW-layout report: decoded under the Startup names, minrtt
  // would read the loss slot (0) and be ignored.
  ipc::MeasurementMsg m;
  m.flow_id = 1;
  m.fields.assign(probe_bw.folds.size(), 0.0);
  m.fields[probe_bw.fold_index("rcv")] = 5e7;
  m.fields[probe_bw.fold_index("minrtt")] = 5'000;
  h.sent.clear();
  h.deliver(m);
  auto updates = h.sent_of<ipc::UpdateFieldsMsg>();
  ASSERT_EQ(updates.size(), 1u);
  const auto var = [&](const std::string& name) {
    for (size_t i = 0; i < probe_bw.vars.size(); ++i) {
      if (probe_bw.vars[i] == name) return updates[0].var_values.at(i);
    }
    ADD_FAILURE() << "no $" << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(var("rate"), 5e7);
  EXPECT_DOUBLE_EQ(var("cwnd_cap"), algorithms::Bbr::kCwndGain * 5e7 * 5'000 / 1e6);
}

/// Installs a program whose only fold register is named after the flow
/// ("r<id>"), so every flow has its own text and its own report layout.
/// Reports are recorded per flow; with `reinstall_on_report`, the
/// handler first switches the flow to yet another text.
class PerFlowText final : public Algorithm {
 public:
  PerFlowText(ipc::FlowId id, std::map<ipc::FlowId, double>* seen,
              bool reinstall_on_report)
      : id_(id), seen_(seen), reinstall_on_report_(reinstall_on_report) {}

  static std::string text(const std::string& reg) {
    return "fold { volatile " + reg + " := " + reg + " + Pkt.bytes_acked init 0; }\n"
           "control { Cwnd($cwnd); WaitRtts(1.0); Report(); }";
  }

  std::string_view name() const override { return "per_flow_text"; }
  AlgorithmTraits traits() const override { return {}; }
  void init(FlowControl& flow) override {
    flow.install_text(text("r" + std::to_string(id_)), Bindings{{"cwnd", 14600.0}});
  }
  void on_measurement(FlowControl& flow, const Measurement& m) override {
    if (reinstall_on_report_) {
      flow.install_text(text("s" + std::to_string(id_)), Bindings{{"cwnd", 14600.0}});
    }
    (*seen_)[id_] = m.get("r" + std::to_string(id_), -1);
  }
  void on_urgent(FlowControl&, ipc::UrgentKind, const Measurement&) override {}

 private:
  ipc::FlowId id_;
  std::map<ipc::FlowId, double>* seen_;
  bool reinstall_on_report_;
};

void register_per_flow_text(CcpAgent& agent, std::map<ipc::FlowId, double>* seen,
                            bool reinstall_on_report) {
  agent.register_algorithm("per_flow_text", [=](const FlowInfo& info) {
    return std::make_unique<PerFlowText>(info.id, seen, reinstall_on_report);
  });
}

TEST(AgentProgramCache, StaysBoundedAndEvictedFlowsStillDecode) {
  Harness h;
  std::map<ipc::FlowId, double> seen;
  register_per_flow_text(*h.agent, &seen, /*reinstall_on_report=*/false);
  const size_t n = lang::kDefaultProgramCacheCapacity + 16;
  for (ipc::FlowId id = 1; id <= n; ++id) {
    h.deliver(create(id, "per_flow_text"));
    EXPECT_LE(h.agent->prepared_programs(), lang::kDefaultProgramCacheCapacity);
  }
  EXPECT_EQ(h.agent->stats().programs_prepared, n);
  for (ipc::FlowId id = 1; id <= n; ++id) {
    ipc::MeasurementMsg m;
    m.flow_id = id;
    m.fields = {1000.0 + id};
    h.deliver(m);
  }
  ASSERT_EQ(seen.size(), n);
  for (const auto& [id, value] : seen) EXPECT_DOUBLE_EQ(value, 1000.0 + id) << id;
  // Flow 1's text was evicted; installing it again prepares it again.
  h.deliver(ipc::Message(ipc::FlowCloseMsg{1}));
  h.deliver(create(1, "per_flow_text"));
  EXPECT_EQ(h.agent->stats().programs_prepared, n + 1);
}

TEST(AgentProgramCache, ReinstallInsideHandlerKeepsReportLayoutAlive) {
  Harness h;
  std::map<ipc::FlowId, double> seen;
  register_per_flow_text(*h.agent, &seen, /*reinstall_on_report=*/true);
  h.deliver(create(1, "per_flow_text"));
  // Push flow 1's text out of the cache, so the flow holds the only
  // reference to its layout when the handler replaces it.
  for (ipc::FlowId id = 2; id <= lang::kDefaultProgramCacheCapacity + 1; ++id) {
    h.deliver(create(id, "per_flow_text"));
  }
  ipc::MeasurementMsg m;
  m.flow_id = 1;
  m.fields = {4321.0};
  h.deliver(m);
  EXPECT_DOUBLE_EQ(seen[1], 4321.0);
  EXPECT_EQ(h.sent_of<ipc::InstallMsg>().back().flow_id, 1u);
}

}  // namespace
}  // namespace ccp::agent
