// Every Install a built-in algorithm makes, recorded without an agent or
// a datapath. The agent tests replay them to pin Install frames; the
// datapath flow tests install them to pin per-program flow state.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "agent/algorithm.hpp"
#include "algorithms/registry.hpp"

namespace ccp::test_support {

using Bindings = std::vector<std::pair<std::string, double>>;

/// One install_text call as an algorithm made it.
struct RecordedInstall {
  std::string algorithm;  // registry name; "bbr ProbeBW" for BBR's second program
  std::string text;
  Bindings vars;
  bool vector_mode = false;
};

/// FlowControl that records install_text calls instead of sending them.
class InstallRecorder final : public agent::FlowControl {
 public:
  const agent::FlowInfo& info() const override { return info_; }
  void install(const lang::Program&,
               std::span<const std::pair<std::string, double>>) override {
    ADD_FAILURE() << "built-in algorithms install text";
  }
  void install_text(std::string program_text,
                    std::span<const std::pair<std::string, double>> vars) override {
    installs.push_back({algorithm, std::move(program_text),
                        Bindings(vars.begin(), vars.end()), vector_mode_});
  }
  void update_fields(std::span<const std::pair<std::string, double>>) override {}
  void set_cwnd(double) override {}
  void set_rate(double) override {}
  void set_vector_mode(bool enabled) override { vector_mode_ = enabled; }

  std::string algorithm;  // stamped on each recorded install
  std::vector<RecordedInstall> installs;

 private:
  agent::FlowInfo info_{1, 1460, 14600};
  bool vector_mode_ = false;
};

/// Every install a built-in algorithm makes: each algorithm's init
/// program, in registry order, plus BBR's ProbeBW program, reached by
/// feeding constant-rate reports until its plateau detector leaves
/// Startup.
inline std::vector<RecordedInstall> builtin_installs() {
  const agent::FlowInfo info{1, 1460, 14600};
  InstallRecorder rec;
  for (const auto& name : algorithms::builtin_algorithm_names()) {
    rec.algorithm = name;
    algorithms::make_algorithm(name, info)->init(rec);
  }
  InstallRecorder bbr_rec;
  bbr_rec.algorithm = "bbr ProbeBW";
  auto bbr = algorithms::make_algorithm("bbr", info);
  bbr->init(bbr_rec);
  const std::vector<std::string> names = {"rcv", "minrtt"};
  ipc::MeasurementMsg msg;
  msg.fields = {1e7, 10'000};
  const agent::Measurement m(&names, &msg);
  for (int i = 0; i < 10 && bbr_rec.installs.size() < 2; ++i) {
    bbr->on_measurement(bbr_rec, m);
  }
  EXPECT_EQ(bbr_rec.installs.size(), 2u) << "BBR never left Startup";
  if (bbr_rec.installs.size() == 2) rec.installs.push_back(bbr_rec.installs[1]);
  return rec.installs;
}

}  // namespace ccp::test_support
