#include "agent/aggregate.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"

namespace ccp::agent {

namespace {
/// Member flows run the ordinary window program: the datapath enforces
/// their share and reports per RTT; losses surface urgently.
constexpr const char* kMemberProgram = R"(
fold {
  volatile acked   := acked + Pkt.bytes_acked       init 0;
  volatile loss    := loss + Pkt.lost               init 0 urgent;
  volatile timeout := max(timeout, Pkt.was_timeout) init 0 urgent;
  rtt              := ewma(rtt, Pkt.rtt, 0.125)     init 0;
}
control {
  Cwnd($cwnd);
  WaitRtts(1.0);
  Report();
}
)";
}  // namespace

/// The per-flow Algorithm instance: pure glue between one flow and the
/// group. All policy lives in the shared state; members hold it via
/// shared_ptr so group-handle and agent teardown order cannot dangle.
class AggregateGroup::Member final : public Algorithm {
 public:
  Member(std::shared_ptr<State> state, double weight)
      : state_(std::move(state)), weight_(weight) {}
  ~Member() override;

  std::string_view name() const override { return "aggregate_member"; }
  AlgorithmTraits traits() const override {
    return {{"ACKs", "Loss"}, {"CWND (shared)"}};
  }

  void init(FlowControl& flow) override;
  void on_measurement(FlowControl&, const Measurement& m) override;
  void on_urgent(FlowControl&, ipc::UrgentKind kind, const Measurement&) override;

  /// Called by the group to apply this member's share.
  void set_share(double bytes) {
    share_ = bytes;
    if (flow_ == nullptr) return;
    // Direct-applied: decreases take effect at once; increases become a
    // smooth-transition target in the datapath (never a burst).
    flow_->set_cwnd(bytes);
    flow_->update_fields(VarBindings{{"cwnd", bytes}});
  }

  double weight() const { return weight_; }

 private:
  using VarBindings = std::vector<std::pair<std::string, double>>;

  std::shared_ptr<State> state_;
  double weight_;
  FlowControl* flow_ = nullptr;
  double share_ = 2 * 1460.0;
};

/// Shared group state: the aggregate AIMD law and the member roster.
struct AggregateGroup::State {
  explicit State(AggregateConfig cfg)
      : config(cfg),
        cwnd(cfg.init_cwnd_bytes),
        ssthresh(std::numeric_limits<double>::max()) {}

  void add_member(Member* member) {
    members[member] = Round{};
    redistribute();
  }

  void remove_member(Member* member) { members.erase(member); }

  /// A round ends once every member with ACKs in flight has reported. A
  /// member whose last report folded no ACK, or that has not reported
  /// yet, is idle: the datapath sends an idle flow's empty report once
  /// (a fresh flow's not at all), then nothing until it folds an event,
  /// so waiting for it would stall the group's growth and its loss guard.
  void on_member_report(Member* member, double acked_bytes, uint32_t num_acks) {
    if (acked_bytes > 0) round_acked += acked_bytes;
    Round& r = members[member];
    r.reported = true;
    r.idle = num_acks == 0;
    const bool all_reported =
        std::all_of(members.begin(), members.end(), [](const auto& kv) {
          return kv.second.reported || kv.second.idle;
        });
    if (!all_reported) return;
    for (auto& [m, round] : members) round.reported = false;
    ++rounds_seen;

    if (round_acked <= 0) return;
    if (cwnd < ssthresh) {
      cwnd += std::min(round_acked, cwnd);  // aggregate slow start
      if (cwnd > ssthresh) cwnd = ssthresh;
    } else {
      cwnd += round_acked * config.mss / cwnd;  // aggregate AIMD
    }
    round_acked = 0;
    redistribute();
  }

  void on_member_loss() {
    // One reduction per episode, across the whole group (see
    // Reno::on_urgent for the two-round guard rationale).
    if (rounds_seen < next_cut_allowed) return;
    next_cut_allowed = rounds_seen + 2;
    ++loss_episodes;
    ssthresh = std::max(cwnd / 2.0, config.min_cwnd_bytes);
    cwnd = ssthresh;
    redistribute();
  }

  void on_member_timeout() {
    next_cut_allowed = rounds_seen + 2;
    ++loss_episodes;
    ssthresh = std::max(cwnd / 2.0, config.min_cwnd_bytes);
    cwnd = std::max(config.min_cwnd_bytes, 2.0 * config.mss);
    redistribute();
  }

  void redistribute() {
    if (members.empty()) return;
    double total_weight = 0;
    for (const auto& [member, round] : members) {
      total_weight += member->weight();
    }
    if (total_weight <= 0) return;
    for (auto& [member, round] : members) {
      member->set_share(
          std::max(cwnd * member->weight() / total_weight, 2.0 * config.mss));
    }
  }

  AggregateConfig config;
  double cwnd;
  double ssthresh;
  double round_acked = 0;
  uint64_t rounds_seen = 0;
  uint64_t next_cut_allowed = 0;
  uint64_t loss_episodes = 0;

  struct Round {
    bool reported = false;  // reported since the last round ended
    bool idle = true;       // last report folded no ACK, or none yet
  };
  std::map<Member*, Round> members;
};

AggregateGroup::Member::~Member() { state_->remove_member(this); }

void AggregateGroup::Member::init(FlowControl& flow) {
  flow_ = &flow;
  // Install first so $cwnd exists before the group pushes shares.
  flow.install_text(kMemberProgram, VarBindings{{"cwnd", share_}});
  state_->add_member(this);
}

void AggregateGroup::Member::on_measurement(FlowControl&, const Measurement& m) {
  state_->on_member_report(this, m.get("acked"), m.num_acks());
}

void AggregateGroup::Member::on_urgent(FlowControl&, ipc::UrgentKind kind,
                                       const Measurement&) {
  if (kind == ipc::UrgentKind::Timeout) {
    state_->on_member_timeout();
  } else if (kind == ipc::UrgentKind::Loss || kind == ipc::UrgentKind::Ecn) {
    state_->on_member_loss();
  }
}

AggregateGroup::AggregateGroup(AggregateConfig config)
    : state_(std::make_shared<State>(config)) {}

AggregateGroup::~AggregateGroup() = default;

AlgorithmFactory AggregateGroup::member_factory(double weight) {
  return [state = state_, weight](const FlowInfo&) {
    return std::make_unique<Member>(state, weight);
  };
}

double AggregateGroup::aggregate_cwnd_bytes() const { return state_->cwnd; }
size_t AggregateGroup::num_members() const {
  return state_->members.size();
}
uint64_t AggregateGroup::loss_episodes() const { return state_->loss_episodes; }

}  // namespace ccp::agent
