// TCP-like reliable transport for the simulator.
//
// Implements what congestion control needs from a transport: byte
// sequencing, cumulative ACKs with out-of-order buffering, SACK with an
// RFC 6675-style scoreboard and pipe-limited loss recovery, RTT sampling
// via timestamp echo (Karn's rule), RTO with exponential backoff, ECN
// echo, and pacing. Congestion control itself is fully delegated to a
// datapath::CcModule — either a native baseline or a CcpFlow (the point
// of the paper).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "datapath/cc_module.hpp"
#include "sim/event_queue.hpp"
#include "sim/packet.hpp"
#include "sim/timer.hpp"
#include "util/quantiles.hpp"
#include "util/time.hpp"

namespace ccp::sim {

struct TcpSenderConfig {
  uint32_t mss = 1460;             // payload bytes per segment
  uint32_t header_bytes = 40;
  Duration min_rto = Duration::from_millis(200);
  Duration max_rto = Duration::from_secs(60);
  bool ecn_enabled = false;
  std::optional<uint64_t> bytes_to_send;  // nullopt = unlimited
  bool record_rtt_samples = false;        // collect into rtt_samples()
  uint32_t dupthresh = 3;                 // SACKed segments above a hole => lost
};

struct TcpSenderStats {
  uint64_t segments_sent = 0;
  uint64_t retransmits = 0;
  uint64_t fast_retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t dupacks = 0;
  uint64_t loss_events = 0;  // distinct congestion episodes
  uint64_t tail_loss_probes = 0;
};

class TcpSender {
 public:
  using Egress = std::function<void(const Packet&)>;

  TcpSender(EventQueue& events, uint32_t flow_id, TcpSenderConfig config,
            datapath::CcModule* cc, Egress egress);

  /// Begins transmitting (call at the flow's start time).
  void start();

  /// Stops offering new data (call at the flow's stop time): the send
  /// window is frozen at snd_nxt, in-flight segments still complete and
  /// lost ones are still repaired. Idempotent.
  void stop();
  bool stopped() const { return stop_limit_ != UINT64_MAX; }

  /// Delivers an ACK from the network.
  void on_ack(const Packet& ack);

  /// Kicks the send loop (e.g. after an external cwnd change).
  void try_send();

  // --- introspection ---
  uint32_t flow_id() const { return flow_id_; }
  uint64_t delivered_bytes() const { return snd_una_; }
  uint64_t sent_bytes() const { return snd_nxt_; }
  /// Conservative in-network estimate (RFC 6675 "pipe"), bytes.
  uint64_t bytes_in_flight() const;
  bool done() const {
    return config_.bytes_to_send.has_value() && snd_una_ >= *config_.bytes_to_send;
  }
  Duration last_rtt() const { return last_rtt_; }
  Duration srtt() const { return srtt_; }
  const TcpSenderStats& stats() const { return stats_; }
  const SampleSet& rtt_samples() const { return rtt_samples_; }
  datapath::CcModule* cc() { return cc_; }

 private:
  // Scoreboard entry for one sent-but-not-cumulatively-acked segment.
  struct SegState {
    uint64_t seq = 0;
    uint32_t len = 0;
    // SACKed segments only: segments [i, i + skip) are all SACKed. Kept
    // short by path compression in next_unsacked().
    uint32_t skip = 0;
    bool sacked = false;
    bool lost = false;
    bool rexmitted = false;     // retransmitted since marked lost
    TimePoint sent_time{};      // last (re)transmission time, for RACK
    TimePoint first_sent{};     // first transmission; ascends with seq
  };

  void send_segment(uint64_t seq, uint32_t len, bool retransmit);
  /// Index of the first unSACKed scoreboard segment at or after `i`
  /// (scoreboard_.size() when there is none).
  size_t next_unsacked(size_t i);
  /// Index of the first segment marked lost and not yet retransmitted.
  size_t first_unrepaired();
  /// Retransmits the segment at index `i`, marked lost.
  void repair(size_t i);
  /// Returns bytes newly SACKed by this ACK.
  uint64_t process_sacks(const Packet& ack);
  /// Returns the number of segments newly marked lost.
  uint32_t detect_losses();
  void enter_recovery();
  void update_rtt(Duration sample);
  void arm_rto();
  void on_rto_fire();
  void arm_tlp();
  void on_tlp_fire();
  void schedule_pacing_kick(TimePoint at);
  bool pacing_allows(uint32_t len);
  uint64_t data_limit() const;

  EventQueue& events_;
  uint32_t flow_id_;
  TcpSenderConfig config_;
  datapath::CcModule* cc_;
  Egress egress_;

  // Sequence state.
  uint64_t snd_una_ = 0;
  uint64_t snd_nxt_ = 0;
  uint64_t stop_limit_ = UINT64_MAX;  // frozen snd_nxt after stop()
  uint64_t high_rexmit_ = 0;  // Karn: no RTT samples at or below this seq
  uint64_t high_sacked_ = 0;  // highest byte covered by any SACK

  // Scoreboard: every outstanding segment, ascending and contiguous in
  // seq. Segments are appended at snd_nxt_ and retired from the front.
  // Scans jump over SACKed runs by their skip distances. That is exact
  // because a segment is never unSACKed, a lost segment is never SACKed
  // (SACKing clears the mark), and the distances are relative, so
  // retiring from the front keeps them valid.
  std::deque<SegState> scoreboard_;
  uint64_t sacked_bytes_ = 0;
  uint64_t lost_unrexmitted_bytes_ = 0;

  // RACK (RFC 8985-lite): send time of the most recently *sent* segment
  // known delivered; anything sent reo_wnd earlier and still unSACKed is
  // lost. Catches interleaved burst drops and lost retransmissions that
  // SACK-range counting cannot see.
  TimePoint rack_newest_delivered_{};

  // Recovery state.
  uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  uint64_t recovery_point_ = 0;

  // RTO state (RFC 6298).
  Duration srtt_ = Duration::zero();
  Duration rttvar_ = Duration::zero();
  Duration rto_ = Duration::from_secs(1);
  uint32_t rto_backoff_ = 1;
  Timer rto_timer_;

  // Tail loss probe (RFC 8985-lite): when ACK progress stalls for ~2
  // SRTT with data outstanding, retransmit the highest unSACKed segment
  // to elicit SACKs above tail holes, converting would-be RTOs into fast
  // recovery.
  Timer tlp_timer_;

  // Pacing: one owned kick event, queued while the sender waits.
  TimePoint next_pace_time_{};
  Event pace_kick_;

  Duration last_rtt_ = Duration::zero();
  SampleSet rtt_samples_;
  uint64_t next_uid_ = 1;
  TcpSenderStats stats_;
  bool started_ = false;
};

struct TcpReceiverConfig {
  /// Delay ACKs: ack every second segment or after 1 ms. Off by default
  /// (both CCP and native runs use the same setting, so comparisons stay
  /// apples-to-apples either way).
  bool delayed_ack = false;
};

class TcpReceiver {
 public:
  using Egress = std::function<void(const Packet&)>;

  TcpReceiver(EventQueue& events, uint32_t flow_id, TcpReceiverConfig config,
              Egress egress);

  void on_data(const Packet& pkt);

  uint64_t cum_ack() const { return cum_ack_; }
  uint64_t received_bytes() const { return cum_ack_; }

 private:
  void send_ack(const Packet& trigger);
  void flush_delayed(const Packet& trigger);

  EventQueue& events_;
  uint32_t flow_id_;
  TcpReceiverConfig config_;
  Egress egress_;

  uint64_t cum_ack_ = 0;
  std::map<uint64_t, uint64_t> ooo_;  // start -> end of buffered ranges
  uint32_t unacked_segments_ = 0;
  Packet delayed_trigger_;  // the segment a pending delayed ACK answers
  Timer delayed_timer_;
  uint64_t next_uid_ = 1;
};

}  // namespace ccp::sim
