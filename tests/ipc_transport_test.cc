#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "ipc/transport.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace ccp::ipc {
namespace {

std::vector<uint8_t> bytes(std::initializer_list<uint8_t> list) { return list; }

enum class Kind { Unix, InProc, ShmBlocking, ShmBusy };

TransportPair make(Kind kind) {
  switch (kind) {
    case Kind::Unix: return make_unix_socket_pair();
    case Kind::InProc: return make_inproc_pair();
    case Kind::ShmBlocking: return make_shm_ring_pair(1 << 16, ShmWaitMode::Blocking);
    case Kind::ShmBusy: return make_shm_ring_pair(1 << 16, ShmWaitMode::BusyPoll);
  }
  return {};
}

class TransportTest : public ::testing::TestWithParam<Kind> {};

TEST_P(TransportTest, SendThenReceive) {
  auto pair = make(GetParam());
  auto msg = bytes({1, 2, 3, 4, 5});
  ASSERT_TRUE(pair.a->send_frame(msg));
  auto got = pair.b->recv_frame(Duration::from_secs(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, msg);
}

TEST_P(TransportTest, BothDirections) {
  auto pair = make(GetParam());
  ASSERT_TRUE(pair.a->send_frame(bytes({1})));
  ASSERT_TRUE(pair.b->send_frame(bytes({2})));
  auto at_b = pair.b->recv_frame(Duration::from_secs(1));
  auto at_a = pair.a->recv_frame(Duration::from_secs(1));
  ASSERT_TRUE(at_b.has_value());
  ASSERT_TRUE(at_a.has_value());
  EXPECT_EQ((*at_b)[0], 1);
  EXPECT_EQ((*at_a)[0], 2);
}

TEST_P(TransportTest, PreservesBoundariesAndOrder) {
  auto pair = make(GetParam());
  for (uint8_t i = 0; i < 50; ++i) {
    std::vector<uint8_t> frame(i + 1, i);
    ASSERT_TRUE(pair.a->send_frame(frame));
  }
  for (uint8_t i = 0; i < 50; ++i) {
    auto got = pair.b->recv_frame(Duration::from_secs(1));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->size(), static_cast<size_t>(i + 1));
    EXPECT_EQ((*got)[0], i);
  }
}

TEST_P(TransportTest, TryRecvNonBlocking) {
  auto pair = make(GetParam());
  EXPECT_FALSE(pair.b->try_recv_frame().has_value());
  ASSERT_TRUE(pair.a->send_frame(bytes({9})));
  // A frame may take an instant to land on threaded transports.
  std::optional<std::vector<uint8_t>> got;
  for (int i = 0; i < 1000 && !got; ++i) {
    got = pair.b->try_recv_frame();
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0], 9);
}

TEST_P(TransportTest, RecvTimesOut) {
  auto pair = make(GetParam());
  const TimePoint before = monotonic_now();
  auto got = pair.b->recv_frame(Duration::from_millis(30));
  EXPECT_FALSE(got.has_value());
  EXPECT_GE((monotonic_now() - before).millis(), 25);
}

TEST_P(TransportTest, LargeFrame) {
  auto pair = make(GetParam());
  std::vector<uint8_t> big(32 * 1024);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i * 31);
  ASSERT_TRUE(pair.a->send_frame(big));
  auto got = pair.b->recv_frame(Duration::from_secs(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, big);
}

TEST_P(TransportTest, ThreadedPingPong) {
  auto pair = make(GetParam());
  constexpr int kRounds = 500;
  std::thread echo([&] {
    for (int i = 0; i < kRounds; ++i) {
      auto got = pair.b->recv_frame(Duration::from_secs(5));
      if (!got) break;
      pair.b->send_frame(*got);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    std::vector<uint8_t> msg = {static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8)};
    ASSERT_TRUE(pair.a->send_frame(msg));
    auto got = pair.a->recv_frame(Duration::from_secs(5));
    ASSERT_TRUE(got.has_value()) << "round " << i;
    ASSERT_EQ(*got, msg);
  }
  echo.join();
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportTest,
                         ::testing::Values(Kind::Unix, Kind::InProc,
                                           Kind::ShmBlocking, Kind::ShmBusy),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::Unix: return "Unix";
                             case Kind::InProc: return "InProc";
                             case Kind::ShmBlocking: return "ShmBlocking";
                             case Kind::ShmBusy: return "ShmBusy";
                           }
                           return "?";
                         });

TEST(UnixTransport, PeerCloseUnblocksReceiver) {
  auto pair = make_unix_socket_pair();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pair.a.reset();
  });
  auto got = pair.b->recv_frame(Duration::from_secs(5));
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(pair.b->closed());
  closer.join();
}

TEST(UnixTransport, PeerCloseReportsDisconnectedStatus) {
  // EOF from the peer must surface as an explicit PeerDisconnected
  // status, not a generic close — the supervisor keys its reconnect
  // logic off this distinction (docs/RESILIENCE.md).
  auto pair = make_unix_socket_pair();
  EXPECT_EQ(pair.b->status(), TransportStatus::Ok);
  pair.a.reset();
  // Status latches when the receive path observes the hangup.
  auto got = pair.b->recv_frame(Duration::from_secs(1));
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(pair.b->closed());
  EXPECT_EQ(pair.b->status(), TransportStatus::PeerDisconnected);
}

TEST(UnixTransport, SendToGonePeerReportsDisconnectedStatus) {
  auto pair = make_unix_socket_pair();
  pair.b.reset();
  // EPIPE/ECONNRESET on send (possibly after a buffered success) must
  // latch PeerDisconnected too.
  bool any_failed = false;
  for (int i = 0; i < 64 && !any_failed; ++i) {
    any_failed = !pair.a->send_frame(bytes({1, 2, 3}));
  }
  EXPECT_TRUE(any_failed);
  EXPECT_EQ(pair.a->status(), TransportStatus::PeerDisconnected);
}

TEST(TransportStatusNames, AreStable) {
  EXPECT_STREQ(transport_status_name(TransportStatus::Ok), "ok");
  EXPECT_STREQ(transport_status_name(TransportStatus::PeerDisconnected),
               "peer_disconnected");
  EXPECT_STREQ(transport_status_name(TransportStatus::Error), "error");
}

TEST(ShmRing, FullRingRejectsWithoutCorruption) {
  auto pair = make_shm_ring_pair(4096, ShmWaitMode::BusyPoll);
  std::vector<uint8_t> frame(1000, 0x5a);
  int accepted = 0;
  while (pair.a->send_frame(frame)) ++accepted;
  EXPECT_GT(accepted, 1);
  // Drain and verify every accepted frame intact.
  for (int i = 0; i < accepted; ++i) {
    auto got = pair.b->try_recv_frame();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, frame);
  }
  EXPECT_FALSE(pair.b->try_recv_frame().has_value());
  // Space freed: sending works again.
  EXPECT_TRUE(pair.a->send_frame(frame));
}

// Parked-consumer doorbell (transport_shm.cc): the producer writes the
// eventfd only when the consumer has announced it is going to sleep.
// Every wait below is recv_frame(std::nullopt), with no timeout, so a
// lost wake-up cannot be hidden by a poll timeout the way
// TransportLoop's 10 ms one would hide it.

uint64_t doorbells() { return telemetry::metrics().ipc_doorbells.value(); }

std::vector<uint8_t> seq_frame(uint64_t seq) {
  std::vector<uint8_t> f(8 + seq % 24, static_cast<uint8_t>(seq));
  std::memcpy(f.data(), &seq, 8);
  return f;
}

void spin_for_ns(uint64_t ns) {
  const TimePoint until = monotonic_now() + Duration::from_nanos(static_cast<int64_t>(ns));
  while (monotonic_now() < until) {
  }
}

/// Lockstep stream: the producer sends frame i only after the consumer
/// has taken frame i-1, so the consumer finds the ring empty and parks
/// before every frame, and every frame's wake-up is needed on its own
/// (no later frame can ring for a lost one). The seeded 0–3 µs gap, at
/// nanosecond resolution, lands the push at every point of the
/// consumer's park sequence, including the few-ns store-buffer windows
/// that the fences close.
void lockstep_stream(std::unique_ptr<Transport>& tx, Transport& rx, uint64_t seed) {
  constexpr uint64_t kFrames = 100'000;
  std::atomic<uint64_t> taken{0};
  std::atomic<uint64_t> bad_seq{0};  // first out-of-order frame + 1
  std::thread consumer([&] {
    for (uint64_t i = 0; i < kFrames; ++i) {
      auto f = rx.recv_frame(std::nullopt);
      if (!f.has_value()) return;  // the producer gave up and closed
      if (*f != seq_frame(i) && bad_seq.load() == 0) bad_seq.store(i + 1);
      taken.store(i + 1, std::memory_order_release);
    }
  });
  const uint64_t rung0 = doorbells();
  Rng rng(seed);
  uint64_t stuck_at = kFrames;
  for (uint64_t i = 0; i < kFrames && stuck_at == kFrames; ++i) {
    spin_for_ns(rng.next_below(3000));
    EXPECT_TRUE(tx->send_frame(seq_frame(i)));
    const TimePoint deadline = monotonic_now() + Duration::from_secs(10);
    while (taken.load(std::memory_order_acquire) != i + 1) {
      if (monotonic_now() > deadline) {
        stuck_at = i;
        break;
      }
    }
  }
  const uint64_t rung = doorbells() - rung0;
  EXPECT_EQ(stuck_at, kFrames) << "lost wake-up: frame " << stuck_at
                               << " sat in the ring while the consumer slept";
  // A stuck consumer is released by the close's unconditional doorbell,
  // so a lost wake-up fails the test instead of hanging it.
  if (stuck_at != kFrames) tx.reset();
  consumer.join();
  EXPECT_EQ(bad_seq.load(), 0u) << "frame " << bad_seq.load() - 1 << " out of order";
  EXPECT_EQ(taken.load(), kFrames);
  // The consumer really slept: some frames needed the doorbell.
  EXPECT_GT(rung, 0u);
  EXPECT_LE(rung, kFrames);
}

TEST(ShmWake, NoTimeoutRecvSeesEveryFrameAToB) {
  auto pair = make_shm_ring_pair(1 << 16, ShmWaitMode::Blocking);
  lockstep_stream(pair.a, *pair.b, 0xa2b);
}

TEST(ShmWake, NoTimeoutRecvSeesEveryFrameBToA) {
  auto pair = make_shm_ring_pair(1 << 16, ShmWaitMode::Blocking);
  lockstep_stream(pair.b, *pair.a, 0xb2a);
}

TEST(ShmWake, PeerCloseWakesParkedConsumer) {
  // Each side in turn parks with no timeout; destroying its peer must
  // wake it, although no frame was sent.
  for (const bool a_waits : {true, false}) {
    auto pair = make_shm_ring_pair(1 << 16, ShmWaitMode::Blocking);
    Transport& waiter = a_waits ? *pair.a : *pair.b;
    std::unique_ptr<Transport>& peer = a_waits ? pair.b : pair.a;
    std::atomic<bool> returned{false};
    std::optional<std::vector<uint8_t>> got;
    std::thread t([&] {
      got = waiter.recv_frame(std::nullopt);
      returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(returned.load()) << "recv_frame returned before the close";
    peer.reset();
    t.join();
    EXPECT_FALSE(got.has_value());
    EXPECT_TRUE(waiter.closed());
    EXPECT_EQ(waiter.status(), TransportStatus::PeerDisconnected);
  }
}

TEST(ShmWake, BusyConsumerTakesFewerDoorbellsThanFrames) {
  // The producer sends flat out while the consumer does some work per
  // frame, so the consumer mostly finds data waiting and never parks.
  constexpr uint64_t kFrames = 20'000;
  auto pair = make_shm_ring_pair(1 << 20, ShmWaitMode::Blocking);
  const uint64_t rung0 = doorbells();
  uint64_t received = 0;
  std::thread consumer([&] {
    for (uint64_t i = 0; i < kFrames; ++i) {
      auto f = pair.b->recv_frame(std::nullopt);
      if (!f.has_value()) return;
      if (*f == seq_frame(i)) ++received;
      spin_for_ns(5000);
    }
  });
  for (uint64_t i = 0; i < kFrames; ++i) {
    while (!pair.a->send_frame(seq_frame(i))) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(received, kFrames);
  EXPECT_LT(doorbells() - rung0, kFrames);
}

TEST(ShmWake, NonBlockingConsumersAreNeverRung) {
  // A consumer that only drains (the datapath end) and a BusyPoll
  // consumer never park, so their producers make no syscall at all.
  for (const ShmWaitMode mode : {ShmWaitMode::Blocking, ShmWaitMode::BusyPoll}) {
    auto pair = make_shm_ring_pair(1 << 16, mode);
    const uint64_t rung0 = doorbells();
    size_t drained = 0;
    for (uint64_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(pair.a->send_frame(seq_frame(i)));
      if (i % 10 == 9) drained += pair.b->drain_frames([](std::span<const uint8_t>) {});
    }
    std::thread consumer([&] {
      for (int i = 0; i < 100; ++i) {
        if (mode == ShmWaitMode::BusyPoll) {
          drained += pair.b->recv_frame(std::nullopt).has_value();
        } else {
          drained += pair.b->try_recv_frame().has_value();
        }
      }
    });
    for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(pair.a->send_frame(seq_frame(i)));
    consumer.join();
    drained += pair.b->drain_frames([](std::span<const uint8_t>) {});
    EXPECT_EQ(drained, 1100u);
    EXPECT_EQ(doorbells() - rung0, 0u);
  }
}

TEST(InProcTransport, CloseDrainsRemainingFrames) {
  auto pair = make_inproc_pair();
  pair.a->send_frame(bytes({1}));
  pair.a->send_frame(bytes({2}));
  pair.a.reset();  // peer gone, but queued frames must still deliver
  auto f1 = pair.b->try_recv_frame();
  auto f2 = pair.b->try_recv_frame();
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_TRUE(pair.b->closed());
}

}  // namespace
}  // namespace ccp::ipc
