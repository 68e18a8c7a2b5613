#include <sys/eventfd.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <new>
#include <poll.h>
#include <stdexcept>

#include "ipc/shm_ring.hpp"
#include "ipc/transport.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"

namespace ccp::ipc {
namespace {

size_t round_up_pow2(size_t v) {
  size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

/// One cache line per flag: a consumer's park/unpark stores never share
/// a line with the other direction's flag or with a ring's head/tail.
struct alignas(64) ParkFlag {
  std::atomic<bool> parked{false};
};

/// Control block at the start of the shared mapping.
struct ChannelControl {
  ParkFlag park_ab;  // ring_ab's consumer is asleep (or about to be)
  ParkFlag park_ba;
  std::atomic<bool> closed{false};
};

/// Shared channel state: two rings (a->b and b->a) plus one eventfd
/// doorbell per direction for blocking waits. Mapped MAP_SHARED so both
/// sides of a fork see the same memory. Reference-counted by the two
/// transport endpoints within one process; across processes each side
/// holds its own mapping of the same pages.
///
/// Wake-ups follow io_uring's IORING_SQ_NEED_WAKEUP protocol. A Blocking
/// consumer with nothing to read sets its direction's `parked`, takes a
/// seq_cst fence and re-checks the ring; only if it is still empty does
/// it poll() the eventfd. A producer pushes, takes a seq_cst fence, and
/// writes the eventfd only if `parked` is set. The two fences order
/// "store parked; load tail" against "store tail; load parked", so at
/// least one side sees the other: either the re-check finds the record
/// or the producer rings. A consumer that is awake costs its producer
/// no syscall.
struct ShmChannel {
  void* mem = nullptr;
  size_t mem_size = 0;
  ChannelControl* ctl = nullptr;  // lives in the shared mapping
  ShmRing ring_ab;
  ShmRing ring_ba;
  int event_ab = -1;  // written when ring_ab gains data and its consumer is parked
  int event_ba = -1;

  ~ShmChannel() {
    if (event_ab >= 0) ::close(event_ab);
    if (event_ba >= 0) ::close(event_ba);
    if (mem != nullptr) ::munmap(mem, mem_size);
  }
};

class ShmTransport final : public Transport {
 public:
  ShmTransport(std::shared_ptr<ShmChannel> ch, bool is_a, ShmWaitMode mode)
      : ch_(std::move(ch)), is_a_(is_a), mode_(mode) {}

  ~ShmTransport() override {
    ch_->ctl->closed.store(true, std::memory_order_release);
    // Unconditional: a consumer parked with no timeout must see the close.
    ring_doorbell(tx_event());
  }

  bool send_frame(std::span<const uint8_t> frame) override {
    if (peer_closed()) return false;
    if (!tx().push(frame)) {  // ring full: caller drops/retries
      if (telemetry::enabled()) telemetry::metrics().ipc_ring_full.inc();
      CCP_WARN("shm ring full: dropping %zu-byte frame (backpressure)",
               frame.size());
      return false;
    }
    if (telemetry::enabled()) {
      telemetry::metrics().ipc_ring_used_bytes.set(
          static_cast<int64_t>(tx().bytes_used()));
    }
    if (mode_ == ShmWaitMode::Blocking) {
      // Pairs with the fence in recv_frame's park (see ShmChannel).
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (tx_parked().load(std::memory_order_relaxed)) {
        ring_doorbell(tx_event());
        if (telemetry::enabled()) telemetry::metrics().ipc_doorbells.inc();
      }
    }
    return true;
  }

  std::optional<std::vector<uint8_t>> recv_frame(
      std::optional<Duration> timeout) override {
    const TimePoint deadline =
        timeout.has_value() ? monotonic_now() + *timeout : TimePoint::max();
    for (;;) {
      if (auto frame = rx().pop()) return frame;
      if (peer_closed() || rx().corrupt()) return std::nullopt;
      if (mode_ == ShmWaitMode::BusyPoll) {
        if (monotonic_now() >= deadline) return std::nullopt;
        // Spin: models a dedicated core polling the ring (§2.3's
        // low-latency option; also how TurboBoost keeps the core hot).
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
        continue;
      }
      // Blocking: park, then wait on the doorbell with the remaining
      // timeout.
      const Duration remain = deadline - monotonic_now();
      if (timeout.has_value() && remain <= Duration::zero()) return std::nullopt;
      std::atomic<bool>& parked = rx_parked();
      parked.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!rx().empty() || peer_closed()) {
        parked.store(false, std::memory_order_relaxed);
        continue;
      }
      struct pollfd pfd{rx_event(), POLLIN, 0};
      const int ms = timeout.has_value()
                         ? static_cast<int>(std::max<int64_t>(1, remain.millis()))
                         : -1;
      int r;
      do {
        r = ::poll(&pfd, 1, ms);
      } while (r < 0 && errno == EINTR);
      parked.store(false, std::memory_order_relaxed);
      if (r > 0) {
        drain_doorbell(rx_event());
      } else if (r == 0) {
        // Timed out waiting for the doorbell; one more opportunistic pop.
        if (auto frame = rx().pop()) return frame;
        return std::nullopt;
      }
    }
  }

  std::optional<std::vector<uint8_t>> try_recv_frame() override { return rx().pop(); }

  size_t drain_frames(const FrameSink& sink) override {
    const size_t n = rx().drain(drain_scratch_, sink);
    if (n > 0 && telemetry::enabled()) telemetry::metrics().ipc_drain_batch.record(n);
    return n;
  }

  bool closed() const override {
    return (peer_closed() && rx().empty()) || rx().corrupt();
  }

  TransportStatus status() const override {
    if (rx().corrupt()) return TransportStatus::Error;
    return closed() ? TransportStatus::PeerDisconnected : TransportStatus::Ok;
  }

 private:
  ShmRing& tx() { return is_a_ ? ch_->ring_ab : ch_->ring_ba; }
  ShmRing& rx() { return is_a_ ? ch_->ring_ba : ch_->ring_ab; }
  const ShmRing& rx() const { return is_a_ ? ch_->ring_ba : ch_->ring_ab; }
  int tx_event() const { return is_a_ ? ch_->event_ab : ch_->event_ba; }
  int rx_event() const { return is_a_ ? ch_->event_ba : ch_->event_ab; }
  std::atomic<bool>& tx_parked() {
    return (is_a_ ? ch_->ctl->park_ab : ch_->ctl->park_ba).parked;
  }
  std::atomic<bool>& rx_parked() {
    return (is_a_ ? ch_->ctl->park_ba : ch_->ctl->park_ab).parked;
  }
  bool peer_closed() const { return ch_->ctl->closed.load(std::memory_order_acquire); }

  static void ring_doorbell(int fd) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
  }
  static void drain_doorbell(int fd) {
    uint64_t counter;
    [[maybe_unused]] ssize_t n = ::read(fd, &counter, sizeof(counter));
  }

  std::shared_ptr<ShmChannel> ch_;
  bool is_a_;
  ShmWaitMode mode_;
  std::vector<uint8_t> drain_scratch_;  // staging for wrap-point records
};

}  // namespace

TransportPair make_shm_ring_pair(size_t capacity_bytes, ShmWaitMode mode) {
  const size_t cap = round_up_pow2(std::max<size_t>(capacity_bytes, 4096));
  const size_t ring_bytes = ShmRing::mapping_size(cap);
  // Layout: [control block][ring a->b][ring b->a]. The mapping is page
  // aligned, so each ParkFlag starts its own cache line.
  const size_t total = sizeof(ChannelControl) + 2 * ring_bytes;

  void* mem = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error(std::string("mmap: ") + std::strerror(errno));
  }

  auto ch = std::make_shared<ShmChannel>();
  ch->mem = mem;
  ch->mem_size = total;
  auto* base = static_cast<uint8_t*>(mem);
  ch->ctl = new (base) ChannelControl();
  ch->ring_ab = ShmRing::create_in(base + sizeof(ChannelControl), cap);
  ch->ring_ba = ShmRing::create_in(base + sizeof(ChannelControl) + ring_bytes, cap);
  ch->event_ab = ::eventfd(0, EFD_NONBLOCK);
  ch->event_ba = ::eventfd(0, EFD_NONBLOCK);
  if (ch->event_ab < 0 || ch->event_ba < 0) {
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }

  // NOTE: the two endpoints share one ShmChannel (and its fds). Across a
  // fork both processes inherit the fds and the shared mapping, so each
  // process simply uses its own endpoint and destroys the other.
  return TransportPair{std::make_unique<ShmTransport>(ch, /*is_a=*/true, mode),
                       std::make_unique<ShmTransport>(ch, /*is_a=*/false, mode)};
}

}  // namespace ccp::ipc
