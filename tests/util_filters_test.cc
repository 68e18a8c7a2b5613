#include <gtest/gtest.h>

#include "util/ewma.hpp"
#include "util/rate_estimator.hpp"
#include "util/windowed_filter.hpp"

namespace ccp {
namespace {

TEST(Ewma, FirstSampleInitializesExactly) {
  Ewma e(0.125);
  EXPECT_FALSE(e.initialized());
  e.update(100.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 100.0);
}

TEST(Ewma, ConvergesTowardConstantInput) {
  Ewma e(0.5);
  e.update(0.0);
  for (int i = 0; i < 50; ++i) e.update(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-9);
}

TEST(Ewma, GainControlsSpeed) {
  Ewma slow(0.1), fast(0.9);
  slow.update(0);
  fast.update(0);
  slow.update(100);
  fast.update(100);
  EXPECT_LT(slow.value(), fast.value());
  EXPECT_DOUBLE_EQ(slow.value(), 10.0);
  EXPECT_DOUBLE_EQ(fast.value(), 90.0);
}

TEST(Ewma, ResetAndSet) {
  Ewma e(0.5);
  e.update(10);
  e.reset();
  EXPECT_FALSE(e.initialized());
  e.set(42.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(WindowedFilter, TracksMinimum) {
  WindowedFilter<double> f(FilterKind::Min, Duration::from_secs(10));
  TimePoint t = TimePoint::epoch();
  EXPECT_EQ(f.update(5.0, t), 5.0);
  EXPECT_EQ(f.update(7.0, t + Duration::from_secs(1)), 5.0);
  EXPECT_EQ(f.update(3.0, t + Duration::from_secs(2)), 3.0);
  EXPECT_EQ(f.update(9.0, t + Duration::from_secs(3)), 3.0);
}

TEST(WindowedFilter, ExpiresOldMinimum) {
  WindowedFilter<double> f(FilterKind::Min, Duration::from_secs(10));
  TimePoint t = TimePoint::epoch();
  f.update(1.0, t);
  // Feed larger samples past the window; the old min must age out.
  for (int i = 1; i <= 30; ++i) {
    f.update(5.0, t + Duration::from_secs(i));
  }
  EXPECT_EQ(f.get(), 5.0);
}

TEST(WindowedFilter, TracksMaximum) {
  WindowedFilter<double> f(FilterKind::Max, Duration::from_secs(10));
  TimePoint t = TimePoint::epoch();
  f.update(5.0, t);
  f.update(8.0, t + Duration::from_secs(1));
  f.update(2.0, t + Duration::from_secs(2));
  EXPECT_EQ(f.get(), 8.0);
  // Expire the 8.
  for (int i = 3; i <= 30; ++i) f.update(2.0, t + Duration::from_secs(i));
  EXPECT_EQ(f.get(), 2.0);
}

TEST(RateEstimator, ZeroUntilTwoEvents) {
  RateEstimator r(Duration::from_millis(100));
  TimePoint t = TimePoint::epoch();
  EXPECT_EQ(r.rate_bps(t), 0.0);
  r.on_bytes(1000, t);
  EXPECT_EQ(r.rate_bps(t), 0.0);  // single burst: no measurable span
}

TEST(RateEstimator, SteadyStreamRate) {
  RateEstimator r(Duration::from_millis(100));
  TimePoint t = TimePoint::epoch();
  // 1000 bytes every 1 ms = 1 MB/s.
  for (int i = 0; i <= 100; ++i) {
    r.on_bytes(1000, t + Duration::from_millis(i));
  }
  const double rate = r.rate_bps(t + Duration::from_millis(100));
  EXPECT_NEAR(rate, 1e6, 0.05e6);
}

TEST(RateEstimator, OldEventsExpire) {
  RateEstimator r(Duration::from_millis(10));
  TimePoint t = TimePoint::epoch();
  for (int i = 0; i < 10; ++i) r.on_bytes(100000, t + Duration::from_millis(i));
  // Much later, with a slow trickle, the rate must reflect the trickle.
  TimePoint late = t + Duration::from_secs(1);
  for (int i = 0; i < 10; ++i) r.on_bytes(10, late + Duration::from_millis(i));
  const double rate = r.rate_bps(late + Duration::from_millis(9));
  EXPECT_LT(rate, 50000.0);
}

TEST(RateEstimator, TotalBytesMonotone) {
  RateEstimator r;
  TimePoint t = TimePoint::epoch();
  r.on_bytes(10, t);
  r.on_bytes(20, t + Duration::from_millis(1));
  EXPECT_EQ(r.total_bytes(), 30u);
  r.reset();
  EXPECT_EQ(r.total_bytes(), 30u);  // monotone counter survives reset
}

TEST(RateEstimator, WindowAdjustable) {
  RateEstimator r(Duration::from_millis(100));
  r.set_window(Duration::from_millis(5));
  EXPECT_EQ(r.window(), Duration::from_millis(5));
}

TEST(RateEstimator, PausedDropsEventsAndResumesEmpty) {
  RateEstimator r(Duration::from_millis(100));
  const TimePoint t = TimePoint::epoch();
  for (int i = 0; i <= 10; ++i) r.on_bytes(1000, t + Duration::from_millis(i));
  r.set_recording(false);
  EXPECT_FALSE(r.recording());
  r.on_bytes(5000, t + Duration::from_millis(11));
  EXPECT_EQ(r.total_bytes(), 11000u);
  // Pausing again is a no-op; resuming forgets the pre-pause history.
  r.set_recording(false);
  r.set_recording(true);
  RateEstimator fresh(Duration::from_millis(100));
  for (int i = 20; i <= 25; ++i) {
    r.on_bytes(700, t + Duration::from_millis(i));
    fresh.on_bytes(700, t + Duration::from_millis(i));
  }
  EXPECT_EQ(r.rate_bps(t + Duration::from_millis(25)),
            fresh.rate_bps(t + Duration::from_millis(25)));
  EXPECT_GT(r.rate_bps(t + Duration::from_millis(25)), 0.0);
}

TEST(RateEstimator, SameCapacityReinitKeepsRing) {
  RateEstimator r(Duration::from_millis(100), 64);
  const void* ring = r.write_pos();
  for (int i = 0; i < 200; ++i) r.on_bytes(10, TimePoint::from_nanos(i));
  r.reinit(Duration::from_millis(10), 64);
  EXPECT_EQ(r.write_pos(), ring);
  EXPECT_EQ(r.total_bytes(), 0u);
  EXPECT_EQ(r.window(), Duration::from_millis(10));
  r.reinit(Duration::from_millis(10), 128);
  EXPECT_EQ(r.capacity(), 128u);
}

}  // namespace
}  // namespace ccp
