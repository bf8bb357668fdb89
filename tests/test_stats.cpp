// Statistics substrate: Welford summaries, quantiles, 2-D histograms, series, QoS.
#include <gtest/gtest.h>

#include <cmath>

#include "common/audit.h"
#include "common/error.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "stats/qos.h"
#include "stats/summary.h"
#include "stats/timeseries.h"

namespace vmlp::stats {
namespace {

TEST(Summary, EmptyIsNan) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.variance()));
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Summary, SampleVarianceUsesNMinusOne) {
  Summary s;
  s.add(1.0);
  EXPECT_TRUE(std::isnan(s.sample_variance()));
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
}

TEST(SampleSet, QuantileInterpolation) {
  SampleSet s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0 / 3.0), 20.0);
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.p99(), 7.0);
}

TEST(SampleSet, EmptyQuantileThrows) {
  SampleSet s;
  EXPECT_THROW((void)s.quantile(0.5), InvariantError);
  EXPECT_THROW((void)s.mean(), InvariantError);
}

TEST(SampleSet, OutOfRangeQuantileThrows) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW((void)s.quantile(-0.1), InvariantError);
  EXPECT_THROW((void)s.quantile(1.1), InvariantError);
}

TEST(SampleSet, QuantilesMonotone) {
  SampleSet s;
  for (int i = 0; i < 1000; ++i) s.add(std::cos(i) * 100.0);
  double prev = s.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = s.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(SampleSet, AddAfterQuantileInvalidatesSortCache) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(Histogram2D, RowFractions) {
  Histogram2D h(2, 0.0, 10.0, 5);
  h.add(0, 1.0);
  h.add(0, 1.5);
  h.add(0, 9.0);
  h.add(1, 5.0);
  EXPECT_DOUBLE_EQ(h.row_total(0), 3.0);
  EXPECT_DOUBLE_EQ(h.row_fraction(0, 0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.row_fraction(0, 4), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.row_fraction(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(h.row_fraction(1, 0), 0.0);
}

TEST(Histogram2D, OutOfRangeRowThrows) {
  Histogram2D h(2, 0.0, 1.0, 2);
  EXPECT_THROW(h.add(2, 0.5), InvariantError);
  EXPECT_THROW((void)h.count(0, 5), InvariantError);
}

TEST(TimeSeries, BucketMeans) {
  TimeSeries ts(kSec, 10 * kSec);
  ts.add(500 * kMsec, 2.0);
  ts.add(600 * kMsec, 4.0);
  ts.add(5 * kSec, 10.0);
  EXPECT_EQ(ts.bucket_count(), 10u);
  EXPECT_DOUBLE_EQ(ts.mean(0), 3.0);
  EXPECT_DOUBLE_EQ(ts.mean(5), 10.0);
  EXPECT_DOUBLE_EQ(ts.mean(9), 0.0);
  EXPECT_EQ(ts.samples(0), 2u);
}

TEST(TimeSeries, DropsOutOfRangeSamples) {
  const bool prev = audit::enabled();
  audit::set_enabled(false);
  TimeSeries ts(kSec, 2 * kSec);
  ts.add(-5, 1.0);         // before the window
  ts.add(2 * kSec, 2.0);   // t == horizon: first time outside the last bucket
  ts.add(100 * kSec, 3.0); // far past
  ts.add(-1, 1.0);
  EXPECT_EQ(ts.samples(0), 0u);
  EXPECT_EQ(ts.samples(1), 0u);
  EXPECT_DOUBLE_EQ(ts.sum(0), 0.0);
  EXPECT_DOUBLE_EQ(ts.sum(1), 0.0);
  EXPECT_EQ(ts.dropped(), 4u);
  ts.add(2 * kSec - 1, 5.0);  // last representable instant still lands
  EXPECT_EQ(ts.samples(1), 1u);
  EXPECT_EQ(ts.dropped(), 4u);
  audit::set_enabled(prev);
}

TEST(TimeSeries, OutOfRangeThrowsUnderAudit) {
  const bool prev = audit::enabled();
  audit::set_enabled(true);
  TimeSeries ts(kSec, 2 * kSec);
  EXPECT_THROW(ts.add(2 * kSec, 1.0), InvariantError);
  EXPECT_THROW(ts.add(-1, 1.0), InvariantError);
  EXPECT_THROW(ts.add(3 * kSec, 1.0), InvariantError);
  EXPECT_NO_THROW(ts.add(0, 1.0));
  EXPECT_NO_THROW(ts.add(2 * kSec - 1, 1.0));
  audit::set_enabled(prev);
}

TEST(Qos, ViolationAccounting) {
  QosTracker qos;
  const RequestTypeId t(0);
  qos.set_slo(t, 100 * kMsec);
  qos.record_completion(t, 50 * kMsec);   // ok
  qos.record_completion(t, 150 * kMsec);  // violation
  qos.record_unfinished(t);               // violation
  EXPECT_EQ(qos.completed(), 2u);
  EXPECT_EQ(qos.unfinished(), 1u);
  EXPECT_EQ(qos.violations(), 2u);
  EXPECT_EQ(qos.total(), 3u);
  EXPECT_NEAR(qos.violation_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Qos, ExactlyAtSloIsNotViolation) {
  QosTracker qos;
  const RequestTypeId t(1);
  qos.set_slo(t, 100);
  qos.record_completion(t, 100);
  EXPECT_EQ(qos.violations(), 0u);
}

TEST(Qos, UnknownTypeThrows) {
  QosTracker qos;
  EXPECT_THROW(qos.record_completion(RequestTypeId(9), 1), InvariantError);
  EXPECT_THROW((void)qos.slo(RequestTypeId(9)), InvariantError);
}

TEST(Qos, EmptyRateIsZero) {
  QosTracker qos;
  EXPECT_DOUBLE_EQ(qos.violation_rate(), 0.0);
}

TEST(Qos, LatenciesRecorded) {
  QosTracker qos;
  const RequestTypeId t(0);
  qos.set_slo(t, 1000);
  qos.record_completion(t, 10);
  qos.record_completion(t, 20);
  EXPECT_EQ(qos.latencies().count(), 2u);
  EXPECT_DOUBLE_EQ(qos.latencies().mean(), 15.0);
}

}  // namespace
}  // namespace vmlp::stats
