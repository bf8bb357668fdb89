// Cluster monitor: periodic sampling and series accumulation.
#include <gtest/gtest.h>

#include "common/error.h"
#include "monitor/monitor.h"

namespace vmlp::monitor {
namespace {

cluster::ClusterParams params() {
  cluster::ClusterParams p;
  p.machine_count = 2;
  p.machine_capacity = {1000, 1000, 1000};
  return p;
}

TEST(Monitor, ManualSampling) {
  cluster::Cluster clustr(params());
  ClusterMonitor monitor(clustr, 100 * kMsec, kSec, 10 * kSec);
  monitor.sample(0);
  EXPECT_EQ(monitor.sample_count(), 1u);
  EXPECT_DOUBLE_EQ(monitor.mean_overall(), 0.0);

  clustr.machine(MachineId(0)).add_container(ContainerId(0), InstanceId(0), {500, 500, 500},
                                             {500, 500, 500});
  monitor.sample(kSec);
  // One of two machines at 50% on all three dims: U = 1.5 / 6 = 0.25, in the
  // bucket that holds t = 1 s.
  EXPECT_DOUBLE_EQ(monitor.overall_series().mean(0), 0.0);
  EXPECT_NEAR(monitor.overall_series().mean(1), 0.25, 1e-12);
  EXPECT_EQ(monitor.overall_series().samples(1), 1u);
  EXPECT_NEAR(monitor.mean_overall(), 0.125, 1e-12);
}

TEST(Monitor, PerResourceSeries) {
  cluster::Cluster clustr(params());
  ClusterMonitor monitor(clustr, 100 * kMsec, kSec, 10 * kSec);
  clustr.machine(MachineId(0)).add_container(ContainerId(0), InstanceId(0), {1000, 0, 0},
                                             {1000, 0, 0});
  monitor.sample(500 * kMsec);
  // U folds every resource dimension: a full CPU on one of two machines is
  // 1.0 of 6 machine-dimensions.
  EXPECT_NEAR(monitor.overall_series().mean(0), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(monitor.mean_overall(), 1.0 / 6.0, 1e-12);
}

TEST(Monitor, AttachSamplesPeriodically) {
  cluster::Cluster clustr(params());
  sim::Engine engine;
  ClusterMonitor monitor(clustr, 250 * kMsec, kSec, 10 * kSec);
  monitor.attach(engine);
  engine.run_until(2 * kSec);
  // Samples at 0, 250ms, ..., 2000ms inclusive.
  EXPECT_EQ(monitor.sample_count(), 9u);
}

TEST(Monitor, BadPeriodThrows) {
  cluster::Cluster clustr(params());
  EXPECT_THROW(ClusterMonitor(clustr, 0, kSec, kSec), InvariantError);
}

TEST(Monitor, SeriesBucketsAverageSamples) {
  cluster::Cluster clustr(params());
  ClusterMonitor monitor(clustr, 100 * kMsec, kSec, 5 * kSec);
  clustr.machine(MachineId(0)).add_container(ContainerId(0), InstanceId(0), {600, 600, 600},
                                             {600, 600, 600});
  monitor.sample(100 * kMsec);
  monitor.sample(200 * kMsec);
  const auto series = monitor.overall_series().mean_series();
  ASSERT_EQ(series.size(), 5u);
  EXPECT_NEAR(series[0], 0.3, 1e-12);  // 1.8 utilization-sum over 6 dims per sample
  EXPECT_DOUBLE_EQ(series[3], 0.0);
}

}  // namespace
}  // namespace vmlp::monitor
