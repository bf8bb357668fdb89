// Machines, containers, cluster aggregation.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster.h"
#include "common/error.h"

namespace vmlp::cluster {
namespace {

ClusterParams small_params() {
  ClusterParams p;
  p.machine_count = 4;
  p.machine_capacity = {1000, 2000, 100};
  return p;
}

TEST(Container, EffectiveUsageFollowsState) {
  Container c(ContainerId(1), InstanceId(2), MachineId(0), {800, 100, 10}, {400, 100, 10});
  // Running: min(limit, demand).
  EXPECT_EQ(c.effective_usage(), (ResourceVector{400, 100, 10}));
  c.suspend();
  EXPECT_EQ(c.state(), ContainerState::kSuspended);
  const auto suspended = c.effective_usage();
  EXPECT_NEAR(suspended.cpu, std::max(Container::kSuspendedCpuFloor,
                                      400 * Container::kSuspendedCpuFraction), 1e-9);
  EXPECT_NEAR(suspended.mem, std::max(Container::kSuspendedMemFloor,
                                      100 * Container::kSuspendedMemFraction), 1e-9);
  EXPECT_NEAR(suspended.io, std::max(Container::kSuspendedIoFloor,
                                     10 * Container::kSuspendedIoFraction), 1e-9);
}

TEST(Container, SetLimitReturnsOld) {
  Container c(ContainerId(1), InstanceId(2), MachineId(0), {800, 100, 10}, {400, 100, 10});
  const auto old = c.set_limit({600, 100, 10});
  EXPECT_EQ(old, (ResourceVector{400, 100, 10}));
  EXPECT_EQ(c.limit(), (ResourceVector{600, 100, 10}));
  EXPECT_THROW(c.set_limit({-1, 0, 0}), InvariantError);
}

TEST(Machine, AddRemoveContainers) {
  Machine m(MachineId(0), {1000, 2000, 100});
  m.add_container(ContainerId(1), InstanceId(10), {400, 100, 10}, {400, 100, 10});
  m.add_container(ContainerId(2), InstanceId(11), {300, 100, 10}, {300, 100, 10});
  EXPECT_EQ(m.container_count(), 2u);
  EXPECT_NE(m.find_container(ContainerId(1)), nullptr);
  m.remove_container(ContainerId(1));
  EXPECT_EQ(m.container_count(), 1u);
  EXPECT_EQ(m.find_container(ContainerId(1)), nullptr);
}

TEST(Machine, DuplicateContainerThrows) {
  Machine m(MachineId(0), {1000, 2000, 100});
  m.add_container(ContainerId(1), InstanceId(10), {1, 1, 1}, {1, 1, 1});
  EXPECT_THROW(m.add_container(ContainerId(1), InstanceId(11), {1, 1, 1}, {1, 1, 1}),
               InvariantError);
}

TEST(Machine, RemoveMissingThrows) {
  Machine m(MachineId(0), {1000, 2000, 100});
  EXPECT_THROW(m.remove_container(ContainerId(9)), InvariantError);
}

TEST(Machine, UsageAndOversubscription) {
  Machine m(MachineId(0), {1000, 2000, 100});
  m.add_container(ContainerId(1), InstanceId(1), {600, 500, 40}, {600, 500, 40});
  m.add_container(ContainerId(2), InstanceId(2), {600, 500, 40}, {600, 500, 40});
  // Physical usage clamps to capacity even when limits exceed it.
  EXPECT_EQ(m.current_usage().cpu, 1000);
  EXPECT_EQ(m.allocated().cpu, 1200);
}

TEST(Machine, UtilizationSum) {
  Machine m(MachineId(0), {1000, 2000, 100});
  EXPECT_DOUBLE_EQ(m.utilization_sum(), 0.0);
  m.add_container(ContainerId(1), InstanceId(1), {500, 1000, 50}, {500, 1000, 50});
  EXPECT_DOUBLE_EQ(m.utilization_sum(), 1.5);  // 0.5 + 0.5 + 0.5
}

TEST(Cluster, Construction) {
  Cluster c(small_params());
  EXPECT_EQ(c.machine_count(), 4u);
  EXPECT_EQ(c.machine(MachineId(3)).id(), MachineId(3));
  EXPECT_THROW((void)c.machine(MachineId(4)), InvariantError);
}

TEST(Cluster, OverallUtilization) {
  Cluster c(small_params());
  EXPECT_DOUBLE_EQ(c.overall_utilization(), 0.0);
  // Fill one machine's CPU halfway: U = 0.5 / (3 * 4).
  c.machine(MachineId(0)).add_container(ContainerId(1), InstanceId(1), {500, 0, 0}, {500, 0, 0});
  EXPECT_NEAR(c.overall_utilization(), 0.5 / 12.0, 1e-12);
}

TEST(Cluster, UtilizationBounded) {
  Cluster c(small_params());
  for (std::uint32_t m = 0; m < 4; ++m) {
    c.machine(MachineId(m)).add_container(ContainerId(m), InstanceId(m), {9999, 9999, 9999},
                                          {9999, 9999, 9999});
  }
  EXPECT_LE(c.overall_utilization(), 1.0);
  EXPECT_GT(c.overall_utilization(), 0.99);
}

TEST(Cluster, LedgerPerMachine) {
  Cluster c(small_params());
  c.machine(MachineId(0)).ledger().reserve(0, 100, {500, 0, 0});
  EXPECT_FALSE(c.machine(MachineId(0)).ledger().fits(0, 100, {600, 0, 0}));
  EXPECT_TRUE(c.machine(MachineId(1)).ledger().fits(0, 100, {600, 0, 0}));
}

TEST(Cluster, BadParamsThrow) {
  ClusterParams p;
  p.machine_count = 0;
  EXPECT_THROW(Cluster{p}, InvariantError);
}

}  // namespace
}  // namespace vmlp::cluster
