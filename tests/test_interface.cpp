// InterfaceLayer (Table III analogue) and the shared estimation helpers.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "mlp/interface_layer.h"
#include "sched/common.h"
#include "sched/driver.h"
#include "workloads/suite.h"

namespace vmlp::mlp {
namespace {

class ProbeScheduler : public sched::IScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "probe"; }
  void on_request_arrival(RequestId id) override {
    if (hook) hook(id);
  }
  void on_node_unblocked(RequestId, std::size_t) override {}
  void on_tick() override {}
  std::function<void(RequestId)> hook;
};

sched::DriverParams params() {
  sched::DriverParams p;
  p.horizon = 5 * kSec;
  p.cluster.machine_count = 4;
  p.machines_per_rack = 2;
  p.seed = 81;
  return p;
}

TEST(InterfaceLayer, ForwardsMonitorsAndMetadata) {
  auto application = workloads::make_benchmark_suite();
  ProbeScheduler probe;
  sched::SimulationDriver driver(*application, probe, params());
  InterfaceLayer iface(driver);

  EXPECT_EQ(iface.now(), 0);
  EXPECT_EQ(iface.cluster().machine_count(), 4u);
  EXPECT_EQ(&iface.application(), application.get());
  EXPECT_GT(iface.expected_ingress(), 0);
  EXPECT_LT(iface.expected_comm(MachineId(0), MachineId(0)),
            iface.expected_comm(MachineId(0), MachineId(3)));
  EXPECT_TRUE(iface.running_on(MachineId(0)).empty());
  EXPECT_EQ(iface.find_request(RequestId(0)), nullptr);

  const auto compose = *application->find_request("compose-post");
  EXPECT_NEAR(iface.volatility(compose), application->volatility(compose), 1e-12);
  // Warmup populated the profile store visible through the layer.
  EXPECT_TRUE(iface.profiles().has_history(
      application->request(compose).nodes()[0].service, compose));
}

TEST(InterfaceLayer, RunningOnRejectsUnknownMachine) {
  auto application = workloads::make_benchmark_suite();
  ProbeScheduler probe;
  sched::SimulationDriver driver(*application, probe, params());
  InterfaceLayer iface(driver);
  EXPECT_TRUE(iface.running_on(MachineId(3)).empty());
  EXPECT_THROW((void)iface.running_on(MachineId(4)), InvariantError);
  EXPECT_THROW((void)driver.running_on(MachineId(1000)), InvariantError);
}

TEST(InterfaceLayer, ControllersActuate) {
  auto application = workloads::make_benchmark_suite();
  ProbeScheduler probe;
  sched::SimulationDriver driver(*application, probe, params());
  InterfaceLayer iface(driver);

  bool checked = false;
  probe.hook = [&](RequestId id) {
    const auto& rt = driver.find_request(id)->type;
    const auto& svc = driver.application().service(rt.nodes()[0].service);
    iface.place(id, 0, MachineId(1), svc.demand, driver.now(), 20 * kMsec);
    EXPECT_EQ(driver.find_request(id)->nodes[0].state, sched::NodeState::kPlaced);
    iface.release_reservation(id, 0);
    EXPECT_FALSE(driver.find_request(id)->nodes[0].has_reservation);
    checked = true;
  };
  driver.load_arrivals({{kMsec, *application->find_request("read-user-timeline")}});
  driver.run();
  EXPECT_TRUE(checked);
}

TEST(Estimates, MeanExecUsesProfileThenFallsBack) {
  auto application = workloads::make_benchmark_suite();
  ProbeScheduler probe;
  // With warmup disabled the estimate must fall back to nominal × scale.
  sched::DriverParams p = params();
  p.profile_warmup = 0;
  sched::SimulationDriver driver(*application, probe, p);

  const auto compose = *application->find_request("compose-post");
  const auto& rt = application->request(compose);
  const auto& svc0 = application->service(rt.nodes()[0].service);
  const SimDuration fallback = sched::estimate_mean_exec(driver, rt, 0);
  EXPECT_NEAR(static_cast<double>(fallback),
              static_cast<double>(svc0.nominal_time) * rt.nodes()[0].time_scale,
              static_cast<double>(svc0.nominal_time) * 0.01);

  // Feed a manual history; the estimate must switch to it.
  for (int i = 0; i < 8; ++i) {
    driver.profiles().record(rt.nodes()[0].service, compose, 99 * kMsec);
  }
  EXPECT_EQ(sched::estimate_mean_exec(driver, rt, 0), 99 * kMsec);
}

TEST(Estimates, WarmupMakesEstimatesFinite) {
  auto application = workloads::make_benchmark_suite();
  ProbeScheduler probe;
  sched::SimulationDriver driver(*application, probe, params());
  for (const auto& rt : application->requests()) {
    for (std::size_t n = 0; n < rt.size(); ++n) {
      const SimDuration est = sched::estimate_mean_exec(driver, rt, n);
      EXPECT_GT(est, 0);
      EXPECT_LT(est, kSec);
    }
  }
}

}  // namespace
}  // namespace vmlp::mlp
