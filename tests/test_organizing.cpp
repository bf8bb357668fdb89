// Self-organizing module unit behaviour: atomic chain commitment, overlay
// self-collision avoidance, deferral on saturation, dependency-aware planned
// starts, and R-ordering effects.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "mlp/interface_layer.h"
#include "mlp/self_organizing.h"
#include "mlp/vmlp.h"
#include "sched/driver.h"
#include "workloads/suite.h"

namespace vmlp::mlp {
namespace {

/// Scheduler that exposes the organizer for direct driving from tests.
class ProbeScheduler : public sched::IScheduler {
 public:
  explicit ProbeScheduler(VmlpParams params = {}) : params_(params) {}
  [[nodiscard]] std::string name() const override { return "probe"; }
  void attach(sched::SimulationDriver& driver) override {
    sched::IScheduler::attach(driver);
    iface = std::make_unique<InterfaceLayer>(driver);
    organizer = std::make_unique<SelfOrganizing>(*iface, params_, Rng(1));
  }
  void on_request_arrival(RequestId id) override {
    if (hook) hook(id);
  }
  void on_node_unblocked(RequestId, std::size_t) override {}
  void on_tick() override {}

  VmlpParams params_;
  std::unique_ptr<InterfaceLayer> iface;
  std::unique_ptr<SelfOrganizing> organizer;
  std::function<void(RequestId)> hook;
};

/// Parallel two-branch app where each branch saturates a whole machine:
/// root -> {heavy_a, heavy_b} -> sink. The overlay must not co-plan both
/// heavy branches at the same time on the same machine.
std::unique_ptr<app::Application> make_parallel_app() {
  auto application = std::make_unique<app::Application>("parallel");
  const auto root = application->add_service("root", {500, 128, 50}, 5 * kMsec,
                                             app::ServiceClass{1, 1, 1},
                                             app::ResourceIntensity::kCpu);
  const auto heavy_a = application->add_service("heavy-a", {3000, 256, 100}, 20 * kMsec,
                                                app::ServiceClass{2, 2, 2},
                                                app::ResourceIntensity::kCpu);
  const auto heavy_b = application->add_service("heavy-b", {3000, 256, 100}, 20 * kMsec,
                                                app::ServiceClass{2, 2, 2},
                                                app::ResourceIntensity::kCpu);
  const auto sink = application->add_service("sink", {500, 128, 50}, 5 * kMsec,
                                             app::ServiceClass{1, 1, 1},
                                             app::ResourceIntensity::kCpu);
  auto builder = application->build_request("fan");
  builder.node(root).node(heavy_a).node(heavy_b).node(sink);
  builder.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
  builder.commit();
  return application;
}

sched::DriverParams tiny_cluster(std::size_t machines) {
  sched::DriverParams p;
  p.horizon = 5 * kSec;
  p.cluster.machine_count = machines;
  p.cluster.machine_capacity = {4000, 16384, 1000};
  p.machines_per_rack = 2;
  p.seed = 60;
  return p;
}

TEST(SelfOrganizing, CommitsWholeChainAtomically) {
  auto application = make_parallel_app();
  ProbeScheduler probe;
  sched::SimulationDriver driver(*application, probe, tiny_cluster(2));
  probe.hook = [&](RequestId id) {
    EXPECT_TRUE(probe.organizer->organize(id));
    const sched::ActiveRequest* ar = driver.find_request(id);
    for (std::size_t n = 0; n < 4; ++n) EXPECT_EQ(ar->nodes[n].state, sched::NodeState::kPlaced) << n;
    EXPECT_EQ(probe.organizer->plans_committed(), 1u);
  };
  driver.load_arrivals({{kMsec, RequestTypeId(0)}});
  const auto result = driver.run();
  EXPECT_EQ(result.completed, 1u);
}

TEST(SelfOrganizing, OverlayAvoidsSelfCollision) {
  // With 2 machines of 4000 mC and two parallel 3000 mC branches, the plan
  // must put the concurrent branches on different machines (or sequence them)
  // — the overlay forbids co-booking 6000 mC on one machine.
  auto application = make_parallel_app();
  ProbeScheduler probe;
  sched::SimulationDriver driver(*application, probe, tiny_cluster(2));
  probe.hook = [&](RequestId id) {
    ASSERT_TRUE(probe.organizer->organize(id));
    const sched::ActiveRequest* ar = driver.find_request(id);
    const auto& a = ar->nodes[1];
    const auto& b = ar->nodes[2];
    const bool same_machine = a.machine == b.machine;
    const bool overlapping = a.planned_start < b.reserved_end && b.planned_start < a.reserved_end;
    EXPECT_FALSE(same_machine && overlapping)
        << "both heavy branches booked concurrently on machine " << a.machine.value();
  };
  driver.load_arrivals({{kMsec, RequestTypeId(0)}});
  driver.run();
}

TEST(SelfOrganizing, PlannedStartsRespectDependencies) {
  auto application = make_parallel_app();
  ProbeScheduler probe;
  sched::SimulationDriver driver(*application, probe, tiny_cluster(4));
  probe.hook = [&](RequestId id) {
    ASSERT_TRUE(probe.organizer->organize(id));
    const sched::ActiveRequest* ar = driver.find_request(id);
    // Children planned after parents' planned start (+ their slack windows).
    EXPECT_GT(ar->nodes[1].planned_start, ar->nodes[0].planned_start);
    EXPECT_GT(ar->nodes[3].planned_start, ar->nodes[1].planned_start);
    EXPECT_GT(ar->nodes[3].planned_start, ar->nodes[2].planned_start);
  };
  driver.load_arrivals({{kMsec, RequestTypeId(0)}});
  driver.run();
}

TEST(SelfOrganizing, DefersWhenClusterSaturated) {
  auto application = make_parallel_app();
  VmlpParams params;
  params.plan_search_window = 5 * kMsec;  // tiny slip window: fail fast
  params.plan_search_steps = 2;
  ProbeScheduler probe(params);
  sched::SimulationDriver driver(*application, probe, tiny_cluster(1));
  probe.hook = [&](RequestId id) {
    // Saturate the single machine's ledger far beyond the slip window first.
    driver.cluster().machine(MachineId(0)).ledger().reserve(driver.now(),
                                                            driver.now() + 2 * kSec,
                                                            {3900, 0, 0});
    EXPECT_FALSE(probe.organizer->organize(id));
    EXPECT_EQ(probe.organizer->plans_deferred(), 1u);
    EXPECT_GE(probe.organizer->last_defer_at(), 0);
    const sched::ActiveRequest* ar = driver.find_request(id);
    for (std::size_t n = 0; n < 4; ++n) EXPECT_LT(ar->nodes[n].state, sched::NodeState::kPlaced) << n;
    // Clean up so the run can end: release the artificial load.
    driver.cluster().machine(MachineId(0)).ledger().release(driver.now(),
                                                            driver.now() + 2 * kSec,
                                                            {3900, 0, 0});
  };
  driver.load_arrivals({{kMsec, RequestTypeId(0)}});
  driver.run();
}

TEST(SelfOrganizing, ReorderRatioPrefersUrgentVolatile) {
  auto suite = workloads::make_benchmark_suite();
  ProbeScheduler probe;
  sched::SimulationDriver driver(*suite, probe, tiny_cluster(4));
  std::vector<double> ratios;
  probe.hook = [&](RequestId id) { ratios.push_back(probe.organizer->reorder_ratio_of(id)); };
  // compose-post (high V_r) vs read-user-timeline (low V_r), same arrival.
  driver.load_arrivals({{kMsec, *suite->find_request("compose-post")},
                        {kMsec, *suite->find_request("read-user-timeline")}});
  driver.run();
  ASSERT_EQ(ratios.size(), 2u);
  for (double r : ratios) {
    EXPECT_GT(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(SelfOrganizing, SlackOfGrowsWithBandConservatism) {
  auto suite = workloads::make_benchmark_suite();
  ProbeScheduler probe;
  sched::SimulationDriver driver(*suite, probe, tiny_cluster(4));
  probe.hook = [&](RequestId id) {
    const sched::ActiveRequest* ar = driver.find_request(id);
    const auto& type = ar->type;
    for (std::size_t n = 0; n < type.size(); ++n) {
      const SimDuration slack = probe.organizer->slack_of(id, n);
      EXPECT_GT(slack, 0);
      // High-V_r request: the p99-of-history slack must sit above the plain
      // mean estimate.
      const auto mean = driver.profiles().mean_exec(type.nodes()[n].service, type.id());
      ASSERT_TRUE(mean.has_value());
      EXPECT_GE(slack, *mean);
    }
  };
  driver.load_arrivals({{kMsec, *suite->find_request("compose-post")}});
  driver.run();
}

}  // namespace
}  // namespace vmlp::mlp
