// SimulationDriver mechanism tests: placement, execution, communication,
// contention, reservations, limits, accounting.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "exp/experiment.h"
#include "loadgen/generator.h"
#include "loadgen/patterns.h"
#include "sched/driver.h"
#include "sched/scheduler.h"
#include "workloads/suite.h"

namespace vmlp::sched {
namespace {

/// Scripted scheduler: places every node on machine 0 at full demand as soon
/// as the request arrives (chain pre-planning), or on unblock when
/// `plan_ahead` is false.
class ScriptedScheduler : public IScheduler {
 public:
  explicit ScriptedScheduler(bool plan_ahead = true) : plan_ahead_(plan_ahead) {}

  [[nodiscard]] std::string name() const override { return "scripted"; }
  void attach(SimulationDriver& driver) override {
    IScheduler::attach(driver);
    driver.subscribe(Hook::kLateInvocation | Hook::kNodeFinished | Hook::kRequestFinished);
  }

  void on_request_arrival(RequestId id) override {
    const ActiveRequest* ar = driver_->find_request(id);
    if (plan_ahead_) {
      for (std::size_t n = 0; n < ar->nodes.size(); ++n) place_node(id, n);
    } else {
      for (std::size_t n : ar->ready_nodes()) place_node(id, n);
    }
  }
  void on_node_unblocked(RequestId id, std::size_t node) override {
    if (!plan_ahead_) place_node(id, node);
  }
  void on_tick() override {}
  void on_late_invocation(RequestId id, std::size_t node) override {
    ++late_count;
    (void)id;
    (void)node;
  }
  void on_node_finished(RequestId, std::size_t) override { ++finished_nodes; }
  void on_request_finished(RequestId) override { ++finished_requests; }

  int late_count = 0;
  int finished_nodes = 0;
  int finished_requests = 0;
  MachineId target = MachineId(0);
  SimDuration reserve = 50 * kMsec;

 private:
  void place_node(RequestId id, std::size_t node) {
    const ActiveRequest* ar = driver_->find_request(id);
    const auto& req_node = ar->type.nodes()[node];
    const auto& svc = driver_->application().service(req_node.service);
    driver_->place(id, node, target, svc.demand, driver_->now(), reserve);
  }
  bool plan_ahead_;
};

/// Two-stage chain application with deterministic-ish services.
std::unique_ptr<app::Application> make_chain_app() {
  auto application = std::make_unique<app::Application>("chain");
  const auto a = application->add_service("front", {1000, 256, 50}, 10 * kMsec,
                                          app::ServiceClass{1, 2, 1}, app::ResourceIntensity::kCpu);
  const auto b = application->add_service("back", {1000, 256, 50}, 20 * kMsec,
                                          app::ServiceClass{1, 2, 1}, app::ResourceIntensity::kCpu);
  auto builder = application->build_request("r");
  builder.node(a).node(b).chain({0, 1});
  builder.commit();
  return application;
}

DriverParams small_params() {
  DriverParams p;
  p.horizon = 5 * kSec;
  p.cluster.machine_count = 4;
  p.cluster.machine_capacity = {4000, 16384, 1000};
  p.machines_per_rack = 2;
  p.seed = 99;
  p.profile_warmup = 16;
  return p;
}

TEST(Driver, SingleRequestExecutesChain) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  const RunResult result = driver.run();

  EXPECT_EQ(result.arrived, 1u);
  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.unfinished, 0u);
  EXPECT_EQ(sched.finished_nodes, 2);
  EXPECT_EQ(sched.finished_requests, 1);
  // ~30ms of service + communication; far below the 5x SLO.
  EXPECT_DOUBLE_EQ(result.qos_violation_rate, 0.0);
  EXPECT_GT(result.p50_latency_us, 30000.0 * 0.8);
  EXPECT_LT(result.p50_latency_us, 30000.0 * 2.5);
}

TEST(Driver, SpanCausality) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  driver.run();

  const auto spans = driver.tracer().spans_of(RequestId(0));
  ASSERT_EQ(spans.size(), 2u);
  // Child cannot start before the parent ends plus >= 1us of communication.
  EXPECT_GT(spans[1]->start, spans[0]->end);
  EXPECT_GT(spans[0]->start, 10 * kMsec);  // after arrival + ingress
  EXPECT_GT(spans[0]->duration(), 0);
}

TEST(Driver, ProfileStoreFedByExecution) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  DriverParams params = small_params();
  params.profile_warmup = 0;
  SimulationDriver driver(*application, sched, params);
  EXPECT_FALSE(driver.profiles().has_history(ServiceTypeId(0), RequestTypeId(0)));
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  driver.run();
  EXPECT_EQ(driver.profiles().case_count(ServiceTypeId(0), RequestTypeId(0)), 1u);
  EXPECT_EQ(driver.profiles().case_count(ServiceTypeId(1), RequestTypeId(0)), 1u);
}

TEST(Driver, WarmupPopulatesProfiles) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  EXPECT_EQ(driver.profiles().case_count(ServiceTypeId(0), RequestTypeId(0)), 16u);
}

TEST(Driver, ContainersAndReservationsCleanedUp) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}, {20 * kMsec, RequestTypeId(0)}});
  driver.run();
  for (const auto& m : driver.cluster().machines()) {
    EXPECT_EQ(m.container_count(), 0u);
    // All reservations released: nothing left in the far future.
    EXPECT_EQ(m.ledger().usage_at(10 * kSec), cluster::ResourceVector::zero());
  }
}

TEST(Driver, OversubscriptionSlowsExecution) {
  // 8 concurrent requests pinned to one 4-core machine vs. one alone:
  // contention must stretch execution times.
  auto run_with = [](std::size_t n_requests) {
    auto application = make_chain_app();
    ScriptedScheduler sched(false);
    SimulationDriver driver(*application, sched, small_params());
    std::vector<loadgen::Arrival> arrivals;
    for (std::size_t i = 0; i < n_requests; ++i) {
      arrivals.push_back({10 * kMsec, RequestTypeId(0)});
    }
    driver.load_arrivals(arrivals);
    const RunResult r = driver.run();
    EXPECT_EQ(r.completed, n_requests);
    return r.mean_latency_us;
  };
  const double alone = run_with(1);
  const double crowded = run_with(8);
  EXPECT_GT(crowded, alone * 1.5);
}

TEST(Driver, LateInvocationDelivered) {
  // Plan the child to start immediately (planned_start=now at arrival), but
  // its parent takes ~10ms: the child is late and the hook must fire.
  auto application = make_chain_app();
  ScriptedScheduler sched(true);
  SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  driver.run();
  EXPECT_GE(sched.late_count, 1);
  EXPECT_GE(driver.counters().late_events, 1u);
}

TEST(Driver, AdjustLimitAccelerates) {
  // Start a node at a quarter of its demand, then raise the limit mid-run;
  // it must finish sooner than a run left capped.
  auto run_with = [](bool stretch) {
    auto application = std::make_unique<app::Application>("one");
    const auto svc = application->add_service("s", {2000, 256, 50}, 50 * kMsec,
                                              app::ServiceClass{1, 2, 1},
                                              app::ResourceIntensity::kCpu);
    auto builder = application->build_request("r");
    builder.node(svc);
    builder.commit();

    class CappedScheduler : public IScheduler {
     public:
      explicit CappedScheduler(bool stretch) : stretch_(stretch) {}
      [[nodiscard]] std::string name() const override { return "capped"; }
      void attach(SimulationDriver& driver) override {
        IScheduler::attach(driver);
        driver.subscribe(Hook::kNodeStarted);
      }
      void on_request_arrival(RequestId id) override {
        const ActiveRequest* ar = driver_->find_request(id);
        const auto& svc = driver_->application().service(ar->type.nodes()[0].service);
        driver_->place(id, 0, MachineId(0), svc.demand * 0.25, driver_->now(), 300 * kMsec);
      }
      void on_node_unblocked(RequestId, std::size_t) override {}
      void on_node_started(RequestId id, std::size_t node) override {
        if (stretch_) {
          // The resource-stretch actuation path.
          const auto& svc =
              driver_->application().service(
                  driver_->find_request(id)->type.nodes()[node].service);
          driver_->adjust_limit(id, node, svc.demand);
        }
      }
      void on_tick() override {}

     private:
      bool stretch_;
    };

    CappedScheduler sched(stretch);
    DriverParams params;
    params.horizon = 3 * kSec;
    params.cluster.machine_count = 2;
    params.seed = 5;
    SimulationDriver driver(*application, sched, params);
    driver.load_arrivals({{kMsec, RequestTypeId(0)}});
    const RunResult r = driver.run();
    EXPECT_EQ(r.completed, 1u);
    return r.mean_latency_us;
  };
  const double capped = run_with(false);
  const double stretched = run_with(true);
  // S=2 at f=4 runs 4x slower; lifting the cap right at start restores ~1x.
  EXPECT_GT(capped, stretched * 2.0);
}

TEST(Driver, UnfinishedCountedAsViolations) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  DriverParams params = small_params();
  params.horizon = 12 * kMsec;  // too short for the ~30ms chain
  SimulationDriver driver(*application, sched, params);
  driver.load_arrivals({{kMsec, RequestTypeId(0)}});
  const RunResult result = driver.run();
  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(result.unfinished, 1u);
  EXPECT_DOUBLE_EQ(result.qos_violation_rate, 1.0);
}

TEST(Driver, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto application = make_chain_app();
    ScriptedScheduler sched;
    SimulationDriver driver(*application, sched, small_params());
    driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}, {15 * kMsec, RequestTypeId(0)}});
    return driver.run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_DOUBLE_EQ(a.p50_latency_us, b.p50_latency_us);
  EXPECT_DOUBLE_EQ(a.mean_utilization, b.mean_utilization);
}

TEST(Driver, PlacementValidation) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  EXPECT_THROW(driver.place(RequestId(99), 0, MachineId(0), {1, 1, 1}, 0, kMsec),
               InvariantError);
}

TEST(Driver, ArrivalOutsideHorizonThrows) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  EXPECT_THROW(driver.load_arrivals({{10 * kSec, RequestTypeId(0)}}), InvariantError);
}

TEST(Driver, RunTwiceThrows) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  driver.run();
  EXPECT_THROW(driver.run(), InvariantError);
}

TEST(Driver, ExpectedCommMatchesDistanceOrdering) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  const SimDuration same = driver.expected_comm(MachineId(0), MachineId(0));
  const SimDuration rack = driver.expected_comm(MachineId(0), MachineId(1));
  const SimDuration cross = driver.expected_comm(MachineId(0), MachineId(3));
  EXPECT_LT(same, rack);
  EXPECT_LT(rack, cross);
  EXPECT_GT(driver.expected_ingress(), 0);
}

TEST(Driver, MonitorSampledDuringRun) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  driver.run();
  // 5s horizon, 100ms period -> ~50 samples.
  EXPECT_GE(driver.cluster_monitor().sample_count(), 45u);
  EXPECT_GE(driver.cluster_monitor().mean_overall(), 0.0);
  EXPECT_LE(driver.cluster_monitor().mean_overall(), 1.0);
}

// ---- request table and node lifecycle -------------------------------------

TEST(DriverRequests, FindRequestCoversOnlyTheLiveWindow) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  DriverParams params = small_params();
  params.horizon = 200 * kMsec;
  SimulationDriver driver(*application, sched, params);
  EXPECT_EQ(driver.find_request(RequestId(0)), nullptr);  // nothing issued yet
  // Request 0 completes; request 1 arrives too late to finish.
  driver.load_arrivals({{kMsec, RequestTypeId(0)}, {params.horizon - kMsec, RequestTypeId(0)}});
  const RunResult result = driver.run();
  ASSERT_EQ(result.completed, 1u);
  ASSERT_EQ(result.unfinished, 1u);
  EXPECT_EQ(driver.find_request(RequestId(0)), nullptr);  // completed: below the window
  ASSERT_NE(driver.find_request(RequestId(1)), nullptr);  // still live
  EXPECT_EQ(driver.find_request(RequestId(1))->id, RequestId(1));
  EXPECT_EQ(driver.find_request(RequestId(2)), nullptr);  // never issued
  EXPECT_EQ(driver.find_request(RequestId(1000)), nullptr);
}

/// The placement-related fields of a node, as one comparable line.
std::string placement_state(const ActiveRequest& ar, std::size_t node) {
  const DriverNode& dn = ar.nodes[node];
  std::ostringstream out;
  out << "state=" << node_state_name(dn.state) << " pending_parents=" << dn.pending_parents
      << " planned_start=" << dn.planned_start << " startable_at=" << dn.startable_at
      << " reserved=[" << dn.reserved_begin << "," << dn.reserved_end << ")"
      << " reserve_duration=" << dn.reserve_duration
      << " has_reservation=" << dn.has_reservation
      << " start_event=" << dn.start_event.valid() << " late_event=" << dn.late_event.valid()
      << " finish_event=" << dn.finish_event.valid()
      << " fault_event=" << dn.fault_event.valid()
      << " timeout_event=" << dn.timeout_event.valid()
      << " early_denial_streak=" << dn.early_denial_streak
      << " stuck_notified=" << dn.stuck_notified;
  return out.str();
}

/// Places every arriving request's root on machine 0 and records what the
/// driver hands back: orphaned nodes in delivery order, each node's
/// placement state at that moment, and whether request 0 was still live
/// while request 1 had already left the table.
class LifecycleProbe : public IScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "lifecycle-probe"; }
  void on_request_arrival(RequestId id) override {
    const ActiveRequest* ar = driver_->find_request(id);
    const auto& svc = driver_->application().service(ar->type.nodes()[0].service);
    driver_->place(id, 0, MachineId(0), svc.demand, driver_->now(), 50 * kMsec);
    if (unplace_on_arrival) {
      driver_->unplace(id, 0);
      states.push_back(placement_state(*ar, 0));
    }
  }
  void on_node_unblocked(RequestId, std::size_t) override {}
  void on_tick() override {}
  void on_node_orphaned(RequestId id, std::size_t node) override {
    // Left unplaced: the machine may be down.
    orphaned.push_back(id);
    states.push_back(placement_state(*driver_->find_request(id), node));
    front_pinned_over_hole = front_pinned_over_hole ||
                             (driver_->find_request(RequestId(0)) != nullptr &&
                              driver_->find_request(RequestId(1)) == nullptr);
  }

  bool unplace_on_arrival = false;
  std::vector<RequestId> orphaned;
  std::vector<std::string> states;
  bool front_pinned_over_hole = false;
};

/// Request type 0 runs ~500 ms, type 1 ~5 ms; both single-node.
std::unique_ptr<app::Application> make_slow_fast_app() {
  auto application = std::make_unique<app::Application>("slow-fast");
  const auto slow = application->add_service("slow", {1000, 256, 50}, 500 * kMsec,
                                             app::ServiceClass{1, 1, 1},
                                             app::ResourceIntensity::kCpu);
  const auto fast = application->add_service("fast", {1000, 256, 50}, 5 * kMsec,
                                             app::ServiceClass{1, 1, 1},
                                             app::ResourceIntensity::kCpu);
  application->build_request("slow").node(slow).commit();
  application->build_request("fast").node(fast).commit();
  return application;
}

/// One machine under a crash schedule; a 50 ms invocation timeout with no
/// retry budget abandons every slow request.
DriverParams one_machine_crash_params() {
  DriverParams p = small_params();
  p.cluster.machine_count = 1;
  p.machines_per_rack = 1;
  p.seed = 4;
  p.failure.enabled = true;
  p.failure.crashes_per_second = 0.3;
  p.failure.recovery_mean = 200 * kMsec;
  p.failure.invocation_timeout = 50 * kMsec;
  p.failure.max_retries = 0;
  return p;
}

TEST(DriverRequests, CrashPurgeVoidsInArrivalOrderBehindAnAbandonedFront) {
  auto application = make_slow_fast_app();
  const DriverParams p = one_machine_crash_params();
  const auto windows = build_failure_schedule(p.failure, p.seed, p.horizon, 1);
  ASSERT_FALSE(windows.empty());
  const SimTime crash = windows.front().down_at;
  ASSERT_GT(crash, 500 * kMsec);
  // Request 0 (slow) is abandoned by its timeout, 1 and 2 complete, and 3..6
  // arrive at the crash instant: their arrival events precede the crash
  // event, so each root is placed and waiting for its ingress message when
  // the machine goes down.
  std::vector<loadgen::Arrival> arrivals = {{crash - 400 * kMsec, RequestTypeId(0)},
                                            {crash - 300 * kMsec, RequestTypeId(1)},
                                            {crash - 290 * kMsec, RequestTypeId(1)}};
  for (int i = 0; i < 4; ++i) arrivals.push_back({crash, RequestTypeId(1)});
  LifecycleProbe probe;
  SimulationDriver driver(*application, probe, p);
  driver.load_arrivals(arrivals);
  const RunResult result = driver.run();

  EXPECT_EQ(result.abandoned_requests, 1u);
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(driver.counters().orphaned_pending, 4u);
  EXPECT_EQ(probe.orphaned,
            (std::vector<RequestId>{RequestId(3), RequestId(4), RequestId(5), RequestId(6)}));
  EXPECT_TRUE(probe.front_pinned_over_hole);
  ASSERT_NE(driver.find_request(RequestId(0)), nullptr);
  EXPECT_TRUE(driver.find_request(RequestId(0))->nodes[0].abandoned);
}

TEST(DriverRequests, UnplaceCrashVoidAndFaultLeaveTheSameUnplacedState) {
  auto application = make_slow_fast_app();

  LifecycleProbe unplaced;  // the scheduler undoes its own placement
  unplaced.unplace_on_arrival = true;
  {
    SimulationDriver driver(*application, unplaced, small_params());
    driver.load_arrivals({{kMsec, RequestTypeId(1)}});
    driver.run();
  }

  LifecycleProbe voided;  // a crash voids the waiting placement
  {
    const DriverParams p = one_machine_crash_params();
    const SimTime crash = build_failure_schedule(p.failure, p.seed, p.horizon, 1).front().down_at;
    SimulationDriver driver(*application, voided, p);
    driver.load_arrivals({{crash, RequestTypeId(1)}});
    driver.run();
  }

  LifecycleProbe faulted;  // a container fault kills the (slow) execution
  {
    DriverParams p = small_params();
    p.failure.enabled = true;
    p.failure.crashes_per_second = 0.0;
    p.failure.container_fault_prob = 1.0;
    SimulationDriver driver(*application, faulted, p);
    driver.load_arrivals({{kMsec, RequestTypeId(0)}});
    driver.run();
    EXPECT_GT(driver.counters().container_faults, 0u);
  }

  ASSERT_FALSE(unplaced.states.empty());
  ASSERT_FALSE(voided.states.empty());
  ASSERT_FALSE(faulted.states.empty());
  EXPECT_EQ(unplaced.states.front(),
            "state=ready pending_parents=0 planned_start=-1 startable_at=-1 reserved=[-1,-1) "
            "reserve_duration=0 has_reservation=0 start_event=0 late_event=0 finish_event=0 "
            "fault_event=0 timeout_event=0 early_denial_streak=0 stuck_notified=0");
  EXPECT_EQ(voided.states.front(), unplaced.states.front());
  EXPECT_EQ(faulted.states.front(), unplaced.states.front());
}

// ---- one request record: each node's lifecycle state ---------------------

/// Every node's state, space-separated in index order.
std::string node_states(const ActiveRequest& ar) {
  std::string out;
  for (const DriverNode& dn : ar.nodes) {
    if (!out.empty()) out += ' ';
    out += node_state_name(dn.state);
  }
  return out;
}

/// Places each node on machine 0 as soon as it is ready (a node the test
/// already placed is left alone) and logs the request's node states at each
/// lifecycle callback. `inspect`, when set, runs right after each log entry,
/// before the probe places anything.
class DiamondProbe : public IScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "diamond-probe"; }
  void attach(SimulationDriver& driver) override {
    IScheduler::attach(driver);
    driver.subscribe(Hook::kNodeFinished);
  }
  void on_request_arrival(RequestId id) override {
    const ActiveRequest& ar = *driver_->find_request(id);
    std::string ready;
    for (std::size_t n : ar.ready_nodes()) ready += std::to_string(n);
    note("arrival ready=" + ready, ar);
    for (std::size_t n : ar.ready_nodes()) place(ar, n);
  }
  void on_node_unblocked(RequestId id, std::size_t node) override {
    const ActiveRequest& ar = *driver_->find_request(id);
    note("unblocked " + std::to_string(node), ar);
    place(ar, node);
  }
  void on_node_orphaned(RequestId id, std::size_t node) override {
    const ActiveRequest& ar = *driver_->find_request(id);
    note("orphaned " + std::to_string(node), ar);
    place(ar, node);
  }
  void on_node_finished(RequestId id, std::size_t node) override {
    note("finished " + std::to_string(node), *driver_->find_request(id));
  }
  void on_tick() override {}

  std::function<void(const std::string& event, const ActiveRequest& ar)> inspect;
  std::vector<std::string> log;
  SimDuration reserve = 50 * kMsec;  ///< reservation per placement

 private:
  void note(const std::string& event, const ActiveRequest& ar) {
    log.push_back(event + " | " + node_states(ar) + " | done=" + std::to_string(ar.done_count));
    if (inspect) inspect(event, ar);
  }
  void place(const ActiveRequest& ar, std::size_t node) {
    if (ar.nodes[node].state >= NodeState::kPlaced) return;
    const auto& svc = driver_->application().service(ar.type.nodes()[node].service);
    driver_->place(ar.id, node, MachineId(0), svc.demand, driver_->now(), reserve);
  }
};

/// One diamond request (0 -> {1, 2} -> 3): node 1 runs ~2 ms and node 2
/// ~40 ms, so 1 always finishes while 2 still runs.
class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() {
    const auto quick = app_.add_service("quick", {1000, 256, 50}, 2 * kMsec,
                                        app::ServiceClass{1, 1, 1}, app::ResourceIntensity::kCpu);
    const auto slow = app_.add_service("slow", {1000, 256, 50}, 40 * kMsec,
                                       app::ServiceClass{1, 1, 1}, app::ResourceIntensity::kCpu);
    auto builder = app_.build_request("diamond");
    builder.node(quick).node(quick).node(slow).node(quick);
    builder.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
    type_ = builder.commit();
  }

  /// Runs one diamond arriving at `arrival` under `probe`.
  RunResult run(DiamondProbe& probe, const DriverParams& params, SimTime arrival = kMsec) {
    driver_ = std::make_unique<SimulationDriver>(app_, probe, params);
    driver_->load_arrivals({{arrival, type_}});
    return driver_->run();
  }

  app::Application app_{"diamond"};
  RequestTypeId type_;
  std::unique_ptr<SimulationDriver> driver_;
};

TEST_F(RuntimeTest, RootsStartReady) {
  DiamondProbe probe;
  bool seen = false;
  probe.inspect = [&](const std::string&, const ActiveRequest& ar) {
    if (seen) return;
    seen = true;
    EXPECT_EQ(ar.id, RequestId(0));
    EXPECT_EQ(&ar.type, &app_.request(type_));
    EXPECT_EQ(ar.arrival, 7 * kMsec);
    std::vector<std::size_t> ready;
    for (std::size_t n : ar.ready_nodes()) ready.push_back(n);
    EXPECT_EQ(ready, std::vector<std::size_t>{0});
    std::vector<std::size_t> pending;
    for (const DriverNode& dn : ar.nodes) pending.push_back(dn.pending_parents);
    EXPECT_EQ(pending, (std::vector<std::size_t>{0, 1, 1, 2}));
    EXPECT_EQ(ar.done_count, 0u);
  };
  run(probe, small_params(), 7 * kMsec);
  ASSERT_TRUE(seen);
  EXPECT_EQ(probe.log.front(), "arrival ready=0 | ready waiting waiting waiting | done=0");
}

TEST_F(RuntimeTest, LifecycleAndUnblocking) {
  DiamondProbe probe;
  probe.inspect = [&](const std::string& event, const ActiveRequest& ar) {
    if (event.rfind("finished", 0) != 0) return;
    const DriverNode& dn = ar.nodes[static_cast<std::size_t>(event.back() - '0')];
    EXPECT_EQ(dn.finished_at, driver_->now()) << event;
    EXPECT_LT(dn.started_at, dn.finished_at) << event;
  };
  const RunResult result = run(probe, small_params());
  EXPECT_EQ(result.completed, 1u);
  // A child unblocks only when its last parent finishes, in child order: at
  // node 1's unblock, node 2 has no pending parent but is not ready yet.
  EXPECT_EQ(probe.log, (std::vector<std::string>{
                           "arrival ready=0 | ready waiting waiting waiting | done=0",
                           "unblocked 1 | done ready waiting waiting | done=1",
                           "unblocked 2 | done placed ready waiting | done=1",
                           "finished 0 | done placed placed waiting | done=1",
                           "finished 1 | done done running waiting | done=2",
                           "unblocked 3 | done done done ready | done=3",
                           "finished 2 | done done done placed | done=3",
                           "finished 3 | done done done done | done=4",
                       }));
}

TEST_F(RuntimeTest, IllegalTransitionsThrow) {
  DiamondProbe probe;
  probe.inspect = [&](const std::string& event, const ActiveRequest& ar) {
    SimulationDriver& d = *driver_;
    const cluster::ResourceVector demand{1000, 256, 50};
    if (event.rfind("arrival", 0) == 0) {
      EXPECT_THROW(d.unplace(ar.id, 0), InvariantError);               // ready, not placed
      EXPECT_THROW(d.release_reservation(ar.id, 3), InvariantError);   // waiting
      EXPECT_THROW(d.adjust_limit(ar.id, 0, demand), InvariantError);  // not running
      d.place(ar.id, 0, MachineId(0), demand, d.now(), 50 * kMsec);
      EXPECT_THROW(d.place(ar.id, 0, MachineId(0), demand, d.now(), 50 * kMsec), InvariantError);
      EXPECT_THROW(d.adjust_limit(ar.id, 0, demand), InvariantError);  // placed, not running
      EXPECT_EQ(ar.nodes[0].state, NodeState::kPlaced);
    } else if (event.rfind("finished 0", 0) == 0) {
      EXPECT_THROW(d.place(ar.id, 0, MachineId(0), demand, d.now(), 50 * kMsec), InvariantError);
      EXPECT_THROW(d.unplace(ar.id, 0), InvariantError);
      EXPECT_EQ(ar.nodes[0].state, NodeState::kDone);
    }
  };
  EXPECT_EQ(run(probe, small_params()).completed, 1u);
}

TEST_F(RuntimeTest, IndependentOfActive) {
  DiamondProbe probe;
  int checked = 0;
  probe.inspect = [&](const std::string& event, const ActiveRequest& ar) {
    if (event.rfind("arrival", 0) == 0) {
      // Nothing placed yet: every node is a candidate.
      for (std::size_t n = 0; n < 4; ++n) EXPECT_TRUE(ar.independent_of_active(n)) << n;
      const auto& svc = driver_->application().service(ar.type.nodes()[0].service);
      driver_->place(ar.id, 0, MachineId(0), svc.demand, driver_->now(), 50 * kMsec);
      // The placed root is active: it and everything downstream drop out.
      for (std::size_t n = 0; n < 4; ++n) EXPECT_FALSE(ar.independent_of_active(n)) << n;
      ++checked;
    } else if (event == "unblocked 2") {
      // 1 is placed: 3 depends on it; 2 does not; done and placed nodes
      // are never candidates.
      EXPECT_FALSE(ar.independent_of_active(0));
      EXPECT_FALSE(ar.independent_of_active(1));
      EXPECT_TRUE(ar.independent_of_active(2));
      EXPECT_FALSE(ar.independent_of_active(3));
      ++checked;
    } else if (event == "finished 1") {
      EXPECT_FALSE(ar.independent_of_active(3));  // parent 2 still running
      ++checked;
    }
  };
  EXPECT_EQ(run(probe, small_params()).completed, 1u);
  EXPECT_EQ(checked, 3);
}

TEST_F(RuntimeTest, NodeStateFollowsEachTransition) {
  DiamondProbe probe;
  probe.inspect = [&](const std::string& event, const ActiveRequest& ar) {
    SimulationDriver& d = *driver_;
    const cluster::ResourceVector demand{1000, 256, 50};
    if (event.rfind("arrival", 0) == 0) {
      EXPECT_EQ(ar.nodes[1].state, NodeState::kWaiting);
      // Unplace returns a node to ready when its dependencies are met ...
      d.place(ar.id, 0, MachineId(0), demand, d.now() + kSec, 50 * kMsec);
      EXPECT_EQ(ar.nodes[0].state, NodeState::kPlaced);
      d.unplace(ar.id, 0);
      EXPECT_EQ(ar.nodes[0].state, NodeState::kReady);
      // ... and to waiting when they are not (a plan-ahead placement).
      d.place(ar.id, 3, MachineId(0), demand, d.now() + kSec, 50 * kMsec);
      EXPECT_EQ(ar.nodes[3].state, NodeState::kPlaced);
      d.unplace(ar.id, 3);
      EXPECT_EQ(ar.nodes[3].state, NodeState::kWaiting);
    } else if (event == "unblocked 1") {
      EXPECT_EQ(ar.nodes[1].state, NodeState::kReady);  // waiting -> ready on unblock
    }
  };
  EXPECT_EQ(run(probe, small_params()).completed, 1u);

  // A container fault kills every execution (it strikes within the 1 ms
  // reservation, before the ~2 ms root can finish): the lost node is ready
  // again when it comes back for its one retry, and after the second loss.
  DiamondProbe faulted;
  faulted.reserve = kMsec;
  int orphaned = 0;
  faulted.inspect = [&](const std::string& event, const ActiveRequest& ar) {
    if (event != "orphaned 0") return;
    ++orphaned;
    EXPECT_EQ(ar.nodes[0].state, NodeState::kReady);
    EXPECT_EQ(ar.nodes[0].attempts, 1);
  };
  DriverParams p = small_params();
  p.failure.enabled = true;
  p.failure.crashes_per_second = 0.0;
  p.failure.container_fault_prob = 1.0;
  p.failure.max_retries = 1;
  const RunResult result = run(faulted, p);
  EXPECT_EQ(orphaned, 1);
  EXPECT_EQ(result.abandoned_requests, 1u);
  const ActiveRequest* ar = driver_->find_request(RequestId(0));
  ASSERT_NE(ar, nullptr);
  EXPECT_EQ(ar->nodes[0].state, NodeState::kReady);
  EXPECT_TRUE(ar->nodes[0].abandoned);
}

/// A forwarding wrapper shaped like the benchmark's policy probe: it
/// subscribes to every optional hook and forwards every callback, attach()
/// included, to the wrapped policy unchanged.
class ForwardingScheduler final : public IScheduler {
 public:
  explicit ForwardingScheduler(std::unique_ptr<IScheduler> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void attach(SimulationDriver& driver) override {
    IScheduler::attach(driver);
    driver.subscribe(Hook::kLateInvocation | Hook::kNodeStarted | Hook::kNodeFinished |
                     Hook::kRequestFinished);
    inner_->attach(driver);
  }
  void on_request_arrival(RequestId id) override { inner_->on_request_arrival(id); }
  void on_node_unblocked(RequestId id, std::size_t node) override {
    inner_->on_node_unblocked(id, node);
  }
  void on_tick() override { inner_->on_tick(); }
  void on_late_invocation(RequestId id, std::size_t node) override {
    inner_->on_late_invocation(id, node);
  }
  void on_node_orphaned(RequestId id, std::size_t node) override {
    inner_->on_node_orphaned(id, node);
  }
  void on_node_started(RequestId id, std::size_t node) override {
    inner_->on_node_started(id, node);
  }
  void on_node_finished(RequestId id, std::size_t node) override {
    inner_->on_node_finished(id, node);
  }
  void on_request_finished(RequestId id) override { inner_->on_request_finished(id); }

 private:
  std::unique_ptr<IScheduler> inner_;
};

struct HookRun {
  RunResult result;
  std::size_t late_events = 0;
  std::uint64_t events_executed = 0;  ///< engine.events_executed
};

/// A short contended run of `scheme` on the benchmark suite, with
/// interference and failures on so that lates, orphans and retries all occur.
HookRun run_scheme(exp::SchemeKind scheme, bool forwarded) {
  const auto application = workloads::make_benchmark_suite();
  DriverParams p;
  p.horizon = 3 * kSec;
  p.cluster.machine_count = 6;
  p.machines_per_rack = 3;
  p.seed = 11;
  p.interference.enabled = true;
  p.failure.enabled = true;
  p.failure.crashes_per_second = 1.0;
  p.failure.recovery_mean = 200 * kMsec;
  p.failure.container_fault_prob = 0.01;
  p.obs.enabled = true;

  loadgen::PatternParams pp;
  pp.horizon = p.horizon;
  pp.base_rate = 16.0;
  pp.max_rate = 48.0;
  pp.peak_time = p.horizon / 2;
  const auto pattern = loadgen::WorkloadPattern::make(loadgen::PatternKind::kL1Pulse, pp, 5);
  Rng rng(5);
  const auto arrivals =
      loadgen::generate_arrivals(pattern, loadgen::RequestMix::all(*application), rng);

  std::unique_ptr<IScheduler> policy = exp::make_scheduler(scheme, {}, p.seed);
  if (forwarded) policy = std::make_unique<ForwardingScheduler>(std::move(policy));
  SimulationDriver driver(*application, *policy, p);
  driver.load_arrivals(arrivals);
  HookRun run;
  run.result = driver.run();
  run.late_events = driver.counters().late_events;
  const obs::Snapshot snapshot = driver.observer()->snapshot();
  if (const obs::MetricSnapshot* m = snapshot.find("engine.events_executed")) {
    run.events_executed = m->counter;
  }
  return run;
}

/// Every deterministic RunResult field (all but host-time policy_seconds).
void expect_same_outcome(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.unfinished, b.unfinished);
  EXPECT_EQ(a.qos_violation_rate, b.qos_violation_rate);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(a.p50_latency_us, b.p50_latency_us);
  EXPECT_EQ(a.p90_latency_us, b.p90_latency_us);
  EXPECT_EQ(a.p99_latency_us, b.p99_latency_us);
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.machine_crashes, b.machine_crashes);
  EXPECT_EQ(a.container_faults, b.container_faults);
  EXPECT_EQ(a.invocation_timeouts, b.invocation_timeouts);
  EXPECT_EQ(a.orphaned_nodes, b.orphaned_nodes);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.abandoned_requests, b.abandoned_requests);
  EXPECT_EQ(a.orphaned_mean_latency_us, b.orphaned_mean_latency_us);
  EXPECT_EQ(a.orphaned_p99_latency_us, b.orphaned_p99_latency_us);
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
}

TEST(DriverHooks, SubscriptionDoesNotChangeOutcomes) {
  // FairSched subscribes to no optional hook, so the driver arms no late
  // watch for it; wrapped in a forwarder that subscribes to all of them, the
  // watches fire into FairSched's no-op default. Dropping those events must
  // leave the simulated outcome bit-identical.
  const HookRun plain = run_scheme(exp::SchemeKind::kFairSched, false);
  const HookRun wrapped = run_scheme(exp::SchemeKind::kFairSched, true);
  ASSERT_GT(plain.result.completed, 0u);
  expect_same_outcome(plain.result, wrapped.result);
  EXPECT_EQ(plain.late_events, 0u);
  EXPECT_GT(wrapped.late_events, 0u);
  EXPECT_LT(plain.events_executed, wrapped.events_executed);
}

TEST(DriverHooks, ForwardedVmlpKeepsItsLateInvocations) {
  // v-MLP subscribes in attach(); a forwarder that forwards attach() passes
  // the subscription on, so healing sees the same late invocations.
  const HookRun plain = run_scheme(exp::SchemeKind::kVmlp, false);
  const HookRun wrapped = run_scheme(exp::SchemeKind::kVmlp, true);
  ASSERT_GT(plain.result.completed, 0u);
  expect_same_outcome(plain.result, wrapped.result);
  EXPECT_GT(plain.late_events, 0u);
  EXPECT_EQ(plain.late_events, wrapped.late_events);
}

TEST(DriverHooks, SubscriptionsAccumulate) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  EXPECT_FALSE(driver.wants(Hook::kLateInvocation));
  driver.subscribe(Hook::kNodeStarted);
  driver.subscribe(Hook::kRequestFinished);
  EXPECT_TRUE(driver.wants(Hook::kNodeStarted));
  EXPECT_TRUE(driver.wants(Hook::kRequestFinished));
  EXPECT_FALSE(driver.wants(Hook::kNodeFinished));
  EXPECT_FALSE(driver.wants(Hook::kLateInvocation));
}

}  // namespace
}  // namespace vmlp::sched
