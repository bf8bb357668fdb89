// SimulationDriver mechanism tests: placement, execution, communication,
// contention, reservations, limits, accounting.
#include <gtest/gtest.h>

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
    ActiveRequest* ar = driver_->find_request(id);
    if (plan_ahead_) {
      for (std::size_t n = 0; n < ar->nodes.size(); ++n) place_node(id, n);
    } else {
      for (std::size_t n : ar->runtime.ready_nodes()) place_node(id, n);
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
    ActiveRequest* ar = driver_->find_request(id);
    const auto& req_node = ar->runtime.type().nodes()[node];
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
        ActiveRequest* ar = driver_->find_request(id);
        const auto& svc = driver_->application().service(ar->runtime.type().nodes()[0].service);
        driver_->place(id, 0, MachineId(0), svc.demand * 0.25, driver_->now(), 300 * kMsec);
      }
      void on_node_unblocked(RequestId, std::size_t) override {}
      void on_node_started(RequestId id, std::size_t node) override {
        if (stretch_) {
          // The resource-stretch actuation path.
          const auto& svc =
              driver_->application().service(
                  driver_->find_request(id)->runtime.type().nodes()[node].service);
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
  EXPECT_EQ(driver.find_request(RequestId(1))->runtime.id(), RequestId(1));
  EXPECT_EQ(driver.find_request(RequestId(2)), nullptr);  // never issued
  EXPECT_EQ(driver.find_request(RequestId(1000)), nullptr);
}

/// The placement-related fields of a node, as one comparable line.
std::string placement_state(const ActiveRequest& ar, std::size_t node) {
  const DriverNode& dn = ar.nodes[node];
  std::ostringstream out;
  out << "placed=" << dn.placed << " running=" << dn.running << " done=" << dn.done
      << " planned_start=" << dn.planned_start << " startable_at=" << dn.startable_at
      << " reserved=[" << dn.reserved_begin << "," << dn.reserved_end << ")"
      << " reserve_duration=" << dn.reserve_duration
      << " has_reservation=" << dn.has_reservation
      << " start_event=" << dn.start_event.valid() << " late_event=" << dn.late_event.valid()
      << " finish_event=" << dn.finish_event.valid()
      << " fault_event=" << dn.fault_event.valid()
      << " timeout_event=" << dn.timeout_event.valid()
      << " early_denial_streak=" << dn.early_denial_streak
      << " stuck_notified=" << dn.stuck_notified
      << " state=" << app::node_state_name(ar.runtime.node(node).state);
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
    ActiveRequest* ar = driver_->find_request(id);
    const auto& svc = driver_->application().service(ar->runtime.type().nodes()[0].service);
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
            "placed=0 running=0 done=0 planned_start=-1 startable_at=-1 reserved=[-1,-1) "
            "reserve_duration=0 has_reservation=0 start_event=0 late_event=0 finish_event=0 "
            "fault_event=0 timeout_event=0 early_denial_streak=0 stuck_notified=0 state=ready");
  EXPECT_EQ(voided.states.front(), unplaced.states.front());
  EXPECT_EQ(faulted.states.front(), unplaced.states.front());
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
