// Invariant auditor: every audit tier fires on deliberately corrupted state
// and stays silent when auditing is disabled. The corruptions go through the
// same public surfaces a buggy scheduler or healing policy would use.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "cluster/reservation.h"
#include "common/audit.h"
#include "common/error.h"
#include "mlp/self_organizing.h"
#include "sched/driver.h"
#include "sched/scheduler.h"
#include "sim/engine.h"

namespace vmlp {
namespace {

/// Forces a known audit state for the test body and restores "off" after —
/// set_enabled() overrides both the env var and the compile-time default, so
/// these tests behave identically in plain and VMLP_AUDIT builds.
class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override { audit::set_enabled(true); }
  void TearDown() override { audit::set_enabled(false); }
};

// ---- sim/engine -----------------------------------------------------------

TEST_F(AuditTest, EngineRejectsEventScheduledAtInfinity) {
  sim::Engine engine;
  EXPECT_THROW(engine.schedule_at(kTimeInfinity, [] {}), InvariantError);
}

TEST_F(AuditTest, EngineAcceptsFiniteSchedule) {
  sim::Engine engine;
  engine.schedule_at(5, [] {});
  EXPECT_NO_THROW(engine.run_until(10));
}

TEST(AuditDisabled, EngineInfinityScheduleIsNotChecked) {
  audit::set_enabled(false);
  sim::Engine engine;
  EXPECT_NO_THROW(engine.schedule_at(kTimeInfinity, [] {}));
}

// ---- cluster/reservation --------------------------------------------------

TEST_F(AuditTest, LedgerRejectsNegativeReservation) {
  cluster::ReservationLedger ledger({4000.0, 16384.0, 1000.0});
  EXPECT_THROW(ledger.reserve(0, 10, {-1.0, 0.0, 0.0}), InvariantError);
}

TEST_F(AuditTest, LedgerRejectsNonFiniteReservation) {
  cluster::ReservationLedger ledger({4000.0, 16384.0, 1000.0});
  const double nan = std::nan("");
  EXPECT_THROW(ledger.reserve(0, 10, {nan, 0.0, 0.0}), InvariantError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ledger.reserve(0, 10, {inf, 0.0, 0.0}), InvariantError);
}

TEST_F(AuditTest, LedgerCatchesOverRelease) {
  cluster::ReservationLedger ledger({4000.0, 16384.0, 1000.0});
  ledger.reserve(0, 10, {100.0, 0.0, 0.0});
  // Releasing more than was booked would drive the profile negative. (This
  // one is a base-tier check, live even without auditing.)
  EXPECT_THROW(ledger.release(0, 10, {200.0, 0.0, 0.0}), InvariantError);
}

TEST_F(AuditTest, LedgerRejectsNegativeRelease) {
  cluster::ReservationLedger ledger({4000.0, 16384.0, 1000.0});
  ledger.reserve(0, 10, {100.0, 0.0, 0.0});
  EXPECT_THROW(ledger.release(0, 10, {-50.0, 0.0, 0.0}), InvariantError);
}

TEST_F(AuditTest, LedgerAcceptsBalancedTraffic) {
  cluster::ReservationLedger ledger({4000.0, 16384.0, 1000.0});
  ledger.reserve(0, 10, {100.0, 50.0, 5.0});
  ledger.reserve(5, 20, {30.0, 10.0, 1.0});
  ledger.release(5, 10, {100.0, 50.0, 5.0});
  EXPECT_NO_THROW(ledger.audit_invariants());
}

TEST(AuditDisabled, LedgerNegativeReleaseIsNotChecked) {
  audit::set_enabled(false);
  cluster::ReservationLedger ledger({4000.0, 16384.0, 1000.0});
  ledger.reserve(0, 10, {100.0, 0.0, 0.0});
  // A negative release inflates the profile, which only the audit tier
  // rejects; the base tier merely forbids negative levels.
  EXPECT_NO_THROW(ledger.release(0, 10, {-50.0, 0.0, 0.0}));
}

// ---- sched/driver capacity conservation -----------------------------------

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

sched::DriverParams small_params() {
  sched::DriverParams p;
  p.horizon = 5 * kSec;
  p.cluster.machine_count = 2;
  p.cluster.machine_capacity = {4000, 16384, 1000};
  p.machines_per_rack = 2;
  p.seed = 7;
  return p;
}

/// Places every node on machine 0; optionally corrupts the ledger with a
/// phantom reservation the driver never tracked, right before placing.
class CorruptingScheduler : public sched::IScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "corrupting"; }

  void on_request_arrival(RequestId id) override {
    if (corrupt_ledger) {
      // A reservation with no owning DriverNode: conservation must now fail.
      driver_->cluster().machine(MachineId(0)).ledger().reserve(
          driver_->now(), driver_->now() + kSec, {500.0, 0.0, 0.0});
    }
    const sched::ActiveRequest* ar = driver_->find_request(id);
    for (std::size_t n = 0; n < ar->nodes.size(); ++n) {
      const auto& req_node = ar->type.nodes()[n];
      const auto& svc = driver_->application().service(req_node.service);
      driver_->place(id, n, MachineId(0), svc.demand, driver_->now(), 50 * kMsec);
    }
  }
  void on_node_unblocked(RequestId, std::size_t) override {}
  void on_tick() override {}
  void on_late_invocation(RequestId, std::size_t) override {}
  void on_node_finished(RequestId, std::size_t) override {}
  void on_request_finished(RequestId) override {}

  bool corrupt_ledger = false;
};

TEST_F(AuditTest, DriverConservationCatchesPhantomReservation) {
  auto application = make_chain_app();
  CorruptingScheduler sched;
  sched.corrupt_ledger = true;
  sched::SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  EXPECT_THROW(driver.run(), InvariantError);
}

TEST_F(AuditTest, DriverConservationHoldsOnCleanRun) {
  auto application = make_chain_app();
  CorruptingScheduler sched;
  sched::SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  sched::RunResult result;
  EXPECT_NO_THROW(result = driver.run());
  EXPECT_EQ(result.completed, 1u);
}

TEST(AuditDisabled, DriverPhantomReservationIsNotChecked) {
  audit::set_enabled(false);
  auto application = make_chain_app();
  CorruptingScheduler sched;
  sched.corrupt_ledger = true;
  sched::SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  EXPECT_NO_THROW(driver.run());
}

// ---- mlp plan integrity ---------------------------------------------------

class PlanIntegrityTest : public AuditTest {
 protected:
  PlanIntegrityTest() : app_(make_chain_app()), ar_(app_->request(RequestTypeId(0)), RequestId(0), 0) {}

  static mlp::NodePlan plan_for(std::size_t node) {
    mlp::NodePlan p;
    p.node = node;
    p.machine = MachineId(0);
    p.start = 10;
    p.busy = 100;
    p.slack = 150;
    return p;
  }

  std::unique_ptr<app::Application> app_;
  sched::ActiveRequest ar_;
};

TEST_F(PlanIntegrityTest, AcceptsFullCover) {
  EXPECT_NO_THROW(mlp::audit_plan_integrity(ar_, {plan_for(0), plan_for(1)}, true));
}

TEST_F(PlanIntegrityTest, RejectsOutOfRangeNode) {
  EXPECT_THROW(mlp::audit_plan_integrity(ar_, {plan_for(2)}, false), InvariantError);
}

TEST_F(PlanIntegrityTest, RejectsDoubleBookedNode) {
  EXPECT_THROW(mlp::audit_plan_integrity(ar_, {plan_for(0), plan_for(0)}, false), InvariantError);
}

TEST_F(PlanIntegrityTest, RejectsPlanForPlacedNode) {
  ar_.nodes[0].state = sched::NodeState::kPlaced;
  EXPECT_THROW(mlp::audit_plan_integrity(ar_, {plan_for(0)}, false), InvariantError);
}

TEST_F(PlanIntegrityTest, RejectsDegenerateWindow) {
  mlp::NodePlan bad = plan_for(0);
  bad.busy = 0;
  EXPECT_THROW(mlp::audit_plan_integrity(ar_, {bad}, false), InvariantError);
  bad = plan_for(0);
  bad.slack = -1;
  EXPECT_THROW(mlp::audit_plan_integrity(ar_, {bad}, false), InvariantError);
}

TEST_F(PlanIntegrityTest, RejectsDroppedStage) {
  // Full cover demanded but node 1 missing: the coalesced chain lost a stage.
  EXPECT_THROW(mlp::audit_plan_integrity(ar_, {plan_for(0)}, true), InvariantError);
}

TEST_F(PlanIntegrityTest, PartialCoverAllowedForSingleNodePlanning) {
  EXPECT_NO_THROW(mlp::audit_plan_integrity(ar_, {plan_for(0)}, false));
}

TEST_F(PlanIntegrityTest, PlacedNodesNeedNoCover) {
  ar_.nodes[1].state = sched::NodeState::kPlaced;
  EXPECT_NO_THROW(mlp::audit_plan_integrity(ar_, {plan_for(0)}, true));
}

// ---- toggle precedence ----------------------------------------------------

TEST(AuditToggle, SetEnabledWins) {
  audit::set_enabled(true);
  EXPECT_TRUE(audit::enabled());
  audit::set_enabled(false);
  EXPECT_FALSE(audit::enabled());
}

TEST(AuditEnv, OffSpellings) {
  for (const char* v : {"0", "off", "OFF", "Off", "false", "FALSE", "no", "No", ""}) {
    const std::optional<bool> on = audit::detail::parse_env(v);
    ASSERT_TRUE(on.has_value()) << '"' << v << '"';
    EXPECT_FALSE(*on) << '"' << v << '"';
  }
}

TEST(AuditEnv, OnSpellings) {
  for (const char* v : {"1", "on", "true", "yes", "ON", "2", "audit", "offf", "nope"}) {
    const std::optional<bool> on = audit::detail::parse_env(v);
    ASSERT_TRUE(on.has_value()) << '"' << v << '"';
    EXPECT_TRUE(*on) << '"' << v << '"';
  }
}

TEST(AuditEnv, UnsetMeansNoOpinion) {
  EXPECT_FALSE(audit::detail::parse_env(nullptr).has_value());
}

/// Saves the auditor state and VMLP_AUDIT, then restores both: the inline
/// enabled() is exercised from the unresolved state, where it reads the env.
class AuditEnvResolve : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_state_ = audit::detail::g_state.load();
    if (const char* v = std::getenv("VMLP_AUDIT")) saved_env_ = v;
  }
  void TearDown() override {
    if (saved_env_) {
      ::setenv("VMLP_AUDIT", saved_env_->c_str(), 1);
    } else {
      ::unsetenv("VMLP_AUDIT");
    }
    audit::detail::g_state.store(saved_state_);
  }
  static bool resolve_with(const char* env) {
    ::setenv("VMLP_AUDIT", env, 1);
    audit::detail::g_state.store(audit::detail::kUnset);
    return audit::enabled();
  }

 private:
  int saved_state_ = audit::detail::kUnset;
  std::optional<std::string> saved_env_;
};

TEST_F(AuditEnvResolve, FalseTurnsAuditingOff) {
  EXPECT_FALSE(resolve_with("false"));
  // Resolved once: later queries are the stored answer, not a re-read.
  ::setenv("VMLP_AUDIT", "1", 1);
  EXPECT_FALSE(audit::enabled());
}

TEST_F(AuditEnvResolve, OffSpellingsAndOn) {
  EXPECT_FALSE(resolve_with("no"));
  EXPECT_FALSE(resolve_with(""));
  EXPECT_FALSE(resolve_with("0"));
  EXPECT_TRUE(resolve_with("1"));
  EXPECT_TRUE(resolve_with("yes"));
}

TEST_F(AuditEnvResolve, SetEnabledOverridesEnv) {
  ::setenv("VMLP_AUDIT", "1", 1);
  audit::set_enabled(false);
  EXPECT_FALSE(audit::enabled());
}

}  // namespace
}  // namespace vmlp
