// Experiment harness: factory, single runs, parallel grid determinism.
#include <gtest/gtest.h>

#include "common/audit.h"
#include "exp/experiment.h"

namespace vmlp::exp {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig c;
  c.scheme = SchemeKind::kVmlp;
  c.pattern = loadgen::PatternKind::kL1Pulse;
  c.stream = StreamKind::kMixed;
  c.seed = 3;
  c.driver.horizon = 6 * kSec;
  c.driver.cluster.machine_count = 10;
  c.pattern_params.base_rate = 16.0;
  c.pattern_params.max_rate = 48.0;
  c.pattern_params.peak_time = 3 * kSec;
  return c;
}

TEST(Experiment, SchemeNamesAndFactory) {
  EXPECT_EQ(all_schemes().size(), 5u);
  for (SchemeKind s : all_schemes()) {
    auto sched = make_scheduler(s);
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->name(), scheme_name(s));
  }
}

TEST(Experiment, StreamNames) {
  EXPECT_STREQ(stream_name(StreamKind::kLowVr), "low-Vr");
  EXPECT_STREQ(stream_name(StreamKind::kHighRatio), "high-ratio");
}

TEST(Experiment, SingleRunProducesResults) {
  const ExperimentResult r = run_experiment(small_config());
  EXPECT_GT(r.run.arrived, 50u);
  EXPECT_GT(r.run.completed, 0u);
  EXPECT_GE(r.run.qos_violation_rate, 0.0);
  EXPECT_LE(r.run.qos_violation_rate, 1.0);
  EXPECT_FALSE(r.utilization_series.empty());
  for (double u : r.utilization_series) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

// Admission probe pruning must be sound on the cell router's multi-cell
// path: with the auditor on, every probe skipped after classification is
// re-tested against the exact window and must fail, or the run throws.
// tools/determinism_check claim 5 runs the full audited grids; this is the
// cheap tier-1 canary.
TEST(Experiment, AuditedPruningOnTwoCells) {
  ExperimentConfig c = small_config();
  c.stream = StreamKind::kHighVr;
  c.pattern_params.base_rate *= 1.5;
  c.pattern_params.max_rate *= 1.5;
  c.driver.cluster.topology.cells = 2;
  c.driver.obs.enabled = true;
  const bool audit_before = audit::enabled();
  audit::set_enabled(true);
  ExperimentResult r;
  EXPECT_NO_THROW(r = run_experiment(c));
  audit::set_enabled(audit_before);
  EXPECT_GT(r.run.placements, 0u);
  // Vacuity guard: the audit only sees pruned probes on routed stages.
  for (const char* name : {"mlp.probes_pruned", "topology.stages_routed"}) {
    const auto* m = r.obs.snapshot.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_GT(m->counter, 0u) << name;
  }
}

TEST(Experiment, SeedsChangeOutcome) {
  ExperimentConfig a = small_config();
  ExperimentConfig b = small_config();
  b.seed = 4;
  const auto ra = run_experiment(a);
  const auto rb = run_experiment(b);
  EXPECT_NE(ra.run.arrived, rb.run.arrived);
}

TEST(Experiment, QpsScaleScalesArrivals) {
  ExperimentConfig half = small_config();
  half.qps_scale = 0.5;
  const auto full = run_experiment(small_config());
  const auto halved = run_experiment(half);
  EXPECT_NEAR(static_cast<double>(halved.run.arrived) / static_cast<double>(full.run.arrived),
              0.5, 0.12);
}

TEST(Experiment, StreamsSelectCategories) {
  ExperimentConfig c = small_config();
  c.stream = StreamKind::kHighVr;
  const auto r = run_experiment(c);
  EXPECT_GT(r.run.arrived, 10u);
  c.stream = StreamKind::kHighRatio;
  c.high_ratio = 0.9;
  const auto r2 = run_experiment(c);
  EXPECT_GT(r2.run.arrived, 10u);
}

TEST(Experiment, GridMatchesSerialRuns) {
  // Parallel sweeps must be bit-identical to serial execution (one isolated
  // world per run).
  std::vector<ExperimentConfig> grid;
  for (SchemeKind s : {SchemeKind::kFairSched, SchemeKind::kVmlp}) {
    ExperimentConfig c = small_config();
    c.scheme = s;
    grid.push_back(c);
  }
  const auto parallel = run_grid(grid, 2);
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto serial = run_experiment(grid[i]);
    EXPECT_EQ(parallel[i].run.completed, serial.run.completed) << i;
    EXPECT_DOUBLE_EQ(parallel[i].run.p99_latency_us, serial.run.p99_latency_us) << i;
    EXPECT_DOUBLE_EQ(parallel[i].run.mean_utilization, serial.run.mean_utilization) << i;
  }
}

TEST(Experiment, ResultConfigEchoed) {
  ExperimentConfig c = small_config();
  c.scheme = SchemeKind::kCurSched;
  const auto r = run_experiment(c);
  EXPECT_EQ(r.config.scheme, SchemeKind::kCurSched);
  EXPECT_EQ(r.config.seed, c.seed);
}

}  // namespace
}  // namespace vmlp::exp
