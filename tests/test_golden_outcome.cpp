// Golden outcomes: every deterministic RunResult field of three small runs,
// pinned to the exact bytes the driver produced when these values were
// recorded. A refactor of the driver's mechanism must leave all of them
// unchanged; a change that moves one is a behaviour change and must say so
// (and re-record the line below with the reason in CHANGES.md).
//
// policy_seconds is host time and is never pinned. Doubles print with 17
// significant digits, which round-trips every bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exp/experiment.h"
#include "loadgen/generator.h"
#include "loadgen/patterns.h"
#include "mlp/vmlp.h"
#include "sched/driver.h"
#include "workloads/suite.h"

namespace vmlp::sched {
namespace {

std::string outcome_line(const RunResult& r) {
  std::string out;
  char buf[96];
  const auto add_count = [&](const char* name, std::size_t v) {
    std::snprintf(buf, sizeof buf, "%s%s=%zu", out.empty() ? "" : " ", name, v);
    out += buf;
  };
  const auto add_real = [&](const char* name, double v) {
    std::snprintf(buf, sizeof buf, "%s%s=%.17g", out.empty() ? "" : " ", name, v);
    out += buf;
  };
  add_count("arrived", r.arrived);
  add_count("completed", r.completed);
  add_count("unfinished", r.unfinished);
  add_real("qos_violation_rate", r.qos_violation_rate);
  add_real("mean_utilization", r.mean_utilization);
  add_real("p50_latency_us", r.p50_latency_us);
  add_real("p90_latency_us", r.p90_latency_us);
  add_real("p99_latency_us", r.p99_latency_us);
  add_real("mean_latency_us", r.mean_latency_us);
  add_real("throughput_rps", r.throughput_rps);
  add_count("placements", r.placements);
  add_count("machine_crashes", r.machine_crashes);
  add_count("container_faults", r.container_faults);
  add_count("invocation_timeouts", r.invocation_timeouts);
  add_count("orphaned_nodes", r.orphaned_nodes);
  add_count("retries", r.retries);
  add_count("abandoned_requests", r.abandoned_requests);
  add_real("orphaned_mean_latency_us", r.orphaned_mean_latency_us);
  add_real("orphaned_p99_latency_us", r.orphaned_p99_latency_us);
  add_real("goodput_rps", r.goodput_rps);
  return out;
}

exp::ExperimentConfig small_config(exp::SchemeKind scheme, std::uint64_t seed) {
  exp::ExperimentConfig c;
  c.scheme = scheme;
  c.pattern = loadgen::PatternKind::kL1Pulse;
  c.stream = exp::StreamKind::kMixed;
  c.seed = seed;
  c.driver.horizon = 3 * kSec;
  c.driver.cluster.machine_count = 12;
  c.driver.machines_per_rack = 4;
  c.pattern_params.horizon = c.driver.horizon;
  c.pattern_params.base_rate = 16.0;
  c.pattern_params.max_rate = 48.0;
  c.pattern_params.peak_time = c.driver.horizon / 2;
  return c;
}

TEST(GoldenOutcome, FairSchedMixedStream) {
  const exp::ExperimentResult r = run_experiment(small_config(exp::SchemeKind::kFairSched, 2022));
  EXPECT_EQ(outcome_line(r.run),
            "arrived=135 completed=132 unfinished=3 "
            "qos_violation_rate=0.022222222222222223 "
            "mean_utilization=0.062239872685185181 "
            "p50_latency_us=85695.5 p90_latency_us=169342.70000000001 "
            "p99_latency_us=201524.67999999993 "
            "mean_latency_us=84349.636363636368 throughput_rps=44 "
            "placements=749 machine_crashes=0 container_faults=0 "
            "invocation_timeouts=0 orphaned_nodes=0 retries=0 "
            "abandoned_requests=0 orphaned_mean_latency_us=0 "
            "orphaned_p99_latency_us=0 goodput_rps=44");
}

TEST(GoldenOutcome, VmlpLateInvocationsAndRelocations) {
  // Contended enough that planned starts slip: the self-healing module sees
  // late invocations and relocates stages.
  const auto application = workloads::make_benchmark_suite();
  DriverParams p;
  p.horizon = 3 * kSec;
  p.cluster.machine_count = 8;
  p.machines_per_rack = 4;
  p.seed = 31;
  p.interference.enabled = true;
  loadgen::PatternParams pp;
  pp.horizon = p.horizon;
  pp.base_rate = 24.0;
  pp.max_rate = 72.0;
  pp.peak_time = p.horizon / 2;
  const auto pattern = loadgen::WorkloadPattern::make(loadgen::PatternKind::kL1Pulse, pp, 31);
  Rng rng(31);
  const auto arrivals =
      loadgen::generate_arrivals(pattern, loadgen::RequestMix::all(*application), rng);
  mlp::VmlpScheduler vmlp(mlp::VmlpParams{}, p.seed);
  SimulationDriver driver(*application, vmlp, p);
  driver.load_arrivals(arrivals);
  const RunResult r = driver.run();
  EXPECT_GT(driver.counters().late_events, 0u);
  EXPECT_GT(vmlp.relocations(), 0u);
  EXPECT_EQ(outcome_line(r),
            "arrived=191 completed=190 unfinished=1 "
            "qos_violation_rate=0.005235602094240838 "
            "mean_utilization=0.2146158854166666 p50_latency_us=92772.5 "
            "p90_latency_us=184470.79999999999 "
            "p99_latency_us=226881.62999999995 "
            "mean_latency_us=93274.247368421056 "
            "throughput_rps=63.333333333333336 placements=1381 "
            "machine_crashes=0 container_faults=0 invocation_timeouts=0 "
            "orphaned_nodes=0 retries=0 abandoned_requests=0 "
            "orphaned_mean_latency_us=0 orphaned_p99_latency_us=0 "
            "goodput_rps=63.333333333333336");
}

TEST(GoldenOutcome, TwoCellsUnderFailuresStreamed) {
  exp::ExperimentConfig c = small_config(exp::SchemeKind::kVmlp, 7);
  c.driver.cluster.topology.cells = 2;
  c.stream_arrivals = true;
  c.driver.interference.enabled = true;
  c.driver.interference.events_per_second = 8.0;
  c.driver.failure.enabled = true;
  c.driver.failure.crashes_per_second = 4.0;
  c.driver.failure.recovery_mean = 300 * kMsec;
  c.driver.failure.container_fault_prob = 0.1;
  c.driver.failure.invocation_timeout = 60 * kMsec;
  c.driver.failure.max_retries = 2;
  c.driver.obs.enabled = true;  // write-only: captures the spans below
  const exp::ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.run.machine_crashes, 0u);
  EXPECT_GT(r.run.container_faults, 0u);
  EXPECT_GT(r.run.invocation_timeouts, 0u);
  EXPECT_GT(r.run.abandoned_requests, 0u);
  // The spans' failure-phase ledger, summed over the run: the lost, backoff
  // and heal time that the attribution pass telescopes.
  SimDuration lost = 0;
  SimDuration backoff = 0;
  SimDuration heal = 0;
  for (const trace::Span& s : r.obs.spans) {
    lost += s.lost_exec_us;
    backoff += s.backoff_us;
    heal += s.heal_us;
  }
  EXPECT_EQ(r.obs.spans.size(), 801u);
  EXPECT_EQ(lost, 1549900);
  EXPECT_EQ(backoff, 539016);
  EXPECT_EQ(heal, 0);  // v-MLP re-places each lost node in the event that returns it
  EXPECT_EQ(outcome_line(r.run),
            "arrived=138 completed=134 unfinished=4 "
            "qos_violation_rate=0.028985507246376812 "
            "mean_utilization=0.18472497106481484 "
            "p50_latency_us=100840.5 p90_latency_us=208514 "
            "p99_latency_us=314679.60999999975 "
            "mean_latency_us=106103.11194029851 "
            "throughput_rps=44.666666666666664 placements=1159 "
            "machine_crashes=13 container_faults=81 "
            "invocation_timeouts=19 orphaned_nodes=103 retries=102 "
            "abandoned_requests=1 "
            "orphaned_mean_latency_us=134353.35616438356 "
            "orphaned_p99_latency_us=329916.52000000002 "
            "goodput_rps=44.666666666666664");
}

}  // namespace
}  // namespace vmlp::sched
