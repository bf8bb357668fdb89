// Latency decomposition over traced runs: exp::critical_paths, the one place
// capture-side readers (blame report, Perfetto critical lane,
// bench/breakdown_analysis) take each finished request's blocking chain.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "exp/experiment.h"
#include "exp/report.h"
#include "workloads/suite.h"

namespace vmlp::exp {
namespace {

constexpr auto kExec = static_cast<std::size_t>(trace::Phase::kExec);

/// A step's non-exec phases: ingress for the first step, handoff after.
SimDuration wait_of(const trace::CriticalStep& step) {
  SimDuration wait = 0;
  for (std::size_t p = 0; p < trace::kPhaseCount; ++p) {
    if (p != kExec) wait += step.phase[p];
  }
  return wait;
}

TEST(Analysis, HandMadeTraceDecomposes) {
  auto application = workloads::make_benchmark_suite();
  const auto type = *application->find_request("read-user-timeline");  // 3-chain
  const auto& rt = application->request(type);
  ASSERT_EQ(rt.size(), 3u);

  ObsCapture capture;
  capture.enabled = true;
  capture.request_records.push_back({RequestId(1), type, 1000, 8500});
  // ingress 500, spans 2000/3000/1000 with handoffs 400 and 600.
  const SimTime bounds[3][2] = {{1500, 3500}, {3900, 6900}, {7500, 8500}};
  for (std::uint32_t n = 0; n < 3; ++n) {
    trace::Span s{RequestId(1), type, rt.nodes()[n].service, InstanceId(n), MachineId(n),
                  bounds[n][0], bounds[n][1]};
    s.node = n;
    if (n > 0) s.blocking_parent = n - 1;
    capture.spans.push_back(s);
  }

  const auto paths = critical_paths(capture);
  ASSERT_EQ(paths.size(), 1u);
  const auto& steps = paths[0].path.steps;
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(paths[0].record, &capture.request_records[0]);
  EXPECT_EQ(paths[0].path.latency, 7500);
  EXPECT_EQ(wait_of(steps[0]), 500);
  EXPECT_EQ(paths[0].path.totals[kExec], 2000 + 3000 + 1000);
  EXPECT_EQ(wait_of(steps[1]) + wait_of(steps[2]), 400 + 600);
  EXPECT_EQ(steps[1].span->service, rt.nodes()[1].service);  // the 3000us stage
  // Components account for the whole latency on a pure chain.
  EXPECT_EQ(paths[0].path.phase_sum(), paths[0].path.latency);
}

TEST(Analysis, UnfinishedRequestIsSkipped) {
  ObsCapture capture;
  capture.enabled = true;
  // Unfinished with a span, and finished without one: neither has a chain.
  capture.request_records.push_back({RequestId(1), RequestTypeId(0), 0, std::nullopt});
  capture.request_records.push_back({RequestId(2), RequestTypeId(0), 0, 50});
  trace::Span s{RequestId(1), RequestTypeId(0), ServiceTypeId(0), InstanceId(0), MachineId(0),
                10, 20};
  s.node = 0;
  capture.spans.push_back(s);
  EXPECT_TRUE(critical_paths(capture).empty());
}

ExperimentConfig traced_config(std::uint64_t seed) {
  ExperimentConfig c;
  c.scheme = SchemeKind::kVmlp;
  c.pattern = loadgen::PatternKind::kL1Pulse;
  c.stream = StreamKind::kMixed;
  c.seed = seed;
  c.driver.horizon = 4 * kSec;
  c.driver.cluster.machine_count = 10;
  c.driver.obs.enabled = true;
  c.pattern_params.horizon = c.driver.horizon;
  c.pattern_params.base_rate = 16.0;
  c.pattern_params.max_rate = 48.0;
  c.pattern_params.peak_time = c.driver.horizon / 2;
  return c;
}

TEST(Analysis, EndToEndRunDecomposesEverything) {
  const ExperimentResult result = run_experiment(traced_config(71));
  ASSERT_GT(result.run.completed, 20u);
  const auto paths = critical_paths(result.obs);
  // One chain per completed request, each accounting for its whole latency.
  EXPECT_EQ(paths.size(), result.run.completed);
  for (const RequestPath& rp : paths) {
    EXPECT_EQ(rp.path.latency, rp.record->latency());
    EXPECT_EQ(rp.path.phase_sum(), rp.path.latency) << "request " << rp.record->id.value();
    EXPECT_GT(rp.path.totals[kExec], 0);
    EXPECT_EQ(rp.path.steps.back().span->end, *rp.record->completion);
  }
}

TEST(Analysis, DominantServiceMatchesHeaviestStage) {
  ExperimentConfig config = traced_config(72);
  config.stream = StreamKind::kHighVr;
  const ExperimentResult result = run_experiment(config);
  auto application = workloads::make_benchmark_suite();
  const auto cheapest = *application->find_request("getCheapest");
  // Most frequent longest-exec stage on getCheapest's chains.
  std::map<std::uint32_t, std::size_t> dominant;
  for (const RequestPath& rp : critical_paths(result.obs)) {
    if (rp.record->type != cheapest) continue;
    const trace::CriticalStep* longest = &rp.path.steps.front();
    for (const trace::CriticalStep& step : rp.path.steps) {
      if (step.phase[kExec] > longest->phase[kExec]) longest = &step;
    }
    ++dominant[longest->span->service.value()];
  }
  ASSERT_FALSE(dominant.empty()) << "no completed getCheapest request";
  std::uint32_t best = 0;
  std::size_t best_count = 0;
  for (const auto& [service, count] : dominant) {
    if (count > best_count) {
      best = service;
      best_count = count;
    }
  }
  // getCheapest's heaviest stages are travel (~30ms scaled) and order (25ms):
  // the dominant service must be one of the two heavyweights.
  const std::string name = application->service(ServiceTypeId(best)).name;
  EXPECT_TRUE(name == "travel" || name == "order") << name;
}

}  // namespace
}  // namespace vmlp::exp
