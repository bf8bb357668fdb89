// Critical-path latency attribution: phase decomposition on synthetic DAG
// shapes (diamond, wide fan-in, retries, relocation) and the end-to-end
// exactness property on driver-recorded runs — the attributed phases along
// the blocking chain sum to the request's latency with zero rounding.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "app/dag.h"
#include "common/audit.h"
#include "common/error.h"
#include "exp/experiment.h"
#include "obs/collector.h"
#include "obs/registry.h"
#include "exp/report.h"
#include "loadgen/generator.h"
#include "loadgen/patterns.h"
#include "sched/driver.h"
#include "sched/fair_sched.h"
#include "trace/critical_path.h"
#include "trace/tracer.h"
#include "workloads/suite.h"

namespace vmlp::trace {
namespace {

Span make_span(std::uint32_t node, SimTime start, SimTime end, SimTime startable,
               std::uint32_t blocking) {
  Span s{RequestId(1), RequestTypeId(0), ServiceTypeId(node), InstanceId(node), MachineId(0),
         start, end};
  s.node = node;
  s.startable_at = startable;
  s.blocking_parent = blocking;
  return s;
}

std::vector<const Span*> ptrs(const std::vector<Span>& spans) {
  std::vector<const Span*> out;
  for (const Span& s : spans) out.push_back(&s);
  return out;
}

TEST(CriticalPath, PhaseNamesCoverEnumInOrder) {
  // The report columns are phase_name() of each Phase, in enum order.
  const auto columns = exp::attribution_phase_columns();
  ASSERT_EQ(columns.size(), kPhaseCount);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    EXPECT_EQ(columns[p], phase_name(static_cast<Phase>(p))) << "phase " << p;
  }
  // The collector spells its own histogram suffixes (obs cannot include
  // trace headers): each attribution.<band>.<phase>_share must carry
  // phase_name's spelling and be bound to that phase's handle. Observing
  // p + 1 samples through handle p tells the handles apart by count.
  ASSERT_EQ(kPhaseCount, obs::Collector::AttributionMetrics::kPhases);
  obs::Collector collector(1);
  const auto& attribution = collector.attribution();
  const char* const bands[] = {"low", "mid", "high"};
  for (std::size_t b = 0; b < obs::Collector::AttributionMetrics::kBands; ++b) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      for (std::size_t i = 0; i <= p; ++i) {
        collector.observe(attribution.band[b].phase_share[p], 0.5);
      }
    }
  }
  const obs::Snapshot snap = collector.snapshot();
  for (std::size_t b = 0; b < obs::Collector::AttributionMetrics::kBands; ++b) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const std::string name = std::string("attribution.") + bands[b] + "." +
                               phase_name(static_cast<Phase>(p)) + "_share";
      const obs::MetricSnapshot* m = snap.find(name);
      ASSERT_NE(m, nullptr) << name;
      EXPECT_EQ(m->hist.count, p + 1) << name;
    }
  }
}

TEST(CriticalPath, DiamondFollowsBlockingArmAndTelescopes) {
  // 0 -> {1, 2} -> 3; node 2's message arrives last, so the chain is 0-2-3.
  app::Dag dag(4);
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(1, 3);
  dag.add_edge(2, 3);

  const SimTime arrival = 100;
  std::vector<Span> spans;
  spans.push_back(make_span(0, 110, 200, 105, Span::kNoNode));  // root: ingress 5, queue 5
  spans.push_back(make_span(1, 210, 300, 205, 0));              // fast arm
  spans.push_back(make_span(2, 230, 420, 220, 0));              // slow arm
  spans.push_back(make_span(3, 440, 500, 430, 2));              // joined on node 2

  const auto path = extract_critical_path(arrival, 500, ptrs(spans), &dag);
  ASSERT_EQ(path.steps.size(), 3u);
  EXPECT_EQ(path.steps[0].span->node, 0u);
  EXPECT_EQ(path.steps[1].span->node, 2u);
  EXPECT_EQ(path.steps[2].span->node, 3u);

  EXPECT_EQ(path.latency, 400);
  EXPECT_EQ(path.phase_sum(), path.latency);  // exact, no tick tolerance
  // network: 5 (ingress) + 20 (0->2) + 10 (2->3); queue: 5 + 10 + 10;
  // exec: 90 + 190 + 60.
  EXPECT_EQ(path.totals[static_cast<std::size_t>(Phase::kNetwork)], 35);
  EXPECT_EQ(path.totals[static_cast<std::size_t>(Phase::kQueue)], 25);
  EXPECT_EQ(path.totals[static_cast<std::size_t>(Phase::kExec)], 340);
  EXPECT_EQ(path.totals[static_cast<std::size_t>(Phase::kLostExec)], 0);

  // The fast arm is the only off-path span; with the DAG its slack is the
  // gap until node 3 became startable (430 - 300), not until completion.
  ASSERT_EQ(path.off_path.size(), 1u);
  EXPECT_EQ(path.off_path[0].span->node, 1u);
  EXPECT_EQ(path.off_path[0].slack, 130);
}

TEST(CriticalPath, WideFanInSinkTieBreaksToLowerNode) {
  // 0 -> {1..4} with two sinks ending at the same instant: the finishing
  // node must be the lower index, deterministically.
  std::vector<Span> spans;
  spans.push_back(make_span(0, 10, 50, 10, Span::kNoNode));
  spans.push_back(make_span(1, 60, 300, 55, 0));
  spans.push_back(make_span(2, 60, 200, 55, 0));
  spans.push_back(make_span(3, 60, 300, 58, 0));  // same end as node 1
  spans.push_back(make_span(4, 60, 120, 52, 0));

  const auto path = extract_critical_path(0, 300, ptrs(spans));
  ASSERT_EQ(path.steps.size(), 2u);
  EXPECT_EQ(path.steps.back().span->node, 1u);
  EXPECT_EQ(path.phase_sum(), path.latency);
  EXPECT_EQ(path.off_path.size(), 3u);
  for (const OffPathSlack& off : path.off_path) EXPECT_GE(off.slack, 0);
}

TEST(CriticalPath, RetryLedgerSplitsWaitIntoFailurePhases) {
  // One root whose final attempt waited through a voided execution, a retry
  // backoff, and a heal window; the residual is queue time.
  Span s = make_span(0, 1000, 1500, 100, Span::kNoNode);
  s.lost_exec_us = 300;  // first attempt executed 300us then died
  s.backoff_us = 200;
  s.heal_us = 250;
  const std::vector<Span> spans{s};

  const auto path = extract_critical_path(0, 1500, ptrs(spans));
  ASSERT_EQ(path.steps.size(), 1u);
  const auto& ph = path.steps[0].phase;
  EXPECT_EQ(ph[static_cast<std::size_t>(Phase::kNetwork)], 100);
  EXPECT_EQ(ph[static_cast<std::size_t>(Phase::kLostExec)], 300);
  EXPECT_EQ(ph[static_cast<std::size_t>(Phase::kBackoff)], 200);
  EXPECT_EQ(ph[static_cast<std::size_t>(Phase::kHeal)], 250);
  EXPECT_EQ(ph[static_cast<std::size_t>(Phase::kQueue)], 150);  // 900 - 750
  EXPECT_EQ(ph[static_cast<std::size_t>(Phase::kExec)], 500);
  EXPECT_EQ(path.phase_sum(), 1500);
}

TEST(CriticalPath, SyntheticSpansWithoutLedgerCollapseToQueue) {
  // Spans recorded without attribution fields (startable_at = -1) clamp to
  // pred_end: the whole wait shows up as queue, and the sum still matches.
  Span s{RequestId(1), RequestTypeId(0), ServiceTypeId(0), InstanceId(0), MachineId(0), 40, 90};
  s.node = 0;
  const std::vector<Span> spans{s};
  const auto path = extract_critical_path(0, 90, ptrs(spans));
  ASSERT_EQ(path.steps.size(), 1u);
  EXPECT_EQ(path.steps[0].phase[static_cast<std::size_t>(Phase::kNetwork)], 0);
  EXPECT_EQ(path.steps[0].phase[static_cast<std::size_t>(Phase::kQueue)], 40);
  EXPECT_EQ(path.phase_sum(), 90);
}

TEST(CriticalPath, EmptyAndNodelessInputsYieldEmptyResult) {
  EXPECT_TRUE(extract_critical_path(0, 10, {}).steps.empty());
  Span nodeless{RequestId(1), RequestTypeId(0), ServiceTypeId(0), InstanceId(0), MachineId(0),
                1, 5};
  const std::vector<Span> spans{nodeless};
  const auto path = extract_critical_path(0, 10, ptrs(spans));
  EXPECT_TRUE(path.steps.empty());
  EXPECT_EQ(path.phase_sum(), 0);
}

// ---- driver integration: exactness over a failing, healing run ------------

TEST(CriticalPathDriver, RecordedRequestsTelescopeExactlyUnderFailures) {
  // Crashes (mid-request relocations) + container faults (retries) on, audit
  // on: the driver's per-completion VMLP_AUDIT_ASSERT already enforces the
  // identity; this test re-checks it from the outside for every request.
  const bool prev = audit::enabled();
  audit::set_enabled(true);
  auto application = workloads::make_benchmark_suite();
  sched::FairSched scheduler;
  sched::DriverParams p;
  p.horizon = 10 * kSec;
  p.cluster.machine_count = 10;
  p.machines_per_rack = 5;
  p.seed = 2022;
  p.failure.enabled = true;
  p.failure.crashes_per_second = 0.5;
  p.failure.recovery_mean = 500 * kMsec;
  p.failure.container_fault_prob = 0.05;
  p.obs.enabled = true;
  sched::SimulationDriver driver(*application, scheduler, p);

  loadgen::PatternParams pp;
  pp.horizon = p.horizon;
  pp.base_rate = 10.0;
  pp.max_rate = 20.0;
  pp.peak_time = p.horizon / 2;
  const auto pattern = loadgen::WorkloadPattern::make(loadgen::PatternKind::kL1Pulse, pp, 3);
  Rng rng(3);
  driver.load_arrivals(loadgen::generate_arrivals(
      pattern, loadgen::RequestMix::all(*application), rng));
  const sched::RunResult r = driver.run();
  audit::set_enabled(prev);

  // The scenario must actually exercise the failure phases, or the exactness
  // claim is vacuous for them.
  ASSERT_GT(r.machine_crashes, 0u);
  ASSERT_GT(r.retries, 0u);
  ASSERT_GT(r.completed, 100u);

  std::size_t checked = 0;
  std::array<SimDuration, kPhaseCount> grand{};
  for (const RequestRecord* rec : driver.tracer().requests()) {
    if (!rec->finished()) continue;
    const app::Dag& dag = application->request(rec->type).dag();
    const auto path = extract_critical_path(rec->arrival, *rec->completion,
                                            driver.tracer().spans_of(rec->id), &dag);
    ASSERT_FALSE(path.steps.empty());
    EXPECT_EQ(path.phase_sum(), rec->latency()) << "request " << rec->id.value();
    for (const OffPathSlack& off : path.off_path) EXPECT_GE(off.slack, 0);
    for (std::size_t ph = 0; ph < kPhaseCount; ++ph) grand[ph] += path.totals[ph];
    ++checked;
  }
  EXPECT_EQ(checked, r.completed);
  // Retries/relocations must surface as failure-phase time somewhere.
  EXPECT_GT(grand[static_cast<std::size_t>(Phase::kLostExec)] +
                grand[static_cast<std::size_t>(Phase::kBackoff)] +
                grand[static_cast<std::size_t>(Phase::kHeal)],
            0);
  EXPECT_GT(grand[static_cast<std::size_t>(Phase::kExec)], 0);

  // The per-band attribution histograms were fed one sample set per request.
  const obs::Collector* c = driver.observer();
  ASSERT_NE(c, nullptr);
  const obs::Snapshot snap = c->snapshot();
  std::uint64_t share_count = 0;
  for (const char* band : {"low", "mid", "high"}) {
    const auto* m = snap.find(std::string("attribution.") + band + ".exec_share");
    ASSERT_NE(m, nullptr) << band;
    share_count += m->hist.count;
    const auto* len = snap.find(std::string("attribution.") + band + ".path_len");
    ASSERT_NE(len, nullptr) << band;
    EXPECT_EQ(len->hist.count, m->hist.count) << band;
  }
  EXPECT_EQ(share_count, r.completed);
}

TEST(CriticalPathDriver, HealPhaseReadsTimeOnContendedCrashingCell) {
  // PartProfile on 6 machines with 1 crash/s and 1.5 s recoveries: a lost
  // node often finds no machine to re-place on in the event that returns
  // it, so its heal interval stays open into its final wait window. (On
  // roomier cells every scheme re-places at once and heal reads 0.)
  const bool prev = audit::enabled();
  audit::set_enabled(true);
  auto application = workloads::make_benchmark_suite();
  auto scheduler = exp::make_scheduler(exp::SchemeKind::kPartProfile);
  sched::DriverParams p;
  p.horizon = 4 * kSec;
  p.cluster.machine_count = 6;
  p.machines_per_rack = 5;
  p.seed = 2022;
  p.failure.enabled = true;
  p.failure.crashes_per_second = 1.0;
  p.failure.recovery_mean = 1500 * kMsec;
  p.failure.container_fault_prob = 0.05;
  sched::SimulationDriver driver(*application, *scheduler, p);
  loadgen::PatternParams pp;
  pp.horizon = p.horizon;
  pp.base_rate = 40.0;
  pp.max_rate = 80.0;
  pp.peak_time = p.horizon / 2;
  const auto pattern =
      loadgen::WorkloadPattern::make(loadgen::PatternKind::kL2Fluctuating, pp, 3);
  Rng rng(3);
  driver.load_arrivals(loadgen::generate_arrivals(
      pattern, loadgen::RequestMix::all(*application), rng));
  const sched::RunResult r = driver.run();
  audit::set_enabled(prev);

  SimDuration heal = 0;
  for (const Span& s : driver.tracer().spans()) heal += s.heal_us;
  EXPECT_GT(heal, 0);

  std::size_t checked = 0;
  for (const RequestRecord* rec : driver.tracer().requests()) {
    if (!rec->finished()) continue;
    const app::Dag& dag = application->request(rec->type).dag();
    const auto path = extract_critical_path(rec->arrival, *rec->completion,
                                            driver.tracer().spans_of(rec->id), &dag);
    EXPECT_EQ(path.phase_sum(), rec->latency()) << "request " << rec->id.value();
    ++checked;
  }
  EXPECT_EQ(checked, r.completed);
  EXPECT_GT(checked, 100u);
}

/// Outcome and attribution histograms of one streamed run with a collector,
/// plus what its tracer retains afterwards.
struct StreamedRun {
  sched::RunResult result;
  std::vector<obs::MetricSnapshot> attribution;  ///< every attribution.* metric
  std::size_t span_slots = 0;
  bool spans_view_throws = false;
};

StreamedRun run_streamed(bool release_completed) {
  auto application = workloads::make_benchmark_suite();
  sched::FairSched scheduler;
  sched::DriverParams p;
  p.horizon = 4 * kSec;
  p.cluster.machine_count = 10;
  p.machines_per_rack = 5;
  p.seed = 2022;
  p.obs.enabled = true;
  p.trace_release_completed = release_completed;
  sched::SimulationDriver driver(*application, scheduler, p);
  loadgen::PatternParams pp;
  pp.horizon = p.horizon;
  pp.base_rate = 40.0;
  pp.max_rate = 80.0;
  pp.peak_time = p.horizon / 2;
  const auto pattern = loadgen::WorkloadPattern::make(loadgen::PatternKind::kL1Pulse, pp, 3);
  driver.stream_arrivals(
      loadgen::ArrivalStream(pattern, loadgen::RequestMix::all(*application), Rng(3)));
  StreamedRun run;
  run.result = driver.run();
  for (const obs::MetricSnapshot& m : driver.observer()->snapshot().metrics) {
    if (m.name.rfind("attribution.", 0) == 0) run.attribution.push_back(m);
  }
  run.span_slots = driver.tracer().span_slots();
  try {
    (void)driver.tracer().spans();
  } catch (const InvariantError&) {
    run.spans_view_throws = true;
  }
  return run;
}

TEST(CriticalPathDriver, ReleaseOnCompletionMatchesRetainedSpans) {
  const StreamedRun kept = run_streamed(/*release_completed=*/false);
  const StreamedRun released = run_streamed(/*release_completed=*/true);
  ASSERT_GT(kept.result.completed, 100u);

  // Releasing a completed request's spans after its attribution pass moves
  // no outcome and no attribution sample.
  const sched::RunResult& a = kept.result;
  const sched::RunResult& b = released.result;
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.unfinished, b.unfinished);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.qos_violation_rate, b.qos_violation_rate);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(a.p50_latency_us, b.p50_latency_us);
  EXPECT_EQ(a.p99_latency_us, b.p99_latency_us);
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
  ASSERT_EQ(kept.attribution.size(), released.attribution.size());
  std::uint64_t samples = 0;
  for (std::size_t i = 0; i < kept.attribution.size(); ++i) {
    const obs::MetricSnapshot& x = kept.attribution[i];
    const obs::MetricSnapshot& y = released.attribution[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.hist.buckets, y.hist.buckets) << x.name;
    EXPECT_EQ(x.hist.count, y.hist.count) << x.name;
    EXPECT_EQ(x.hist.sum, y.hist.sum) << x.name;
    samples += x.hist.count;
  }
  EXPECT_GT(samples, 0u);

  // The flat span view is gone once slots recycle...
  EXPECT_FALSE(kept.spans_view_throws);
  EXPECT_TRUE(released.spans_view_throws);
  // ...and slot storage tracks the in-flight requests, not the completed
  // stream: a small fraction of what retaining every span needs.
  EXPECT_LT(released.span_slots * 10, kept.span_slots)
      << released.span_slots << " slots vs " << kept.span_slots << " retained";
}

// ---- when the attribution pass runs: spans + (collector or audit) ---------

/// FairSched behind a forwarder that, when `forge` is set, records after
/// every finished node a span ending 1 ms past the node's finish. The forged
/// span becomes its request's critical-path sink, so the attributed phases no
/// longer sum to the request's latency.
class SpanForger : public sched::IScheduler {
 public:
  explicit SpanForger(bool forge) : forge_(forge) {}
  [[nodiscard]] std::string name() const override { return "span-forger"; }
  void attach(sched::SimulationDriver& driver) override {
    IScheduler::attach(driver);
    inner_.attach(driver);
    if (forge_) driver.subscribe(sched::Hook::kNodeFinished);
  }
  void on_request_arrival(RequestId id) override { inner_.on_request_arrival(id); }
  void on_node_unblocked(RequestId id, std::size_t node) override {
    inner_.on_node_unblocked(id, node);
  }
  void on_tick() override { inner_.on_tick(); }
  void on_node_finished(RequestId id, std::size_t node) override {
    const SimTime t = driver_->now();
    Span forged{id, RequestTypeId(0), ServiceTypeId(0), InstanceId(0), MachineId(0), t,
                t + kMsec};
    forged.node = static_cast<std::uint32_t>(node);
    driver_->tracer().record_span(forged);
  }

 private:
  sched::FairSched inner_;
  bool forge_;
};

/// Sets the audit tier for one scope and restores the previous setting.
class AuditScope {
 public:
  explicit AuditScope(bool on) : prev_(audit::enabled()) { audit::set_enabled(on); }
  ~AuditScope() { audit::set_enabled(prev_); }
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

 private:
  bool prev_;
};

struct SmallRun {
  sched::RunResult result;
  std::uint64_t attributed = 0;  ///< samples across attribution.*.exec_share
  std::uint64_t path_lens = 0;   ///< samples across attribution.*.path_len
};

/// A short failure-free run on 10 machines.
SmallRun run_small(bool obs, bool spans, bool forge) {
  auto application = workloads::make_benchmark_suite();
  SpanForger scheduler(forge);
  sched::DriverParams p;
  p.horizon = 3 * kSec;
  p.cluster.machine_count = 10;
  p.machines_per_rack = 5;
  p.seed = 2022;
  p.trace_spans = spans;
  p.obs.enabled = obs;
  sched::SimulationDriver driver(*application, scheduler, p);
  loadgen::PatternParams pp;
  pp.horizon = p.horizon;
  pp.base_rate = 16.0;
  pp.max_rate = 48.0;
  pp.peak_time = p.horizon / 2;
  const auto pattern = loadgen::WorkloadPattern::make(loadgen::PatternKind::kL1Pulse, pp, 3);
  Rng rng(3);
  driver.load_arrivals(loadgen::generate_arrivals(
      pattern, loadgen::RequestMix::all(*application), rng));
  SmallRun run;
  run.result = driver.run();
  if (const obs::Collector* c = driver.observer(); c != nullptr) {
    const obs::Snapshot snap = c->snapshot();
    for (const char* band : {"low", "mid", "high"}) {
      run.attributed += snap.find(std::string("attribution.") + band + ".exec_share")->hist.count;
      run.path_lens += snap.find(std::string("attribution.") + band + ".path_len")->hist.count;
    }
  }
  return run;
}

TEST(CriticalPathDriver, CollectorWithSpansAttributesEveryCompletion) {
  const AuditScope audit_off(false);
  const SmallRun run = run_small(/*obs=*/true, /*spans=*/true, /*forge=*/false);
  ASSERT_GT(run.result.completed, 0u);
  EXPECT_EQ(run.attributed, run.result.completed);
  EXPECT_EQ(run.path_lens, run.result.completed);
}

TEST(CriticalPathDriver, CollectorWithoutSpansAttributesNothing) {
  const AuditScope audit_off(false);
  const SmallRun on = run_small(/*obs=*/true, /*spans=*/true, /*forge=*/false);
  const SmallRun off = run_small(/*obs=*/true, /*spans=*/false, /*forge=*/false);
  ASSERT_GT(off.result.completed, 0u);
  EXPECT_EQ(off.attributed, 0u);
  EXPECT_EQ(off.path_lens, 0u);
  // Attribution is write-only: the spans switch moves no outcome.
  EXPECT_EQ(off.result.completed, on.result.completed);
  EXPECT_EQ(off.result.placements, on.result.placements);
  EXPECT_EQ(off.result.p99_latency_us, on.result.p99_latency_us);
}

TEST(CriticalPathDriver, AuditChecksPhaseSumWithoutCollector) {
  // No collector, so the histograms have no sink; the audit tier alone must
  // still run the pass and catch the forged span's broken identity.
  {
    const AuditScope audit_on(true);
    EXPECT_THROW(run_small(/*obs=*/false, /*spans=*/true, /*forge=*/true), InvariantError);
  }
  // Vacuity guard: the same forged run is clean with audits off (nothing
  // reads attribution, so the pass does not run).
  const AuditScope audit_off(false);
  EXPECT_GT(run_small(/*obs=*/false, /*spans=*/true, /*forge=*/true).result.completed, 0u);
}

}  // namespace
}  // namespace vmlp::trace
