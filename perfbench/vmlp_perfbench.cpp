// vmlp_perfbench — the repository benchmark.
//
// A workload is a batch of simulation trials (one config, per-trial seeds
// split from --seed by exp::trial_seed). Averaging a batch keeps the figures
// steady across seeds: a single contended v-MLP trial's host cost varies
// ~1.6x from seed to seed.
//
// Each trial is assembled from the public API and the calls into each layer
// are timed from the outside:
//   workloads  exp::build_trial_template (suite + request mix, once per batch)
//   loadgen    WorkloadPattern + generate_arrivals / ArrivalStream
//   sched      SimulationDriver construction + load_arrivals (profile warm-up)
//   run        SimulationDriver::run()
//   policy     every IScheduler callback, through PolicyProbe, a forwarding
//              wrapper around exp::make_scheduler(...)
// run() minus policy is the mechanism layer (engine dispatch, re-rating,
// messaging, failure purge, net, tracer, monitor).
//
// --trace 0 measures the end-to-end metrics with telemetry off. --trace 1
// alternates untraced batches with traced ones (driver.obs.enabled plus
// PolicyProbe's clock reads), reports the per-layer metrics, and writes the
// first traced batch's host spans as Chrome/Perfetto JSON. Both modes check
// that every deterministic RunResult field is identical across batches and,
// for trial 0, equal to exp::run_experiment's, and exit 1 if a correctness or
// accounting check fails. The last stdout line is one JSON object.
//
// Usage: vmlp_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                       [--trace-dir DIR]
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.h"
#include "exp/trial_runner.h"
#include "loadgen/generator.h"
#include "loadgen/patterns.h"
#include "sched/driver.h"
#include "sched/scheduler.h"

namespace {

using namespace vmlp;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- workloads --------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  std::size_t trials;  ///< simulations per batch
  exp::ExperimentConfig (*make)();
};

exp::ExperimentConfig base_config(exp::SchemeKind scheme, loadgen::PatternKind pattern,
                                  exp::StreamKind stream, SimTime horizon) {
  exp::ExperimentConfig c;
  c.scheme = scheme;
  c.pattern = pattern;
  c.stream = stream;
  c.driver.horizon = horizon;
  c.driver.cluster.machine_count = 100;
  c.pattern_params.horizon = horizon;
  c.pattern_params.peak_time = horizon * 2 / 5;  // the paper's 40th second, scaled
  return c;
}

/// v-MLP on a contended 100-machine cell: admission and ledger reads dominate.
/// A pulse rather than L2's seeded random walk, whose load (and run time)
/// differs several-fold between seeds.
exp::ExperimentConfig vmlp_contended() {
  auto c = base_config(exp::SchemeKind::kVmlp, loadgen::PatternKind::kL1Pulse,
                       exp::StreamKind::kHighVr, 10 * kSec);
  c.pattern_params.pulse_width = 2 * kSec;
  // x1.25 makes first probes mostly fail; much beyond ~1.5x the planner
  // degenerates into an organize-retry storm.
  constexpr double kContention = 1.25;
  c.pattern_params.max_rate *= kContention;
  c.pattern_params.base_rate *= kContention;
  return c;
}

/// FairSched at the paper's 100 s horizon: no ledger fit queries, so engine
/// and driver mechanism dominate (the workload an admission change bypasses).
exp::ExperimentConfig fair_mechanism() {
  return base_config(exp::SchemeKind::kFairSched, loadgen::PatternKind::kL3Periodic,
                     exp::StreamKind::kMixed, 100 * kSec);
}

/// 1000 machines in 4 cells under crashes, container faults and interference,
/// streamed arrivals: ledger writes, cell router, failure purge and retry.
exp::ExperimentConfig churn_1k() {
  auto c = base_config(exp::SchemeKind::kVmlp, loadgen::PatternKind::kL1Pulse,
                       exp::StreamKind::kMixed, 10 * kSec);
  c.pattern_params.pulse_width = 2 * kSec;
  constexpr double kScale = 10.0;  // constant per-machine load density
  c.driver.cluster.machine_count = 1000;
  c.driver.cluster.topology.cells = 0;  // auto-partition: 256 machines per cell
  c.stream_arrivals = true;
  c.driver.trace_spans = false;
  c.pattern_params.base_rate *= kScale;
  c.pattern_params.max_rate *= kScale;
  c.driver.failure.enabled = true;
  c.driver.failure.crashes_per_second = 10.0;
  c.driver.failure.recovery_mean = 500 * kMsec;
  c.driver.failure.container_fault_prob = 0.02;
  c.driver.interference.enabled = true;
  c.driver.interference.events_per_second = 20.0;
  return c;
}

constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"vmlp_contended", 24, vmlp_contended},
    {"fair_mechanism", 2, fair_mechanism},
    {"churn_1k", 2, churn_1k},
}};

// ---- policy probe -------------------------------------------------------------

enum class Cb : std::uint8_t {
  kArrival,
  kUnblocked,
  kTick,
  kLate,
  kOrphaned,
  kStarted,
  kFinished,
  kRequestFinished,
  kCount,
};
constexpr std::size_t kCbCount = static_cast<std::size_t>(Cb::kCount);
constexpr std::array<const char*, kCbCount> kCbMetric = {
    "arrival", "unblocked", "tick", "late", "orphaned", "started", "finished", "request_finished"};
constexpr std::array<const char*, kCbCount> kCbSpan = {
    "on_request_arrival", "on_node_unblocked",  "on_tick",          "on_late_invocation",
    "on_node_orphaned",   "on_node_started",    "on_node_finished", "on_request_finished"};

constexpr std::uint64_t kNoRequest = ~0ULL;
constexpr std::uint32_t kNoNode = ~0U;

struct HostSpan {
  const char* name;
  const char* cat;
  std::int64_t start_ns;  ///< relative to the process epoch
  std::int64_t dur_ns;
  std::uint64_t request = kNoRequest;
  std::uint32_t node = kNoNode;
};

/// In-memory host-time recorder of one traced batch. Callback time is kept as
/// self time (a callback the driver fires synchronously inside another is
/// charged to itself, not to its caller), so the per-callback times sum to
/// the outermost total.
class HostTrace {
 public:
  /// Callback spans kept for export; later callbacks are still timed and
  /// counted, only their spans are dropped.
  static constexpr std::size_t kMaxCallbackSpans = 1 << 16;

  explicit HostTrace(Clock::time_point epoch) : epoch_(epoch) {}

  void enter() { stack_.push_back(Frame{Clock::now(), 0}); }

  void leave(Cb cb, std::uint64_t request, std::uint32_t node) {
    const auto end = Clock::now();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = ns_between(frame.start, end);
    const auto i = static_cast<std::size_t>(cb);
    ++calls[i];
    self_ns[i] += dur - frame.child_ns;
    if (stack_.empty()) {
      total_ns += dur;
    } else {
      stack_.back().child_ns += dur;
    }
    if (callback_spans_ < kMaxCallbackSpans) {
      ++callback_spans_;
      spans.push_back(
          HostSpan{kCbSpan[i], "policy", ns_between(epoch_, frame.start), dur, request, node});
    } else {
      ++spans_dropped;
    }
  }

  void phase(const char* name, const char* cat, Clock::time_point a, Clock::time_point b) {
    spans.push_back(HostSpan{name, cat, ns_between(epoch_, a), ns_between(a, b)});
  }

  std::array<std::uint64_t, kCbCount> calls{};
  std::array<std::int64_t, kCbCount> self_ns{};
  std::int64_t total_ns = 0;  ///< outermost callback time
  std::vector<HostSpan> spans;
  std::uint64_t spans_dropped = 0;

 private:
  struct Frame {
    Clock::time_point start;
    std::int64_t child_ns;
  };
  Clock::time_point epoch_;
  std::vector<Frame> stack_;
  std::size_t callback_spans_ = 0;
};

/// Forwards every IScheduler callback to the wrapped policy unchanged; when a
/// HostTrace is attached it also times each call.
class PolicyProbe final : public sched::IScheduler {
 public:
  PolicyProbe(std::unique_ptr<sched::IScheduler> inner, HostTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void attach(sched::SimulationDriver& driver) override {
    IScheduler::attach(driver);
    inner_->attach(driver);
  }
  void on_request_arrival(RequestId id) override {
    forward(Cb::kArrival, id.value(), kNoNode, [&] { inner_->on_request_arrival(id); });
  }
  void on_node_unblocked(RequestId id, std::size_t node) override {
    forward(Cb::kUnblocked, id.value(), node, [&] { inner_->on_node_unblocked(id, node); });
  }
  void on_tick() override {
    forward(Cb::kTick, kNoRequest, kNoNode, [&] { inner_->on_tick(); });
  }
  void on_late_invocation(RequestId id, std::size_t node) override {
    forward(Cb::kLate, id.value(), node, [&] { inner_->on_late_invocation(id, node); });
  }
  void on_node_orphaned(RequestId id, std::size_t node) override {
    forward(Cb::kOrphaned, id.value(), node, [&] { inner_->on_node_orphaned(id, node); });
  }
  void on_node_started(RequestId id, std::size_t node) override {
    forward(Cb::kStarted, id.value(), node, [&] { inner_->on_node_started(id, node); });
  }
  void on_node_finished(RequestId id, std::size_t node) override {
    forward(Cb::kFinished, id.value(), node, [&] { inner_->on_node_finished(id, node); });
  }
  void on_request_finished(RequestId id) override {
    forward(Cb::kRequestFinished, id.value(), kNoNode, [&] { inner_->on_request_finished(id); });
  }

 private:
  template <typename F>
  void forward(Cb cb, std::uint64_t request, std::size_t node, F&& call) {
    if (trace_ == nullptr) return call();
    trace_->enter();
    call();
    trace_->leave(cb, request, static_cast<std::uint32_t>(node));
  }

  std::unique_ptr<sched::IScheduler> inner_;
  HostTrace* trace_;
};

// ---- one assembled trial --------------------------------------------------------

/// Everything one trial owns, heap-pinned: the driver holds a reference to
/// the policy, and a stream holds a pointer to the pattern.
struct World {
  std::optional<loadgen::WorkloadPattern> pattern;
  std::unique_ptr<PolicyProbe> policy;
  std::unique_ptr<sched::SimulationDriver> driver;
};

/// Host seconds of one batch, per layer, summed over its trials.
struct Timing {
  double suite_build_s = 0.0;
  double generate_s = 0.0;
  double driver_init_s = 0.0;
  double run_s = 0.0;
  double measured_s = 0.0;  ///< one clock pair around each phase group, summed
  [[nodiscard]] double setup_s() const { return suite_build_s + generate_s + driver_init_s; }
};

/// Mirrors exp::run_experiment's construction order and seeding, so the
/// result must equal it field for field.
/// A traced trial (non-null `trace`) also turns on the driver's telemetry.
std::unique_ptr<World> assemble(const exp::ExperimentConfig& config, const exp::TrialTemplate& tpl,
                                HostTrace* trace, Timing& t) {
  auto w = std::make_unique<World>();
  const auto t0 = Clock::now();
  sched::DriverParams driver_params = config.driver;
  driver_params.seed = config.seed;
  driver_params.obs.enabled = trace != nullptr;
  loadgen::PatternParams pattern_params = config.pattern_params;
  pattern_params.horizon = driver_params.horizon;
  w->pattern.emplace(loadgen::WorkloadPattern::make(config.pattern, pattern_params,
                                                    Rng(config.seed).fork("pattern").seed()));
  Rng arrival_rng = Rng(config.seed).fork("arrivals");
  std::optional<loadgen::ArrivalStream> stream;
  std::vector<loadgen::Arrival> arrivals;
  if (config.stream_arrivals) {
    stream.emplace(*w->pattern, tpl.mix, std::move(arrival_rng), config.qps_scale);
  } else {
    arrivals = loadgen::generate_arrivals(*w->pattern, tpl.mix, arrival_rng, config.qps_scale);
  }
  const auto t1 = Clock::now();

  w->policy = std::make_unique<PolicyProbe>(
      exp::make_scheduler(config.scheme, config.vmlp, config.seed), trace);
  w->driver =
      std::make_unique<sched::SimulationDriver>(*tpl.application, *w->policy, driver_params);
  if (stream.has_value()) {
    w->driver->stream_arrivals(std::move(*stream));
  } else {
    w->driver->load_arrivals(arrivals);
  }
  const auto t2 = Clock::now();

  t.generate_s += seconds_between(t0, t1);
  t.driver_init_s += seconds_between(t1, t2);
  if (trace != nullptr) {
    trace->phase("generate_arrivals", "loadgen", t0, t1);
    trace->phase("driver_init", "sched", t1, t2);
  }
  return w;
}

exp::TrialTemplate build_template(const exp::ExperimentConfig& config, HostTrace* trace,
                                  Timing& t) {
  const auto t0 = Clock::now();
  exp::TrialTemplate tpl = exp::build_trial_template(config);
  const auto t1 = Clock::now();
  t.suite_build_s += seconds_between(t0, t1);
  t.measured_s += seconds_between(t0, t1);
  if (trace != nullptr) trace->phase("build_trial_template", "workloads", t0, t1);
  return tpl;
}

// ---- correctness ----------------------------------------------------------------

/// Every deterministic RunResult field (all but the host-time policy_seconds).
std::vector<std::pair<const char*, std::uint64_t>> outcome_fields(const sched::RunResult& r) {
  const auto f = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return {
      {"arrived", r.arrived},
      {"completed", r.completed},
      {"unfinished", r.unfinished},
      {"qos_violation_rate", f(r.qos_violation_rate)},
      {"mean_utilization", f(r.mean_utilization)},
      {"p50_latency_us", f(r.p50_latency_us)},
      {"p90_latency_us", f(r.p90_latency_us)},
      {"p99_latency_us", f(r.p99_latency_us)},
      {"mean_latency_us", f(r.mean_latency_us)},
      {"throughput_rps", f(r.throughput_rps)},
      {"placements", r.placements},
      {"machine_crashes", r.machine_crashes},
      {"container_faults", r.container_faults},
      {"invocation_timeouts", r.invocation_timeouts},
      {"orphaned_nodes", r.orphaned_nodes},
      {"retries", r.retries},
      {"abandoned_requests", r.abandoned_requests},
      {"orphaned_mean_latency_us", f(r.orphaned_mean_latency_us)},
      {"orphaned_p99_latency_us", f(r.orphaned_p99_latency_us)},
      {"goodput_rps", f(r.goodput_rps)},
  };
}

/// FNV-1a over every trial's outcome fields: one number naming the batch's
/// simulated outcome.
std::uint64_t outcome_digest(const std::vector<sched::RunResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const sched::RunResult& r : results) {
    for (const auto& [name, bits] : outcome_fields(r)) {
      for (int b = 0; b < 64; b += 8) {
        h ^= (bits >> b) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

/// True when `got` equals `want` bit for bit; otherwise names the first
/// differing field.
bool same_outcome(const sched::RunResult& want, const sched::RunResult& got, const char* what,
                  std::size_t trial, const char* against) {
  const auto a = outcome_fields(want);
  const auto b = outcome_fields(got);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second) {
      std::fprintf(stderr, "FAIL: %s batch, trial %zu: RunResult::%s differs from %s\n", what,
                   trial, a[i].first, against);
      return false;
    }
  }
  return true;
}

// ---- telemetry counters of a traced batch ---------------------------------------

constexpr std::array<const char*, 21> kCounterNames = {
    "engine.events_executed",      "engine.events_rescheduled", "engine.events_cancelled",
    "driver.placements_committed", "driver.starts_denied",      "driver.lates_fired",
    "failure.nodes_orphaned",      "failure.retries_scheduled", "ledger.fits_queried",
    "ledger.spans_tested",         "ledger.windows_reserved",   "ledger.windows_released",
    "ledger.hints_hit",            "ledger.hints_missed",       "topology.stages_routed",
    "topology.index_jumps",        "mlp.organize_calls",        "mlp.plans_committed",
    "mlp.probes_spent",            "mlp.probes_pruned",         "mlp.orphans_relocated",
};
using Counters = std::map<std::string, std::uint64_t>;

/// Adds the driver's telemetry counters into `out`; exits if one is missing.
void add_counters(const sched::SimulationDriver& driver, Counters& out) {
  const obs::Snapshot snap = driver.observer()->snapshot();
  for (const char* name : kCounterNames) {
    const obs::MetricSnapshot* m = snap.find(name);
    if (m == nullptr) {
      std::fprintf(stderr, "FAIL: telemetry counter %s is not registered\n", name);
      std::exit(1);
    }
    out[name] += m->counter;
  }
}

// ---- host speed ----------------------------------------------------------------

/// Host-speed probe: a dependent walk over one random 64 MB cycle, so every
/// step is a cache miss. The shared VM's speed drifts by up to 2x over tens
/// of seconds (neighbours contending for cache and memory), and this probe's
/// speed follows that drift more closely than ALU- or cache-resident
/// kernels do. Host times taken next to a probe reading are rescaled to the
/// reference speed below ("calibrated seconds"), which halves the run-to-run
/// spread of the timed metrics.
class SpeedProbe {
 public:
  SpeedProbe() : next_(kEntries) {
    for (std::uint32_t i = 0; i < kEntries; ++i) next_[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = kEntries - 1; i > 0; --i) {  // Sattolo: one cycle
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  /// Host time scale factor: measured probe speed / reference speed. A host
  /// time multiplied by it is in calibrated seconds.
  double scale() {
    const auto a = Clock::now();
    std::uint32_t at = at_;
    for (int i = 0; i < kSteps; ++i) at = next_[at];
    at_ = at;  // volatile: the walk cannot be optimized away
    return kSteps / seconds_between(a, Clock::now()) / kReferenceStepsPerSecond;
  }

 private:
  static constexpr std::uint32_t kEntries = 1U << 24;
  static constexpr int kSteps = 100000;
  /// Probe speed of an idle 4-core Xeon VM (DRAM latency ~200 ns).
  static constexpr double kReferenceStepsPerSecond = 5e6;
  std::vector<std::uint32_t> next_;
  volatile std::uint32_t at_ = 0;
};

// ---- measured batches ---------------------------------------------------------

struct Batch {
  std::vector<sched::RunResult> results;  ///< one per trial
  std::vector<double> run_s;               ///< run() host seconds per trial
  std::vector<double> scale;               ///< host speed around each trial
  Timing t;
  std::optional<HostTrace> trace;
  Counters counters;  ///< summed over trials (traced batches only)
};

/// Runs every trial once; with a probe, takes each trial's host speed as the
/// mean of the readings just before and just after it.
Batch run_batch(const std::vector<exp::ExperimentConfig>& trials, bool traced,
                Clock::time_point epoch, SpeedProbe* probe) {
  Batch b;
  if (traced) b.trace.emplace(epoch);
  HostTrace* trace = b.trace ? &*b.trace : nullptr;
  double before = probe != nullptr ? probe->scale() : 0.0;
  const exp::TrialTemplate tpl = build_template(trials.front(), trace, b.t);
  for (const exp::ExperimentConfig& config : trials) {
    {
      const auto begin = Clock::now();
      auto world = assemble(config, tpl, trace, b.t);
      const auto r0 = Clock::now();
      b.results.push_back(world->driver->run());
      const auto r1 = Clock::now();
      b.run_s.push_back(seconds_between(r0, r1));
      b.t.run_s += b.run_s.back();
      b.t.measured_s += seconds_between(begin, r1);
      if (trace != nullptr) {
        trace->phase("run", "sched", r0, r1);
        add_counters(*world->driver, b.counters);
      }
    }
    if (probe != nullptr) {
      const double after = probe->scale();
      b.scale.push_back(0.5 * (before + after));
      before = after;
    }
  }
  return b;
}

/// A /proc/self/status memory field ("VmHWM:", "VmRSS:") in MB; 0 when
/// /proc is unavailable.
double status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::stod(line.substr(std::strlen(field))) / 1024.0;
  }
  return 0.0;
}

// ---- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool write_chrome_trace(const std::filesystem::path& path, const HostTrace& trace,
                        const char* workload) {
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"" << workload
      << "\",\"callback_spans_dropped\":" << trace.spans_dropped
      << ",\"note\":\"self time of run is the mechanism layer\"},\"traceEvents\":[\n";
  out << R"({"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":"vmlp_perfbench host time"}})";
  char buf[96];
  for (const HostSpan& s : trace.spans) {
    out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
        << R"(","ph":"X","pid":1,"tid":1,"ts":)";
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3);
    out << buf;
    if (s.request != kNoRequest) {
      out << ",\"args\":{\"request\":" << s.request;
      if (s.node != kNoNode) out << ",\"node\":" << s.node;
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) std::fprintf(stderr, "FAIL: could not write %s\n", path.c_str());
  return static_cast<bool>(out);
}

/// Per-layer metrics of one traced batch; false if an accounting check fails.
bool layer_metrics(const Batch& b, std::vector<Metric>& out) {
  // PolicyProbe sits inside the driver's own callback timer, so its total
  // may exceed the driver's only by clock granularity.
  constexpr double kInsideTolerance = 0.005;
  const HostTrace& tr = *b.trace;
  const auto n = [&](const char* name) { return static_cast<double>(b.counters.at(name)); };
  double driver_policy_s = 0.0;
  for (const sched::RunResult& r : b.results) driver_policy_s += r.policy_seconds;
  const double run_s = b.t.run_s;
  const double policy_s = static_cast<double>(tr.total_ns) / 1e9;
  const double mechanism_s = run_s - policy_s;
  const double outside_vs_inside = ratio(policy_s, driver_policy_s);
  bool ok = true;
  if (mechanism_s < 0.0) {
    std::fprintf(stderr, "FAIL: policy time %.6f s exceeds run() %.6f s\n", policy_s, run_s);
    ok = false;
  }
  if (outside_vs_inside > 1.0 + kInsideTolerance) {
    std::fprintf(stderr, "FAIL: outside-in policy time is %.4f x the driver's own\n",
                 outside_vs_inside);
    ok = false;
  }
  out = {
      {"workloads.suite_build_s", b.t.suite_build_s, "s"},
      {"loadgen.generate_s", b.t.generate_s, "s"},
      {"sched.driver_init_s", b.t.driver_init_s, "s"},
      {"sched.run.s", run_s, "s"},
  };
  for (std::size_t i = 0; i < kCbCount; ++i) {
    const std::string base = std::string("sched.policy.") + kCbMetric[i];
    out.push_back({base + ".calls", static_cast<double>(tr.calls[i]), "count"});
    out.push_back({base + ".share", ratio(static_cast<double>(tr.self_ns[i]) / 1e9, run_s),
                   "fraction"});
  }
  const double placements = n("driver.placements_committed");
  const double writes = n("ledger.windows_reserved") + n("ledger.windows_released");
  const double probes = n("mlp.probes_spent");
  const std::vector<Metric> rest = {
      {"sched.policy.s", policy_s, "s"},
      {"sched.policy.share", ratio(policy_s, run_s), "fraction"},
      {"sched.policy.ns_per_placement", ratio(policy_s * 1e9, placements), "ns"},
      {"sched.policy.outside_vs_inside", outside_vs_inside, "ratio"},
      {"sched.mechanism.s", mechanism_s, "s"},
      {"sched.mechanism.ns_per_event", ratio(mechanism_s * 1e9, n("engine.events_executed")),
       "ns"},
      {"sched.placements", placements, "count"},
      {"sched.starts_denied", n("driver.starts_denied"), "count"},
      {"sched.lates_fired", n("driver.lates_fired"), "count"},
      {"sched.failure.nodes_orphaned", n("failure.nodes_orphaned"), "count"},
      {"sched.failure.retries_scheduled", n("failure.retries_scheduled"), "count"},
      {"sim.events_executed", n("engine.events_executed"), "count"},
      {"sim.events_rescheduled", n("engine.events_rescheduled"), "count"},
      {"sim.events_cancelled", n("engine.events_cancelled"), "count"},
      {"cluster.fits_queried", n("ledger.fits_queried"), "count"},
      {"cluster.spans_tested", n("ledger.spans_tested"), "count"},
      {"cluster.windows_reserved", n("ledger.windows_reserved"), "count"},
      {"cluster.windows_released", n("ledger.windows_released"), "count"},
      {"cluster.reads_per_write", ratio(n("ledger.fits_queried") + n("ledger.spans_tested"), writes),
       "ratio"},
      {"cluster.hint_hit_ratio",
       ratio(n("ledger.hints_hit"), n("ledger.hints_hit") + n("ledger.hints_missed")), "ratio"},
      {"cluster.topology.stages_routed", n("topology.stages_routed"), "count"},
      {"cluster.topology.index_jumps", n("topology.index_jumps"), "count"},
      {"mlp.organize_calls", n("mlp.organize_calls"), "count"},
      {"mlp.commit_ratio", ratio(n("mlp.plans_committed"), n("mlp.organize_calls")), "ratio"},
      {"mlp.probes_per_placement", ratio(probes, placements), "ratio"},
      {"mlp.prune_ratio", ratio(n("mlp.probes_pruned"), probes + n("mlp.probes_pruned")), "ratio"},
      {"mlp.orphans_relocated", n("mlp.orphans_relocated"), "count"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return ok;
}

int usage() {
  std::fprintf(stderr,
               "usage: vmlp_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-dir DIR]\nworkloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto epoch = Clock::now();
  std::string workload;
  std::uint64_t seed = 2022;
  double seconds = 10.0;
  bool traced = false;
  std::filesystem::path trace_dir = ".bench_build/traces";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0' || !(seconds > 0)) return usage();
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return usage();
      traced = val[0] == '1';
    } else if (arg == "--trace-dir") {
      trace_dir = val;
    } else {
      return usage();
    }
  }
  const auto spec = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                                 [&](const WorkloadSpec& w) { return workload == w.name; });
  if (spec == kWorkloads.end()) return usage();

  // The simulator sees only these generated configs.
  std::vector<exp::ExperimentConfig> trials(spec->trials, spec->make());
  for (std::size_t k = 0; k < trials.size(); ++k) trials[k].seed = exp::trial_seed(seed, k);

  // The library's own path for trial 0: every batch's trial 0 must equal it.
  // It also warms the allocator and caches, and sets the peak RSS of one
  // trial before the probe's buffer exists.
  const sched::RunResult reference = exp::run_experiment(trials.front()).run;
  const double peak_mb = status_mb("VmHWM:");
  SpeedProbe probe;

  // Measured batches: untraced only, or untraced and traced alternating.
  // Set-up is short, so each batch is followed by set-up-only passes; spread
  // over the whole run, their median shrugs off a slow stretch of the host.
  // Traced mode runs batches in pairs, so fewer suffice for its run time.
  const std::size_t min_batches = traced ? 2 : 3;
  constexpr int kSetupPassesPerBatch = 3;
  std::vector<Batch> plain;
  std::vector<Batch> with_trace;
  std::vector<double> setups;
  const auto start = Clock::now();
  double last = 0.0;  // duration of the latest loop iteration
  // Stop when another iteration would more likely end past --seconds.
  while (seconds_between(start, Clock::now()) + last / 2 < seconds ||
         plain.size() < min_batches) {
    const auto iteration = Clock::now();
    plain.push_back(run_batch(trials, false, epoch, &probe));
    if (traced) with_trace.push_back(run_batch(trials, true, epoch, nullptr));
    for (int i = 0; !traced && i < kSetupPassesPerBatch; ++i) {
      Timing t;
      const exp::TrialTemplate tpl = build_template(trials.front(), nullptr, t);
      for (const exp::ExperimentConfig& config : trials) assemble(config, tpl, nullptr, t);
      setups.push_back(t.setup_s() * probe.scale());
    }
    last = seconds_between(iteration, Clock::now());
  }

  // Correctness and accounting over every batch.
  bool correct = true;
  // Every batch must equal the first one, trial for trial.
  const std::vector<sched::RunResult>& outcome = plain.front().results;
  std::size_t arrived = 0;
  std::size_t failed = 0;
  std::size_t unfinished = 0;
  for (const auto* batches : {&plain, &with_trace}) {
    for (const Batch& b : *batches) {
      for (std::size_t k = 0; k < trials.size(); ++k) {
        const sched::RunResult& r = b.results[k];
        const char* what = b.trace ? "traced" : "untraced";
        bool same = same_outcome(outcome[k], r, what, k, "the first batch");
        if (k == 0) same = same_outcome(reference, r, what, k, "exp::run_experiment") && same;
        if (r.arrived != r.completed + r.unfinished) {
          std::fprintf(stderr, "FAIL: trial %zu: arrived != completed + unfinished\n", k);
          same = false;
        }
        arrived += r.arrived;
        unfinished += r.unfinished;
        if (!same) failed += r.arrived;
        correct = correct && same;
      }
      // The set-up and run() spans must cover the independently measured
      // time; the only gap is the clock reads between them.
      const double spans = b.t.setup_s() + b.t.run_s;
      if (std::abs(b.t.measured_s - spans) > 1e-3 * b.t.measured_s + 1e-5) {
        std::fprintf(stderr, "FAIL: set-up + run spans %.6f s != measured %.6f s\n", spans,
                     b.t.measured_s);
        correct = false;
      }
      if (b.counters != batches->front().counters) {
        std::fprintf(stderr, "FAIL: telemetry counters differ between batches\n");
        correct = false;
      }
    }
  }

  std::printf("workload %s seed %llu: %zu trials x (%zu untraced + %zu traced) batches, "
              "outcome digest %016llx\n",
              spec->name, static_cast<unsigned long long>(seed), trials.size(), plain.size(),
              with_trace.size(), static_cast<unsigned long long>(outcome_digest(outcome)));

  std::vector<Metric> metrics;
  if (!traced) {
    // Host time per trial is its median over the batches, in calibrated
    // seconds, so a slow stretch of the host counts for little.
    double completed = 0.0;
    double run_s = 0.0;
    double raw_run_s = 0.0;
    for (std::size_t k = 0; k < trials.size(); ++k) {
      std::vector<double> times;
      std::vector<double> raw;
      for (const Batch& b : plain) {
        times.push_back(b.run_s[k] * b.scale[k]);
        raw.push_back(b.run_s[k]);
      }
      completed += static_cast<double>(outcome[k].completed);
      run_s += median(times);
      raw_run_s += median(raw);
    }
    std::printf("  uncalibrated: %.1f requests per host second\n", ratio(completed, raw_run_s));
    // Simulated outcomes: means over the batch's trials.
    double qos = 0.0;
    double p99_ms = 0.0;
    double goodput = 0.0;
    for (const sched::RunResult& r : outcome) {
      qos += r.qos_violation_rate;
      p99_ms += r.p99_latency_us / 1e3;
      goodput += r.goodput_rps;
    }
    const auto k = static_cast<double>(outcome.size());
    metrics = {
        {"requests_per_host_s", ratio(completed, run_s), "req/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_mb, "MB"},
        {"sim_qos_violation_rate", qos / k, "fraction"},
        {"sim_p99_latency_ms", p99_ms / k, "ms"},
        {"sim_goodput_rps", goodput / k, "req/s"},
        {"failed_frac",
         ratio(static_cast<double>(unfinished + failed), static_cast<double>(arrived)),
         "fraction"},
    };
  } else {
    // Times are medians over the traced batches; counts are exact and
    // checked equal across batches above.
    std::vector<std::vector<Metric>> layers(with_trace.size());
    for (std::size_t i = 0; i < with_trace.size(); ++i) {
      correct = layer_metrics(with_trace[i], layers[i]) && correct;
    }
    for (std::size_t m = 0; m < layers.front().size(); ++m) {
      std::vector<double> values;
      for (const std::vector<Metric>& layer : layers) values.push_back(layer[m].value);
      metrics.push_back({layers.front()[m].name, median(values), layers.front()[m].unit});
    }
    std::vector<double> plain_run;
    std::vector<double> traced_run;
    for (const Batch& b : plain) plain_run.push_back(b.t.run_s);
    for (const Batch& b : with_trace) traced_run.push_back(b.t.run_s);
    metrics.push_back({"obs.trace_overhead", ratio(median(traced_run), median(plain_run)), "ratio"});
    correct = write_chrome_trace(trace_dir / (std::string(spec->name) + ".trace.json"),
                                 *with_trace.front().trace, spec->name) &&
              correct;
  }

  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(arrived);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
