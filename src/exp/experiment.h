// Experiment harness: one simulation run = (scheme, workload pattern,
// request stream, QPS scale, seed) over the combined SN+TT benchmark suite
// on the 100-machine simulated cluster of Section V.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "loadgen/generator.h"
#include "loadgen/patterns.h"
#include "mlp/metrics.h"
#include "obs/collector.h"
#include "sched/driver.h"
#include "sched/scheduler.h"
#include "trace/span.h"
#include "trace/tracer.h"

namespace vmlp::exp {

enum class SchemeKind { kFairSched, kCurSched, kPartProfile, kFullProfile, kVmlp };

const char* scheme_name(SchemeKind scheme);
/// The five evaluated schemes, in Table VI order.
std::vector<SchemeKind> all_schemes();
/// Instantiate a scheduler policy. `vmlp` configures v-MLP (and its ablation
/// switches); ignored for baselines.
std::unique_ptr<sched::IScheduler> make_scheduler(SchemeKind scheme,
                                                  const mlp::VmlpParams& vmlp = {},
                                                  std::uint64_t seed = 7);

/// Which request stream feeds the run (Section V's experiment axes).
enum class StreamKind { kLowVr, kMidVr, kHighVr, kMixed, kHighRatio };

const char* stream_name(StreamKind stream);

struct ExperimentConfig {
  SchemeKind scheme = SchemeKind::kVmlp;
  loadgen::PatternKind pattern = loadgen::PatternKind::kL1Pulse;
  StreamKind stream = StreamKind::kMixed;
  double high_ratio = 0.5;  ///< used only with StreamKind::kHighRatio
  double qps_scale = 1.0;
  std::uint64_t seed = 1;
  /// Feed the driver through loadgen::ArrivalStream (O(1) arrival state)
  /// instead of materializing the arrival vector. Deterministic per config,
  /// but a distinct mode: event interleaving differs from the bulk path, so
  /// results are not byte-comparable across the two modes.
  bool stream_arrivals = false;
  sched::DriverParams driver;
  mlp::VmlpParams vmlp;
  loadgen::PatternParams pattern_params;
};

/// Telemetry captured from one instrumented run (config.driver.obs.enabled).
/// Strictly an *output* of the run: nothing here feeds back into scheduling,
/// so RunResult is byte-identical whether or not this was captured.
struct ObsCapture {
  bool enabled = false;
  obs::Snapshot snapshot;                      ///< metrics registry (sim-time domain)
  std::vector<obs::DecisionEvent> decisions;   ///< ring contents, oldest → newest
  std::size_t decisions_dropped = 0;           ///< overwritten by ring wraparound
  std::vector<obs::PolicySlice> policy_slices; ///< host-clock callback profile
  std::size_t policy_slices_dropped = 0;
  std::vector<trace::Span> spans;              ///< microservice lanes for the trace
  /// Request lifecycles (arrival/completion), (arrival, id) order. Pairs with
  /// `spans` to drive per-request attribution: the critical-path extractor
  /// needs each request's end-to-end window, not just its spans.
  std::vector<trace::RequestRecord> request_records;
};

struct ExperimentResult {
  ExperimentConfig config;
  sched::RunResult run;
  std::vector<double> utilization_series;  ///< U per monitor bucket (Fig. 11)
  ObsCapture obs;                          ///< empty unless driver.obs.enabled
};

/// The seed-independent inputs of a trial sweep, built once and shared
/// read-only across every trial (and every shard thread). The application
/// suite and the request mix depend only on (stream, high_ratio) — never on
/// the seed — yet run_experiment() historically rebuilt both per run. A
/// sweep of N trials shares one template instead: "cloning" a trial's world
/// is a shared_ptr copy plus a mix copy, and the simulation only ever reads
/// through const. Everything seed-dependent (pattern, arrivals, scheduler,
/// driver) is still constructed fresh per trial.
struct TrialTemplate {
  std::shared_ptr<const app::Application> application;
  loadgen::RequestMix mix;
};

/// Build the shared template for `base`. Only `base.stream` and
/// `base.high_ratio` matter; the result is valid for any config that agrees
/// on those two fields (which a trial sweep does by construction).
TrialTemplate build_trial_template(const ExperimentConfig& base);

/// Execute one configuration (thread-safe: every run owns its world).
ExperimentResult run_experiment(const ExperimentConfig& config);

/// As above, but against a pre-built shared template instead of rebuilding
/// the application + mix. Byte-identical results to the template-free
/// overload (tests/test_trial_runner.cpp pins this).
ExperimentResult run_experiment(const ExperimentConfig& config, const TrialTemplate& tpl);

/// Execute a grid of configurations in parallel over a thread pool
/// (0 threads = hardware concurrency). Results align with the input order.
std::vector<ExperimentResult> run_grid(const std::vector<ExperimentConfig>& grid,
                                       std::size_t threads = 0);

}  // namespace vmlp::exp
