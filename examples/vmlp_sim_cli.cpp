// vmlp_sim_cli — config-driven simulation runs.
//
// Reads an INI config (path as argv[1]; built-in defaults otherwise), runs
// the experiment, prints the result row, and optionally exports Zipkin-style
// JSON spans / request CSVs / the arrival trace.
//
//   $ ./vmlp_sim_cli myrun.ini
//
//   [run]
//   scheme = v-MLP         ; FairSched | CurSched | PartProfile | FullProfile | v-MLP
//   pattern = L2           ; L1 | L2 | L3
//   stream = mixed         ; low | mid | high | mixed
//   qps_scale = 1.0
//   seed = 2022
//   horizon_sec = 40
//   [cluster]
//   machines = 100
//   [interference]
//   enabled = false
//   [export]
//   spans_json = run_spans.json
//   requests_csv = run_requests.csv
//   arrivals_csv = run_arrivals.csv
//   metrics_prom = run_metrics.prom   ; Prometheus text snapshot
//   trace_json = run_trace.json       ; Perfetto/Chrome trace (ui.perfetto.dev)
//   attribution_report = run_blame.txt ; critical-path p99 blame report
//
// [run] attribution = true prints the attribution report and tags critical
// spans (critical:true) without writing the report file. The metrics, trace
// and attribution outputs turn the telemetry collector on, and a collector
// on a run with spans (always, here) records the `attribution.*` histogram
// families.
//
// The telemetry exports can also be requested on the command line (they
// override the INI keys):
//
//   $ ./vmlp_sim_cli myrun.ini --metrics run.prom --trace-out run.json --attribution run.txt
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "common/config.h"
#include "common/error.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "loadgen/replay.h"
#include "trace/export.h"
#include "workloads/suite.h"

namespace {

using namespace vmlp;

exp::SchemeKind parse_scheme(const std::string& name) {
  for (auto s : exp::all_schemes()) {
    if (name == exp::scheme_name(s)) return s;
  }
  throw vmlp::ConfigError("unknown scheme: " + name);
}

loadgen::PatternKind parse_pattern(const std::string& name) {
  if (name == "L1") return loadgen::PatternKind::kL1Pulse;
  if (name == "L2") return loadgen::PatternKind::kL2Fluctuating;
  if (name == "L3") return loadgen::PatternKind::kL3Periodic;
  throw vmlp::ConfigError("unknown pattern: " + name);
}

exp::StreamKind parse_stream(const std::string& name) {
  if (name == "low") return exp::StreamKind::kLowVr;
  if (name == "mid") return exp::StreamKind::kMidVr;
  if (name == "high") return exp::StreamKind::kHighVr;
  if (name == "mixed") return exp::StreamKind::kMixed;
  throw vmlp::ConfigError("unknown stream: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vmlp;
  try {
    Config cfg;
    std::optional<std::string> metrics_path;
    std::optional<std::string> trace_path;
    std::optional<std::string> attribution_path;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--metrics" || arg == "--trace-out" || arg == "--attribution") {
        if (i + 1 >= argc) throw ConfigError(arg + " needs a path argument");
        (arg == "--metrics" ? metrics_path
                            : arg == "--trace-out" ? trace_path : attribution_path) = argv[++i];
      } else if (!arg.empty() && arg.front() == '-') {
        throw ConfigError("unknown flag: " + arg);
      } else {
        cfg = Config::parse_file(arg);
      }
    }
    if (!metrics_path.has_value()) metrics_path = cfg.get("export.metrics_prom");
    if (!trace_path.has_value()) trace_path = cfg.get("export.trace_json");
    if (!attribution_path.has_value()) attribution_path = cfg.get("export.attribution_report");

    exp::ExperimentConfig config;
    config.scheme = parse_scheme(cfg.get_string("run.scheme", "v-MLP"));
    config.pattern = parse_pattern(cfg.get_string("run.pattern", "L2"));
    config.stream = parse_stream(cfg.get_string("run.stream", "mixed"));
    config.qps_scale = cfg.get_double("run.qps_scale", 1.0);
    config.seed = static_cast<std::uint64_t>(cfg.get_int("run.seed", 2022));
    config.driver.horizon = cfg.get_int("run.horizon_sec", 40) * kSec;
    config.driver.cluster.machine_count =
        static_cast<std::size_t>(cfg.get_int("cluster.machines", 100));
    config.driver.interference.enabled = cfg.get_bool("interference.enabled", false);
    config.driver.interference.events_per_second =
        cfg.get_double("interference.events_per_second", 2.0);
    config.driver.interference.magnitude = cfg.get_double("interference.magnitude", 0.5);
    config.pattern_params.horizon = config.driver.horizon;
    config.pattern_params.peak_time = config.driver.horizon * 2 / 5;

    std::cout << "running " << exp::scheme_name(config.scheme) << " on "
              << loadgen::pattern_name(config.pattern) << "/"
              << exp::stream_name(config.stream) << " x" << config.qps_scale << " for "
              << format_time(config.driver.horizon) << " on "
              << config.driver.cluster.machine_count << " machines...\n";

    // Re-run the experiment manually so the tracer stays accessible for the
    // export options (exp::run_experiment discards the driver).
    auto application = workloads::make_benchmark_suite();
    auto scheduler = exp::make_scheduler(config.scheme, config.vmlp, config.seed);
    sched::DriverParams dp = config.driver;
    dp.seed = config.seed;
    // Telemetry collection is zero-perturbation (claims 6 and 8): enabling
    // it for the exports cannot change the printed result row.
    const bool attribution =
        attribution_path.has_value() || cfg.get_bool("run.attribution", false);
    dp.obs.enabled = metrics_path.has_value() || trace_path.has_value() || attribution;
    const auto pattern = loadgen::WorkloadPattern::make(
        config.pattern, config.pattern_params, Rng(config.seed).fork("pattern").seed());
    loadgen::RequestMix mix = config.stream == exp::StreamKind::kMixed
                                  ? loadgen::RequestMix::all(*application)
                                  : loadgen::RequestMix::category(
                                        *application,
                                        config.stream == exp::StreamKind::kLowVr
                                            ? app::VolatilityBand::kLow
                                            : config.stream == exp::StreamKind::kMidVr
                                                  ? app::VolatilityBand::kMid
                                                  : app::VolatilityBand::kHigh);
    Rng arrival_rng = Rng(config.seed).fork("arrivals");
    const auto arrivals =
        loadgen::generate_arrivals(pattern, mix, arrival_rng, config.qps_scale);

    sched::SimulationDriver driver(*application, *scheduler, dp);
    driver.load_arrivals(arrivals);
    const sched::RunResult result = driver.run();

    exp::Table table({"arrived", "completed", "QoS viol.", "p50", "p90", "p99", "util",
                      "thr (req/s)"});
    table.row({std::to_string(result.arrived), std::to_string(result.completed),
               exp::fmt_percent(result.qos_violation_rate, 2),
               exp::fmt_ms(result.p50_latency_us), exp::fmt_ms(result.p90_latency_us),
               exp::fmt_ms(result.p99_latency_us), exp::fmt_percent(result.mean_utilization),
               exp::fmt_double(result.throughput_rps, 1)});
    table.print();

    if (const auto path = cfg.get("export.spans_json")) {
      trace::SpanExportOptions span_options;
      span_options.machines_per_rack = dp.machines_per_rack;
      span_options.mark_critical = attribution;
      trace::export_spans_json_file(driver.tracer(), *application, *path, span_options);
      std::cout << "spans written to " << *path << '\n';
    }
    if (attribution) {
      exp::ObsCapture capture;
      capture.enabled = true;
      capture.spans = driver.tracer().spans();
      for (const trace::RequestRecord* rec : driver.tracer().requests()) {
        capture.request_records.push_back(*rec);
      }
      exp::print_attribution_report(capture);
      if (attribution_path.has_value()) {
        std::ofstream out(*attribution_path);
        if (!out) throw ConfigError("cannot open " + *attribution_path);
        exp::print_attribution_report(capture, out);
        std::cout << "attribution report written to " << *attribution_path << '\n';
      }
    }
    if (const auto path = cfg.get("export.requests_csv")) {
      trace::export_requests_csv_file(driver.tracer(), *application, *path);
      std::cout << "requests written to " << *path << '\n';
    }
    if (const auto path = cfg.get("export.arrivals_csv")) {
      loadgen::save_arrivals_csv_file(arrivals, *application, *path);
      std::cout << "arrival trace written to " << *path << '\n';
    }
    if (const obs::Collector* c = driver.observer(); c != nullptr) {
      if (metrics_path.has_value()) {
        std::ofstream out(*metrics_path);
        if (!out) throw ConfigError("cannot open " + *metrics_path);
        exp::write_metrics_snapshot(c->snapshot(), out);
        std::cout << "metrics snapshot written to " << *metrics_path << '\n';
      }
      if (trace_path.has_value()) {
        exp::ObsCapture capture;
        capture.enabled = true;
        capture.decisions = c->events().ordered();
        capture.policy_slices = c->policy_slices();
        capture.spans = driver.tracer().spans();
        for (const trace::RequestRecord* rec : driver.tracer().requests()) {
          capture.request_records.push_back(*rec);
        }
        std::ofstream out(*trace_path);
        if (!out) throw ConfigError("cannot open " + *trace_path);
        exp::write_perfetto_trace(capture, out);
        std::cout << "perfetto trace written to " << *trace_path
                  << " (open it at ui.perfetto.dev)\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
