// Result-table printing shared by the bench binaries: fixed-width columns,
// normalization helpers, and simple ASCII series rendering for the
// figure-shaped outputs.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "trace/critical_path.h"
#include "trace/tracer.h"

namespace vmlp::sched {
struct RunResult;
}

namespace vmlp::obs {
struct Snapshot;
}

namespace vmlp::exp {

struct ObsCapture;

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append a row; cells are pre-formatted strings.
  void row(std::vector<std::string> cells);
  /// Print with aligned columns to `out`.
  void print(std::ostream& out = std::cout) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers.
std::string fmt_double(double v, int precision = 3);
std::string fmt_percent(double fraction, int precision = 1);
std::string fmt_ms(double microseconds, int precision = 2);

/// value / baseline, guarding a zero baseline (returns 1 when both are ~0,
/// a large sentinel when only the baseline is ~0).
double normalize(double value, double baseline);

/// Render a numeric series as a compact sparkline-style ASCII bar chart, one
/// line of block characters scaled to max. Useful for rate/utilization series.
std::string ascii_series(const std::vector<double>& values, std::size_t width = 80);

/// Print a titled section separator.
void print_section(const std::string& title, std::ostream& out = std::cout);

/// Column titles for the failure-robustness metrics, in the same order
/// `failure_cells` emits them. Prepend scheme/config columns as needed.
std::vector<std::string> failure_table_header();
/// One run's failure metrics formatted for a Table row.
std::vector<std::string> failure_cells(const sched::RunResult& r);

/// Column titles for the attribution blame tables: trace::phase_name() of
/// each trace::Phase, in declaration order.
std::vector<std::string> attribution_phase_columns();

/// One finished request's blocking chain (see trace/critical_path.h).
struct RequestPath {
  const trace::RequestRecord* record = nullptr;  ///< points into the capture
  trace::CriticalPathResult path;
};

/// The blocking chain of every finished request in `capture` that has spans,
/// in request_records order. Every capture-side reader of a request's chain
/// (the blame report, the Perfetto critical lane, bench/breakdown_analysis)
/// takes it from here.
std::vector<RequestPath> critical_paths(const ObsCapture& capture);

/// Print the per-request-class latency attribution report: for each request
/// type with completed traced requests, the mean critical-path phase shares
/// over all requests and over the p99 tail (latency >= the type's p99), the
/// mean blocking-chain length, and the tail's dominant ("blame") phase.
/// Needs capture.spans + capture.request_records (run with trace_spans on);
/// prints a note and returns when either is missing.
void print_attribution_report(const ObsCapture& capture, std::ostream& out = std::cout);

/// Write one instrumented run's telemetry as Chrome trace-event JSON that
/// ui.perfetto.dev loads directly. Two clock domains on separate pids:
///  * pid 1 — microservice execution lanes (one thread per machine) and
///    pid 2 — scheduler decision instants, both on *simulated* time;
///  * pid 3 — policy-callback profiling slices on *host* time (nanoseconds
///    since the run's policy epoch);
///  * pid 4 — the critical-path lane: each traced request's blocking chain
///    re-emitted on its machines' rows, every slice tagged critical:true
///    (present only when request records were captured).
/// No-op (empty valid trace) when the capture is disabled.
void write_perfetto_trace(const ObsCapture& capture, std::ostream& out);

/// Write the metrics registry snapshot in Prometheus text exposition format.
void write_metrics_snapshot(const obs::Snapshot& snapshot, std::ostream& out);

}  // namespace vmlp::exp
