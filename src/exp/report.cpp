#include "exp/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_set>

#include "common/error.h"
#include "exp/experiment.h"
#include "obs/export.h"
#include "sched/driver.h"
#include "stats/percentile.h"

namespace vmlp::exp {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  VMLP_CHECK_MSG(!header_.empty(), "table needs a header");
}

void Table::row(std::vector<std::string> cells) {
  VMLP_CHECK_MSG(cells.size() == header_.size(),
                 "row has " << cells.size() << " cells, header has " << header_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) widths[c] = std::max(widths[c], r[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << cells[c];
      if (c + 1 < cells.size()) {
        out << std::string(widths[c] - cells[c].size() + 2, ' ');
      }
    }
    out << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& r : rows_) print_row(r);
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string fmt_ms(double microseconds, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*fms", precision, microseconds / 1000.0);
  return buf;
}

double normalize(double value, double baseline) {
  constexpr double kTiny = 1e-12;
  if (std::abs(baseline) < kTiny) return std::abs(value) < kTiny ? 1.0 : 999.0;
  return value / baseline;
}

std::string ascii_series(const std::vector<double>& values, std::size_t width) {
  if (values.empty() || width == 0) return "";
  static const char* kBlocks[] = {" ", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  const double maxv = *std::max_element(values.begin(), values.end());
  std::string out;
  const std::size_t n = std::min(width, values.size());
  for (std::size_t i = 0; i < n; ++i) {
    // Downsample by averaging each bucket of the series.
    const std::size_t lo = i * values.size() / n;
    const std::size_t hi = std::max(lo + 1, (i + 1) * values.size() / n);
    double sum = 0.0;
    for (std::size_t j = lo; j < hi; ++j) sum += values[j];
    const double v = sum / static_cast<double>(hi - lo);
    const int level =
        maxv <= 0.0 ? 0 : static_cast<int>(std::lround(v / maxv * 8.0));
    out += kBlocks[std::clamp(level, 0, 8)];
  }
  return out;
}

void print_section(const std::string& title, std::ostream& out) {
  out << '\n' << "=== " << title << " ===\n";
}

std::vector<std::string> failure_table_header() {
  return {"crashes", "faults",    "timeouts",    "orphans",
          "retries", "abandoned", "goodput r/s", "orphan p99"};
}

std::vector<std::string> failure_cells(const sched::RunResult& r) {
  return {std::to_string(r.machine_crashes),
          std::to_string(r.container_faults),
          std::to_string(r.invocation_timeouts),
          std::to_string(r.orphaned_nodes),
          std::to_string(r.retries),
          std::to_string(r.abandoned_requests),
          fmt_double(r.goodput_rps, 1),
          fmt_ms(r.orphaned_p99_latency_us)};
}

std::vector<RequestPath> critical_paths(const ObsCapture& capture) {
  std::vector<RequestPath> out;
  const auto by_request = trace::group_by_request(capture.spans);
  for (const trace::RequestRecord& rec : capture.request_records) {
    const auto it = by_request.find(rec.id);
    if (!rec.finished() || it == by_request.end()) continue;
    auto path = trace::extract_critical_path(rec.arrival, *rec.completion, it->second);
    if (path.steps.empty()) continue;
    out.push_back(RequestPath{&rec, std::move(path)});
  }
  return out;
}

std::vector<std::string> attribution_phase_columns() {
  std::vector<std::string> columns;
  columns.reserve(trace::kPhaseCount);
  for (std::size_t p = 0; p < trace::kPhaseCount; ++p) {
    columns.emplace_back(trace::phase_name(static_cast<trace::Phase>(p)));
  }
  return columns;
}

void print_attribution_report(const ObsCapture& capture, std::ostream& out) {
  print_section("latency attribution (critical-path p99 blame)", out);
  if (!capture.enabled || capture.spans.empty() || capture.request_records.empty()) {
    out << "(no traced requests captured — run with trace_spans + obs on)\n";
    return;
  }

  // Per-request-type accumulation: latency samples plus each completed
  // request's critical-path decomposition.
  struct Extracted {
    double latency = 0.0;
    std::size_t path_len = 0;
    std::array<SimDuration, trace::kPhaseCount> totals{};
  };
  struct TypeAgg {
    stats::SampleSet latencies;
    std::vector<Extracted> requests;
  };
  std::map<std::uint64_t, TypeAgg> by_type;  // ordered → stable row order

  for (const RequestPath& rp : critical_paths(capture)) {
    TypeAgg& agg = by_type[rp.record->type.value()];
    Extracted ex;
    ex.latency = static_cast<double>(rp.record->latency());
    ex.path_len = rp.path.steps.size();
    ex.totals = rp.path.totals;
    agg.latencies.add(ex.latency);
    agg.requests.push_back(ex);
  }
  if (by_type.empty()) {
    out << "(no completed traced requests)\n";
    return;
  }

  const std::vector<std::string> phases = attribution_phase_columns();
  auto share_table_header = [&phases]() {
    std::vector<std::string> header = {"request type", "n", "path len"};
    for (const std::string& p : phases) header.push_back(p);
    return header;
  };

  // Mean phase shares over a subset of a type's requests (those with
  // latency >= floor), plus the subset's mean chain length and the phase
  // carrying the largest share ("blame").
  auto aggregate_rows = [&](std::ostream& os, double quantile) {
    Table table(share_table_header());
    for (const auto& [type, agg] : by_type) {
      const double floor = quantile > 0.0 ? agg.latencies.quantile(quantile) : 0.0;
      std::array<double, trace::kPhaseCount> share_sum{};
      double path_sum = 0.0;
      std::size_t n = 0;
      for (const Extracted& ex : agg.requests) {
        if (ex.latency < floor || ex.latency <= 0.0) continue;
        ++n;
        path_sum += static_cast<double>(ex.path_len);
        for (std::size_t p = 0; p < trace::kPhaseCount; ++p) {
          share_sum[p] += static_cast<double>(ex.totals[p]) / ex.latency;
        }
      }
      if (n == 0) continue;
      std::vector<std::string> cells = {"type" + std::to_string(type), std::to_string(n),
                                        fmt_double(path_sum / static_cast<double>(n), 1)};
      std::size_t blame = 0;
      for (std::size_t p = 0; p < trace::kPhaseCount; ++p) {
        if (share_sum[p] > share_sum[blame]) blame = p;
        cells.push_back(fmt_percent(share_sum[p] / static_cast<double>(n)));
      }
      cells[cells.size() - trace::kPhaseCount + blame] += " *";
      table.row(cells);
    }
    table.print(os);
    os << "(* = blame: the phase with the largest mean share of latency)\n";
  };

  out << "\nmean critical-path phase shares, all completed requests:\n";
  aggregate_rows(out, 0.0);
  out << "\np99 tail (requests with latency >= their type's p99):\n";
  aggregate_rows(out, 0.99);
}

void write_perfetto_trace(const ObsCapture& capture, std::ostream& out) {
  // Clock-domain separation: simulated-time lanes (spans, decisions) and the
  // host-time policy profile must never share a pid — Perfetto renders each
  // process on its own timeline, which is exactly the isolation the dual
  // domains need.
  constexpr std::uint64_t kSpansPid = 1;
  constexpr std::uint64_t kDecisionsPid = 2;
  constexpr std::uint64_t kHostPid = 3;
  constexpr std::uint64_t kCriticalPid = 4;

  obs::PerfettoWriter writer(out);
  if (capture.enabled) {
    // Blocking-chain spans across all traced requests: marked critical:true
    // in the execution lanes and re-emitted on the dedicated pid-4 lane.
    std::unordered_set<const trace::Span*> critical;
    for (const RequestPath& rp : critical_paths(capture)) {
      for (const trace::CriticalStep& step : rp.path.steps) critical.insert(step.span);
    }

    writer.process_name(kSpansPid, "sim: microservice execution");
    for (const trace::Span& s : capture.spans) {
      obs::PerfettoWriter::Args args;
      args.emplace_back("request", std::to_string(s.request.value()));
      args.emplace_back("service", std::to_string(s.service.value()));
      if (s.node != trace::Span::kNoNode) args.emplace_back("node", std::to_string(s.node));
      if (critical.count(&s) != 0) args.emplace_back("critical", "true");
      writer.complete(kSpansPid, static_cast<std::uint64_t>(s.machine.value()) + 1, "exec",
                      "svc" + std::to_string(s.service.value()),
                      static_cast<double>(s.start), static_cast<double>(s.duration()), args);
    }
    if (!critical.empty()) {
      writer.process_name(kCriticalPid, "sim: critical path");
      for (const trace::Span& s : capture.spans) {
        if (critical.count(&s) == 0) continue;
        obs::PerfettoWriter::Args args;
        args.emplace_back("request", std::to_string(s.request.value()));
        args.emplace_back("critical", "true");
        writer.complete(kCriticalPid, static_cast<std::uint64_t>(s.machine.value()) + 1,
                        "critical", "svc" + std::to_string(s.service.value()),
                        static_cast<double>(s.start), static_cast<double>(s.duration()), args);
      }
    }
    obs::write_decision_events(writer, capture.decisions, kDecisionsPid);
    obs::write_policy_slices(writer, capture.policy_slices, kHostPid);
  }
  writer.finish();
}

void write_metrics_snapshot(const obs::Snapshot& snapshot, std::ostream& out) {
  obs::write_prometheus_text(snapshot, out);
}

}  // namespace vmlp::exp
