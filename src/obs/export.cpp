#include "obs/export.h"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/json.h"

namespace vmlp::obs {

namespace {

/// vmlp_ prefix + dots to underscores: "engine.events_executed" ->
/// "vmlp_engine_events_executed".
std::string prometheus_name(const std::string& name) {
  std::string out = "vmlp_";
  out.reserve(out.size() + name.size());
  for (char c : name) out += c == '.' ? '_' : c;
  return out;
}

/// Shortest exact decimal for a double ("1000", "0.125"); deterministic.
/// Integral values print without an exponent (Prometheus `le` labels and
/// trace timestamps read as "10", not "1e+01").
std::string number_text(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      v > -1e15 && v < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

}  // namespace

void write_prometheus_text(const Snapshot& snap, std::ostream& out) {
  for (const MetricSnapshot& m : snap.metrics) {
    const std::string name = prometheus_name(m.name);
    out << "# HELP " << name << ' ' << m.help << '\n';
    switch (m.kind) {
      case MetricKind::kCounter:
        out << "# TYPE " << name << " counter\n";
        out << name << ' ' << m.counter << '\n';
        break;
      case MetricKind::kGauge:
        out << "# TYPE " << name << " gauge\n";
        out << name << ' ' << number_text(m.gauge) << '\n';
        break;
      case MetricKind::kHistogram: {
        out << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.hist.bounds.size(); ++b) {
          cumulative += m.hist.buckets[b];
          out << name << "_bucket{le=\"" << number_text(m.hist.bounds[b]) << "\"} "
              << cumulative << '\n';
        }
        cumulative += m.hist.buckets.back();
        out << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
        out << name << "_sum " << number_text(m.hist.sum) << '\n';
        out << name << "_count " << m.hist.count << '\n';
        break;
      }
    }
  }
}

std::string prometheus_text(const Snapshot& snap) {
  std::ostringstream os;
  write_prometheus_text(snap, os);
  return os.str();
}

PerfettoWriter::PerfettoWriter(std::ostream& out) : out_(out) {
  out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

void PerfettoWriter::begin_event() {
  VMLP_CHECK_MSG(!finished_, "PerfettoWriter used after finish()");
  if (!first_) out_ << ',';
  first_ = false;
  out_ << "\n";
}

void PerfettoWriter::write_args(const Args& args) {
  out_ << ",\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << '"' << json_escape(args[i].first) << "\":\"" << json_escape(args[i].second) << '"';
  }
  out_ << '}';
}

void PerfettoWriter::process_name(std::uint64_t pid, const std::string& name) {
  begin_event();
  out_ << "{\"ph\":\"M\",\"pid\":" << pid << ",\"name\":\"process_name\"";
  write_args({{"name", name}});
  out_ << '}';
}

void PerfettoWriter::complete(std::uint64_t pid, std::uint64_t tid, const std::string& cat,
                              const std::string& name, double ts_us, double dur_us,
                              const Args& args) {
  begin_event();
  out_ << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid << ",\"cat\":\""
       << json_escape(cat) << "\",\"name\":\"" << json_escape(name)
       << "\",\"ts\":" << number_text(ts_us) << ",\"dur\":" << number_text(dur_us);
  if (!args.empty()) write_args(args);
  out_ << '}';
}

void PerfettoWriter::instant(std::uint64_t pid, std::uint64_t tid, const std::string& cat,
                             const std::string& name, double ts_us, const Args& args) {
  begin_event();
  out_ << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":" << tid << ",\"cat\":\""
       << json_escape(cat) << "\",\"name\":\"" << json_escape(name)
       << "\",\"ts\":" << number_text(ts_us);
  if (!args.empty()) write_args(args);
  out_ << '}';
}

void PerfettoWriter::finish() {
  VMLP_CHECK_MSG(!finished_, "PerfettoWriter finished twice");
  finished_ = true;
  out_ << "\n]}\n";
}

void write_decision_events(PerfettoWriter& writer, const std::vector<DecisionEvent>& events,
                           std::uint64_t pid) {
  writer.process_name(pid, "sim: scheduler decisions");
  for (const DecisionEvent& e : events) {
    PerfettoWriter::Args args;
    if (e.request != DecisionEvent::kNoRequest) {
      args.emplace_back("request", std::to_string(e.request));
    }
    if (e.node != DecisionEvent::kNoIndex) args.emplace_back("node", std::to_string(e.node));
    args.emplace_back("detail", std::to_string(e.detail));
    // One lane per machine; machine-less decisions land on lane 0.
    const std::uint64_t tid =
        e.machine == DecisionEvent::kNoIndex ? 0 : static_cast<std::uint64_t>(e.machine) + 1;
    writer.instant(pid, tid, "decision", decision_kind_name(e.kind),
                   static_cast<double>(e.at), args);
  }
}

void write_policy_slices(PerfettoWriter& writer, const std::vector<PolicySlice>& slices,
                         std::uint64_t pid) {
  writer.process_name(pid, "host: policy callbacks");
  for (const PolicySlice& s : slices) {
    writer.complete(pid, 1, "policy", policy_callback_name(s.kind),
                    static_cast<double>(s.start_ns) / 1000.0,
                    static_cast<double>(s.dur_ns) / 1000.0);
  }
}

}  // namespace vmlp::obs
