// Telemetry exporters: Prometheus text snapshots and a streaming Chrome
// trace-event JSON writer (the format ui.perfetto.dev loads directly).
//
// Both operate on obs-owned data only; composing them with the tracer's
// request spans (the simulated-time lanes) happens in exp/report so this
// module keeps its single dependency on common.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/collector.h"

namespace vmlp::obs {

/// Prometheus text exposition format: metric names get a `vmlp_` prefix with
/// dots mapped to underscores, each preceded by # HELP / # TYPE comments;
/// histograms expand to cumulative _bucket{le="..."} series plus _sum and
/// _count. Deterministic: derived purely from the (deterministic) snapshot.
void write_prometheus_text(const Snapshot& snap, std::ostream& out);
[[nodiscard]] std::string prometheus_text(const Snapshot& snap);

/// Streaming writer for the Chrome trace-event JSON array format.
///
/// The caller assigns pids/tids to model lanes; the writer never invents
/// structure. Timestamps are in trace microseconds (Chrome's unit); the two
/// clock domains — simulated time and host time — must be kept on different
/// pids by the caller (see exp::write_perfetto_trace).
class PerfettoWriter {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  explicit PerfettoWriter(std::ostream& out);

  void process_name(std::uint64_t pid, const std::string& name);
  /// "X" complete event: a slice [ts_us, ts_us + dur_us).
  void complete(std::uint64_t pid, std::uint64_t tid, const std::string& cat,
                const std::string& name, double ts_us, double dur_us, const Args& args = {});
  /// "i" thread-scoped instant event.
  void instant(std::uint64_t pid, std::uint64_t tid, const std::string& cat,
               const std::string& name, double ts_us, const Args& args = {});
  /// Close the traceEvents array and the enclosing object.
  void finish();

 private:
  void begin_event();
  void write_args(const Args& args);

  std::ostream& out_;
  bool first_ = true;
  bool finished_ = false;
};

/// Decision-event instants (one tid per machine, lane 0 for machine-less
/// events) on `pid` — the simulated clock domain.
void write_decision_events(PerfettoWriter& writer, const std::vector<DecisionEvent>& events,
                           std::uint64_t pid);
/// Host-clock policy-callback slices on `pid`; timestamps are nanoseconds
/// since the run's policy epoch, emitted as trace microseconds.
void write_policy_slices(PerfettoWriter& writer, const std::vector<PolicySlice>& slices,
                         std::uint64_t pid);

}  // namespace vmlp::obs
