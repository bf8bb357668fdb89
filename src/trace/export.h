// Trace and result export: Zipkin-v2-style JSON spans and CSV tables.
//
// The simulator's tracer plays the role of the paper's Zipkin/Jaeger
// deployment; exporting its spans in the Zipkin JSON shape lets standard
// trace tooling consume simulated runs, and CSV export feeds plotting
// scripts for the figure reproductions.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "app/application.h"
#include "trace/tracer.h"

namespace vmlp::trace {

/// Knobs for the Zipkin span export that the tracer itself cannot know.
struct SpanExportOptions {
  /// Rack width of the simulated topology. When positive, each span gets a
  /// `rack` tag (machine / machines_per_rack) next to its `machine` tag so
  /// trace tooling can group lanes the way the cluster is cabled.
  std::size_t machines_per_rack = 0;
  /// Run the critical-path extractor over each finished request and tag its
  /// blocking-chain spans `"critical":"true"`, so Zipkin/Jaeger can filter
  /// straight to the latency-carrying path (same chain the attribution
  /// report blames).
  bool mark_critical = false;
};

/// Write all spans as a Zipkin v2 JSON array:
/// [{"traceId","id","parentId","name","timestamp","duration",
///   "localEndpoint":{...},"tags":{...}}...].
/// Timestamps are simulated microseconds. `parentId` links each span to the
/// same request's span of its `blocking_parent` node — the parent whose
/// message arrived last, the edge the critical-path extractor walks — so
/// Zipkin/Jaeger render the request as a tree whose `critical` spans form
/// one parent chain; root spans and spans recorded without a node index
/// omit it.
void export_spans_json(const Tracer& tracer, const app::Application& application,
                       std::ostream& out, const SpanExportOptions& options = {});

/// Convenience: export to a file. Throws ConfigError on IO failure.
void export_spans_json_file(const Tracer& tracer, const app::Application& application,
                            const std::string& path, const SpanExportOptions& options = {});

/// Write completed requests as CSV:
/// request_id,type,arrival_us,completion_us,latency_us.
void export_requests_csv(const Tracer& tracer, const app::Application& application,
                         std::ostream& out);

void export_requests_csv_file(const Tracer& tracer, const app::Application& application,
                              const std::string& path);

/// Minimal JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

}  // namespace vmlp::trace
