#include "trace/export.h"

#include <fstream>
#include <ostream>
#include <unordered_set>

#include "common/error.h"
#include "common/json.h"
#include "trace/critical_path.h"

namespace vmlp::trace {

std::string json_escape(const std::string& s) { return vmlp::json_escape(s); }

void export_spans_json(const Tracer& tracer, const app::Application& application,
                       std::ostream& out, const SpanExportOptions& options) {
  const auto by_request = group_by_request(tracer.spans());
  // Blocking-chain membership per finished request, when requested: the set
  // of spans whose phases carry the end-to-end latency.
  std::unordered_set<const Span*> critical;
  if (options.mark_critical) {
    for (const RequestRecord* rec : tracer.requests()) {
      const auto it = by_request.find(rec->id);
      if (!rec->finished() || it == by_request.end()) continue;
      const auto path = extract_critical_path(rec->arrival, *rec->completion, it->second);
      for (const CriticalStep& step : path.steps) critical.insert(step.span);
    }
  }
  // The Zipkin parent is the recorded blocking edge: the request's span of
  // this span's `blocking_parent` node (the later-recorded one on
  // duplicates, as the extractor keeps).
  auto parent_of = [&by_request](const Span& span) -> const Span* {
    if (span.node == Span::kNoNode || span.blocking_parent == Span::kNoNode) return nullptr;
    const Span* parent = nullptr;
    for (const Span* s : by_request.at(span.request)) {
      if (s->node == span.blocking_parent) parent = s;
    }
    return parent;
  };

  out << "[";
  bool first = true;
  for (const auto& span : tracer.spans()) {
    if (!first) out << ",";
    first = false;
    const auto& svc = application.service(span.service);
    const auto& req = application.request(span.request_type);
    out << "\n  {\"traceId\":\"" << span.request.value() << "\""
        << ",\"id\":\"" << span.instance.value() << "\"";
    if (const Span* parent = parent_of(span); parent != nullptr) {
      out << ",\"parentId\":\"" << parent->instance.value() << "\"";
    }
    out << ",\"name\":\"" << json_escape(svc.name) << "\""
        << ",\"kind\":\"SERVER\""
        << ",\"timestamp\":" << span.start << ",\"duration\":" << span.duration()
        << ",\"localEndpoint\":{\"serviceName\":\"" << json_escape(svc.name)
        << "\",\"ipv4\":\"10.0." << span.machine.value() / 256 << "."
        << span.machine.value() % 256 << "\"}"
        << ",\"tags\":{\"requestType\":\"" << json_escape(req.name()) << "\",\"machine\":\""
        << span.machine.value() << "\"";
    if (options.machines_per_rack > 0) {
      out << ",\"rack\":\"" << span.machine.value() / options.machines_per_rack << "\"";
    }
    if (critical.count(&span) != 0) out << ",\"critical\":\"true\"";
    out << "}}";
  }
  out << "\n]\n";
}

void export_spans_json_file(const Tracer& tracer, const app::Application& application,
                            const std::string& path, const SpanExportOptions& options) {
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot open for writing: " + path);
  export_spans_json(tracer, application, out, options);
  if (!out) throw ConfigError("write failed: " + path);
}

void export_requests_csv(const Tracer& tracer, const app::Application& application,
                         std::ostream& out) {
  out << "request_id,type,arrival_us,completion_us,latency_us\n";
  for (const auto* rec : tracer.requests()) {
    out << rec->id.value() << "," << application.request(rec->type).name() << ","
        << rec->arrival << ",";
    if (rec->finished()) {
      out << *rec->completion << "," << rec->latency();
    } else {
      out << ",";
    }
    out << "\n";
  }
}

void export_requests_csv_file(const Tracer& tracer, const app::Application& application,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot open for writing: " + path);
  export_requests_csv(tracer, application, out);
  if (!out) throw ConfigError("write failed: " + path);
}

}  // namespace vmlp::trace
