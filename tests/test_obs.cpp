// Observability layer: metrics registry, decision-event ring, collector
// families, exporter roundtrips (Prometheus, Perfetto, Zipkin), and the
// zero-perturbation guarantee (claim 6's unit-level form).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "exp/trial_runner.h"
#include "loadgen/generator.h"
#include "obs/collector.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "sched/driver.h"
#include "trace/export.h"
#include "trace/tracer.h"
#include "workloads/suite.h"

namespace vmlp {
namespace {

// ---- a minimal JSON parser for export->parse roundtrip checks ----------
//
// Just enough of RFC 8259 to validate what our exporters emit; throws
// std::runtime_error on anything malformed so a bad export fails the test.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] const std::string& get_str(const std::string& key) const {
    const JsonValue* v = get(key);
    if (v == nullptr || v->type != Type::kString) {
      throw std::runtime_error("missing string field: " + key);
    }
    return v->str;
  }
  [[nodiscard]] double get_num(const std::string& key) const {
    const JsonValue* v = get(key);
    if (v == nullptr || v->type != Type::kNumber) {
      throw std::runtime_error("missing number field: " + key);
    }
    return v->number;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    ws();
    if (i_ != s_.size()) throw std::runtime_error("trailing bytes after JSON value");
    return v;
  }

 private:
  void ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  char peek() {
    if (i_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected '") + c + "'");
    ++i_;
  }
  bool eat(const std::string& word) {
    if (s_.compare(i_, word.size(), word) != 0) return false;
    i_ += word.size();
    return true;
  }

  JsonValue value() {
    ws();
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      v.type = JsonValue::Type::kObject;
      ++i_;
      ws();
      if (peek() == '}') {
        ++i_;
        return v;
      }
      while (true) {
        ws();
        std::string key = string_body();
        ws();
        expect(':');
        v.fields.emplace_back(std::move(key), value());
        ws();
        if (peek() == ',') {
          ++i_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = JsonValue::Type::kArray;
      ++i_;
      ws();
      if (peek() == ']') {
        ++i_;
        return v;
      }
      while (true) {
        v.items.push_back(value());
        ws();
        if (peek() == ',') {
          ++i_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.str = string_body();
      return v;
    }
    if (eat("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (eat("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (eat("null")) return v;
    // Number.
    std::size_t start = i_;
    while (i_ < s_.size() && (std::string("+-.eE0123456789").find(s_[i_]) != std::string::npos)) {
      ++i_;
    }
    if (i_ == start) throw std::runtime_error("unexpected character in JSON");
    v.type = JsonValue::Type::kNumber;
    v.number = std::stod(s_.substr(start, i_ - start));
    return v;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= s_.size()) throw std::runtime_error("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) throw std::runtime_error("dangling escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) throw std::runtime_error("short \\u escape");
          const unsigned cp = static_cast<unsigned>(std::stoul(s_.substr(i_, 4), nullptr, 16));
          i_ += 4;
          // Our exporters only \u-escape codepoints below 0x20.
          if (cp >= 0x80) throw std::runtime_error("unexpected non-ASCII \\u escape");
          out += static_cast<char>(cp);
          break;
        }
        default: throw std::runtime_error("bad escape character");
      }
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// ---- registry ----------------------------------------------------------

TEST(ObsRegistry, CounterGaugeHistogramOps) {
  obs::Registry reg;
  const auto c = reg.add_counter("test.ops_total", "ops");
  const auto g = reg.add_gauge("test.depth_peak", "depth");
  const auto h = reg.add_histogram("test.wait_us", "waits", {10.0, 100.0});
  reg.count(c);
  reg.count(c, 4);
  reg.set_gauge(g, 2.0);
  reg.gauge_max(g, 7.0);
  reg.gauge_max(g, 3.0);  // below the peak: must not lower it
  reg.observe(h, 5.0);
  reg.observe(h, 10.0);   // boundary lands in its own bucket (le semantics)
  reg.observe(h, 50.0);
  reg.observe(h, 1000.0);  // overflow bucket
  EXPECT_EQ(reg.counter_value(c), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), 7.0);
  EXPECT_EQ(reg.metric_count(), 3u);

  const obs::Snapshot snap = reg.snapshot();
  const obs::MetricSnapshot* hist = snap.find("test.wait_us");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->hist.buckets.size(), 3u);
  EXPECT_EQ(hist->hist.buckets[0], 2u);
  EXPECT_EQ(hist->hist.buckets[1], 1u);
  EXPECT_EQ(hist->hist.buckets[2], 1u);
  EXPECT_EQ(hist->hist.count, 4u);
  EXPECT_DOUBLE_EQ(hist->hist.sum, 1065.0);
  EXPECT_EQ(snap.nonzero_count(), 3u);
}

TEST(ObsRegistry, RejectsOffStyleAndDuplicateNames) {
  obs::Registry reg;
  reg.add_counter("sub.noun_verb", "ok");
  // Style: >= 2 lowercase dot-separated components, [a-z][a-z0-9_]*.
  EXPECT_THROW(reg.add_counter("nodots", ""), InvariantError);
  EXPECT_THROW(reg.add_counter("Upper.case", ""), InvariantError);
  EXPECT_THROW(reg.add_counter("sub.", ""), InvariantError);
  EXPECT_THROW(reg.add_counter(".noun", ""), InvariantError);
  EXPECT_THROW(reg.add_counter("sub.noun-verb", ""), InvariantError);
  EXPECT_THROW(reg.add_counter("sub.1noun", ""), InvariantError);
  EXPECT_THROW(reg.add_counter("", ""), InvariantError);
  // Single registration site per name, regardless of kind.
  EXPECT_THROW(reg.add_counter("sub.noun_verb", ""), InvariantError);
  EXPECT_THROW(reg.add_gauge("sub.noun_verb", ""), InvariantError);
}

TEST(ObsRegistry, RejectsDegenerateHistogramBounds) {
  obs::Registry reg;
  EXPECT_THROW(reg.add_histogram("test.empty_bounds", "", {}), InvariantError);
  EXPECT_THROW(reg.add_histogram("test.unsorted_bounds", "", {10.0, 5.0}), InvariantError);
}

TEST(ObsRegistry, SnapshotMergeSemantics) {
  // Counters sum, gauges keep the peak, histogram buckets/count/sum add —
  // the fold the trial runner applies shard by shard.
  auto make = [](std::uint64_t n, double peak, double sample) {
    obs::Registry reg;
    const auto c = reg.add_counter("m.count_total", "");
    const auto g = reg.add_gauge("m.peak", "");
    const auto h = reg.add_histogram("m.lat_us", "", {10.0});
    reg.count(c, n);
    reg.set_gauge(g, peak);
    reg.observe(h, sample);
    return reg.snapshot();
  };
  obs::Snapshot a = make(3, 5.0, 4.0);
  a.merge_from(make(4, 2.0, 40.0));
  EXPECT_EQ(a.find("m.count_total")->counter, 7u);
  EXPECT_DOUBLE_EQ(a.find("m.peak")->gauge, 5.0);
  EXPECT_EQ(a.find("m.lat_us")->hist.buckets[0], 1u);
  EXPECT_EQ(a.find("m.lat_us")->hist.buckets[1], 1u);
  EXPECT_EQ(a.find("m.lat_us")->hist.count, 2u);
  EXPECT_DOUBLE_EQ(a.find("m.lat_us")->hist.sum, 44.0);
}

TEST(ObsRegistry, MergeRejectsLayoutMismatch) {
  obs::Registry a;
  a.add_counter("a.count_total", "");
  obs::Registry b;
  b.add_counter("b.count_total", "");
  obs::Snapshot sa = a.snapshot();
  EXPECT_THROW(sa.merge_from(b.snapshot()), InvariantError);
  obs::Registry two;
  two.add_counter("a.count_total", "");
  two.add_counter("a.other_total", "");
  EXPECT_THROW(sa.merge_from(two.snapshot()), InvariantError);
}

// ---- event ring --------------------------------------------------------

TEST(ObsEventRing, OverwritesOldestAndCountsDrops) {
  obs::EventRing ring(4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ring.push(obs::DecisionEvent{obs::DecisionKind::kCoalesce, static_cast<SimTime>(i),
                                 obs::DecisionEvent::kNoRequest, i,
                                 obs::DecisionEvent::kNoIndex, 0});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto got = ring.ordered();
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, i + 2) << "ring must keep the newest records, oldest first";
  }
}

TEST(ObsEventRing, ZeroCapacityOnlyCounts) {
  obs::EventRing ring(0);
  ring.push(obs::DecisionEvent{});
  ring.push(obs::DecisionEvent{});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.ordered().empty());
  EXPECT_EQ(ring.total_recorded(), 2u);
  EXPECT_EQ(ring.dropped(), 2u);
}

// ---- collector ---------------------------------------------------------

TEST(ObsCollector, RegistersAllFamiliesOnce) {
  obs::Collector collector(1);
  // The acceptance bar for one instrumented run is >= 25 distinct metrics;
  // registration alone must already provide the namespace for them across
  // every subsystem family.
  EXPECT_GE(collector.registry().metric_count(), 25u);
  const obs::Snapshot snap = collector.snapshot();
  for (const char* name :
       {"engine.events_executed", "driver.requests_arrived", "driver.latency_us",
        "failure.nodes_orphaned", "ledger.spans_tested", "mlp.stages_coalesced"}) {
    EXPECT_NE(snap.find(name), nullptr) << name;
  }
  // The counters perfbench (perfbench/vmlp_perfbench.cpp kCounterNames)
  // reads from every traced run; it exits when one is not registered.
  for (const char* name :
       {"engine.events_executed", "engine.events_rescheduled", "engine.events_cancelled",
        "driver.placements_committed", "driver.starts_denied", "driver.lates_fired",
        "failure.nodes_orphaned", "failure.retries_scheduled", "ledger.fits_queried",
        "ledger.spans_tested", "ledger.windows_reserved", "ledger.windows_released",
        "ledger.hints_hit", "ledger.hints_missed", "topology.stages_routed",
        "topology.index_jumps", "mlp.organize_calls", "mlp.plans_committed",
        "mlp.probes_spent", "mlp.probes_pruned", "mlp.orphans_relocated"}) {
    EXPECT_NE(snap.find(name), nullptr) << name;
  }
  // Attribution families: every band x (phase share + path stats).
  for (const char* band : {"low", "mid", "high"}) {
    for (const char* suffix : {"network_share", "queue_share", "exec_share",
                               "lost_exec_share", "backoff_share", "heal_share", "path_len",
                               "off_path_slack_us"}) {
      const std::string name = std::string("attribution.") + band + "." + suffix;
      EXPECT_NE(snap.find(name), nullptr) << name;
    }
  }
  collector.count(collector.mlp().probes_spent, 9);
  EXPECT_EQ(collector.counter_value(collector.mlp().probes_spent), 9u);
}

TEST(ObsCollector, PolicySlicesRespectCap) {
  obs::Collector collector(1);
  for (std::size_t i = 0; i < obs::kMaxPolicySlices + 3; ++i) {
    collector.policy_slice(obs::PolicyCallback::kArrival, static_cast<std::int64_t>(i) * 10, 3);
  }
  EXPECT_EQ(collector.policy_slices().size(), obs::kMaxPolicySlices);
  EXPECT_EQ(collector.policy_slices_dropped(), 3u);
}

// ---- json escaping (shared by all exporters) ---------------------------

TEST(ObsJson, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\ny\rz\tw"), "x\\ny\\rz\\tw");
  EXPECT_EQ(json_escape(std::string("a\bb")), "a\\u0008b");
  EXPECT_EQ(json_escape(std::string("a\x1f") + "b"), "a\\u001fb");
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
}

TEST(ObsJson, PassesUtf8Through) {
  // Multi-byte sequences are valid JSON string content as-is.
  const std::string utf8 = "caf\xc3\xa9 \xe2\x9c\x93";
  EXPECT_EQ(json_escape(utf8), utf8);
}

TEST(ObsJson, EscapedOutputSurvivesParserRoundtrip) {
  const std::string nasty = "q\"b\\s\nl\tt\x01 end";
  const std::string doc = "{\"k\":\"" + json_escape(nasty) + "\"}";
  const JsonValue v = JsonParser(doc).parse();
  EXPECT_EQ(v.get_str("k"), nasty);
}

// ---- Prometheus export -------------------------------------------------

TEST(ObsPrometheus, TextExpositionRoundtrip) {
  obs::Registry reg;
  reg.count(reg.add_counter("engine.events_executed", "events"), 42);
  reg.set_gauge(reg.add_gauge("engine.pending_peak", "peak"), 12.5);
  const auto h = reg.add_histogram("driver.latency_us", "latency", {10.0, 100.0});
  reg.observe(h, 5.0);
  reg.observe(h, 50.0);
  reg.observe(h, 60.0);
  reg.observe(h, 500.0);

  const std::string text = obs::prometheus_text(reg.snapshot());
  // Parse the exposition back line by line.
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  auto has = [&](const std::string& want) {
    for (const auto& l : lines) {
      if (l == want) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("# TYPE vmlp_engine_events_executed counter"));
  EXPECT_TRUE(has("vmlp_engine_events_executed 42"));
  EXPECT_TRUE(has("# TYPE vmlp_engine_pending_peak gauge"));
  EXPECT_TRUE(has("vmlp_engine_pending_peak 12.5"));
  // Histogram buckets are cumulative and the +Inf bucket equals _count.
  EXPECT_TRUE(has("vmlp_driver_latency_us_bucket{le=\"10\"} 1"));
  EXPECT_TRUE(has("vmlp_driver_latency_us_bucket{le=\"100\"} 3"));
  EXPECT_TRUE(has("vmlp_driver_latency_us_bucket{le=\"+Inf\"} 4"));
  EXPECT_TRUE(has("vmlp_driver_latency_us_sum 615"));
  EXPECT_TRUE(has("vmlp_driver_latency_us_count 4"));
  // Every sample line's name carries the vmlp_ prefix; HELP precedes TYPE.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("# TYPE ", 0) == 0) {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(lines[i - 1].rfind("# HELP ", 0), 0u);
    } else if (lines[i].rfind("#", 0) != 0) {
      EXPECT_EQ(lines[i].rfind("vmlp_", 0), 0u) << lines[i];
    }
  }
}

// ---- Perfetto export ---------------------------------------------------

TEST(ObsPerfetto, TraceRoundtripKeepsClockDomainsOnSeparatePids) {
  exp::ObsCapture capture;
  capture.enabled = true;
  trace::Span span{RequestId(7), RequestTypeId(0), ServiceTypeId(2), InstanceId(11),
                   MachineId(3), 1000, 5000};
  span.node = 1;
  capture.spans.push_back(span);
  capture.decisions.push_back(obs::DecisionEvent{obs::DecisionKind::kCoalesce, 1500, 7, 0,
                                                 obs::DecisionEvent::kNoIndex, 4});
  capture.decisions.push_back(obs::DecisionEvent{obs::DecisionKind::kCrash, 2000,
                                                 obs::DecisionEvent::kNoRequest,
                                                 obs::DecisionEvent::kNoIndex, 3, 0});
  capture.policy_slices.push_back(obs::PolicySlice{obs::PolicyCallback::kArrival, 4000, 2500});

  std::ostringstream os;
  exp::write_perfetto_trace(capture, os);
  const JsonValue root = JsonParser(os.str()).parse();
  EXPECT_EQ(root.get_str("displayTimeUnit"), "ms");
  const JsonValue* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);

  std::size_t metadata = 0;
  const JsonValue* exec = nullptr;
  const JsonValue* coalesce = nullptr;
  const JsonValue* crash = nullptr;
  const JsonValue* policy = nullptr;
  for (const JsonValue& e : events->items) {
    const std::string& ph = e.get_str("ph");
    if (ph == "M") {
      ++metadata;
      continue;
    }
    const std::string& name = e.get_str("name");
    if (name == "svc2") exec = &e;
    if (name == "coalesce") coalesce = &e;
    if (name == "crash") crash = &e;
    if (ph == "X" && e.get_num("pid") == 3.0) policy = &e;
  }
  EXPECT_EQ(metadata, 3u) << "one process_name record per clock-domain lane";

  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->get_str("ph"), "X");
  EXPECT_EQ(exec->get_num("pid"), 1.0);
  EXPECT_EQ(exec->get_num("tid"), 4.0);  // machine 3 -> lane 4
  EXPECT_EQ(exec->get_num("ts"), 1000.0);
  EXPECT_EQ(exec->get_num("dur"), 4000.0);
  EXPECT_EQ(exec->get("args")->get_str("request"), "7");
  EXPECT_EQ(exec->get("args")->get_str("node"), "1");

  ASSERT_NE(coalesce, nullptr);
  EXPECT_EQ(coalesce->get_str("ph"), "i");
  EXPECT_EQ(coalesce->get_str("s"), "t");
  EXPECT_EQ(coalesce->get_num("pid"), 2.0);
  EXPECT_EQ(coalesce->get_num("tid"), 0.0);  // machine-less decisions: lane 0
  EXPECT_EQ(coalesce->get_num("ts"), 1500.0);
  EXPECT_EQ(coalesce->get("args")->get_str("detail"), "4");

  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(crash->get_num("pid"), 2.0);
  EXPECT_EQ(crash->get_num("tid"), 4.0);

  // Host-clock slice: nanoseconds emitted as trace microseconds, own pid.
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->get_str("name"), "on_request_arrival");
  EXPECT_EQ(policy->get_num("ts"), 4.0);
  EXPECT_EQ(policy->get_num("dur"), 2.5);
}

TEST(ObsPerfetto, DisabledCaptureWritesEmptyValidTrace) {
  exp::ObsCapture capture;  // enabled defaults to false
  std::ostringstream os;
  exp::write_perfetto_trace(capture, os);
  const JsonValue root = JsonParser(os.str()).parse();
  ASSERT_NE(root.get("traceEvents"), nullptr);
  EXPECT_TRUE(root.get("traceEvents")->items.empty());
}

// ---- Zipkin export -----------------------------------------------------

TEST(ObsZipkin, SpansRoundtripWithParentIdAndRack) {
  auto application = workloads::make_benchmark_suite();
  const auto& dag = application->request(RequestTypeId(0)).dag();
  const auto& children = dag.children(0);
  ASSERT_FALSE(children.empty()) << "benchmark root must fan out";
  const auto child_node = static_cast<std::uint32_t>(children.front());

  trace::Tracer tracer;
  tracer.on_request_arrival(RequestId(7), RequestTypeId(0), 100);
  // One span per node, as the driver records: the root and one child that
  // the root's message unblocked.
  trace::Span root{RequestId(7), RequestTypeId(0), ServiceTypeId(0), InstanceId(2),
                   MachineId(41), 1500, 5000};
  root.node = 0;
  trace::Span child{RequestId(7), RequestTypeId(0), ServiceTypeId(1), InstanceId(3),
                    MachineId(5), 5200, 6000};
  child.node = child_node;
  child.blocking_parent = 0;
  tracer.record_span(root);
  tracer.record_span(child);

  std::ostringstream os;
  trace::SpanExportOptions options;
  options.machines_per_rack = 20;
  trace::export_spans_json(tracer, *application, os, options);
  const JsonValue spans = JsonParser(os.str()).parse();
  ASSERT_EQ(spans.type, JsonValue::Type::kArray);
  ASSERT_EQ(spans.items.size(), 2u);

  auto find_span = [&](const std::string& id) -> const JsonValue& {
    for (const JsonValue& s : spans.items) {
      if (s.get_str("id") == id) return s;
    }
    throw std::runtime_error("span not found: " + id);
  };
  // The root carries no parentId.
  EXPECT_EQ(find_span("2").get("parentId"), nullptr);
  const JsonValue& child_out = find_span("3");
  EXPECT_EQ(child_out.get_str("parentId"), "2");
  EXPECT_EQ(child_out.get_str("traceId"), "7");
  EXPECT_EQ(child_out.get_num("timestamp"), 5200.0);
  EXPECT_EQ(child_out.get_num("duration"), 800.0);
  // localEndpoint + rack tags (machine / machines_per_rack).
  EXPECT_FALSE(child_out.get("localEndpoint")->get_str("serviceName").empty());
  EXPECT_EQ(find_span("2").get("localEndpoint")->get_str("ipv4"), "10.0.0.41");
  EXPECT_EQ(find_span("2").get("tags")->get_str("rack"), "2");
  EXPECT_EQ(child_out.get("tags")->get_str("rack"), "0");
}

TEST(ObsZipkin, ParentIdIsTheBlockingParentNotTheLastToFinish) {
  // Diamond 0 -> {1, 2} -> 3. Node 1 finishes first but its message reaches
  // node 3 last (a slow link), so the driver records it as node 3's
  // blocking parent; node 2 finishes last. parentId must follow the
  // recorded edge, the one the critical-path extractor walks.
  app::Application application("diamond");
  std::vector<ServiceTypeId> svc;
  for (const char* name : {"a", "b", "c", "d"}) {
    svc.push_back(application.add_service(name, {100, 100, 10}, 10 * kMsec,
                                          app::ServiceClass{1, 1, 1},
                                          app::ResourceIntensity::kCpu));
  }
  auto builder = application.build_request("diamond");
  builder.node(svc[0]).node(svc[1]).node(svc[2]).node(svc[3]);
  builder.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
  const RequestTypeId rt = builder.commit();

  trace::Tracer tracer;
  tracer.on_request_arrival(RequestId(1), rt, 0);
  auto record = [&](std::uint32_t node, SimTime start, SimTime end, SimTime startable,
                    std::uint32_t blocking) {
    trace::Span s{RequestId(1), rt, svc[node], InstanceId(10 + node), MachineId(node), start,
                  end};
    s.node = node;
    s.startable_at = startable;
    s.blocking_parent = blocking;
    tracer.record_span(s);
  };
  record(0, 10, 100, 5, trace::Span::kNoNode);
  record(1, 110, 300, 105, 0);  // A: finishes first, message arrives at 400
  record(2, 110, 350, 105, 0);  // B: finishes last, message arrives at 360
  record(3, 420, 500, 400, 1);
  tracer.on_request_completion(RequestId(1), 500);

  std::ostringstream os;
  trace::SpanExportOptions options;
  options.mark_critical = true;
  trace::export_spans_json(tracer, application, os, options);
  const JsonValue spans = JsonParser(os.str()).parse();
  ASSERT_EQ(spans.items.size(), 4u);
  EXPECT_EQ(spans.items[0].get("parentId"), nullptr);
  EXPECT_EQ(spans.items[1].get_str("parentId"), "10");
  EXPECT_EQ(spans.items[2].get_str("parentId"), "10");
  EXPECT_EQ(spans.items[3].get_str("parentId"), "11") << "parent must be the blocking node 1";
  // The critical tags mark the same chain: 0 -> 1 -> 3.
  for (std::size_t i : {0u, 1u, 3u}) {
    ASSERT_NE(spans.items[i].get("tags")->get("critical"), nullptr) << "span " << i;
  }
  EXPECT_EQ(spans.items[2].get("tags")->get("critical"), nullptr);
}

TEST(ObsZipkin, DriverRunParentIdsFollowBlockingParentsAndCriticalSpansChain) {
  auto application = workloads::make_benchmark_suite();
  auto scheduler = exp::make_scheduler(exp::SchemeKind::kVmlp);
  sched::DriverParams p;
  p.horizon = 3 * kSec;
  p.cluster.machine_count = 10;
  p.machines_per_rack = 5;
  p.seed = 2022;
  sched::SimulationDriver driver(*application, *scheduler, p);
  loadgen::PatternParams pp;
  pp.horizon = p.horizon;
  pp.base_rate = 16.0;
  pp.max_rate = 48.0;
  pp.peak_time = p.horizon / 2;
  const auto pattern = loadgen::WorkloadPattern::make(loadgen::PatternKind::kL1Pulse, pp, 3);
  Rng rng(3);
  driver.load_arrivals(loadgen::generate_arrivals(
      pattern, loadgen::RequestMix::all(*application), rng));
  const sched::RunResult r = driver.run();
  ASSERT_GT(r.completed, 50u);

  std::ostringstream os;
  trace::SpanExportOptions options;
  options.mark_critical = true;
  trace::export_spans_json(driver.tracer(), *application, os, options);
  const JsonValue out = JsonParser(os.str()).parse();
  const std::vector<trace::Span>& spans = driver.tracer().spans();
  ASSERT_EQ(out.items.size(), spans.size());

  // Every non-root span's parentId is the instance of its blocking parent's
  // span (spans export in recorded order, one per DAG node).
  std::map<std::pair<std::uint64_t, std::uint32_t>, const trace::Span*> by_node;
  for (const trace::Span& s : spans) by_node[{s.request.value(), s.node}] = &s;
  std::size_t multi_parent = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const trace::Span& s = spans[i];
    const JsonValue* parent_id = out.items[i].get("parentId");
    const auto& parents = application->request(s.request_type).dag().parents(s.node);
    if (parents.size() >= 2) ++multi_parent;
    if (s.blocking_parent == trace::Span::kNoNode) {
      EXPECT_TRUE(parents.empty()) << "only roots lack a blocking parent";
      EXPECT_EQ(parent_id, nullptr);
      continue;
    }
    const trace::Span* parent = by_node.at({s.request.value(), s.blocking_parent});
    ASSERT_NE(parent_id, nullptr);
    EXPECT_EQ(parent_id->str, std::to_string(parent->instance.value()));
  }
  EXPECT_GT(multi_parent, 0u) << "the run must exercise nodes with two or more parents";

  // Each finished request's critical spans form one parentId chain from its
  // sink (latest end, ties to the lower node) to a root.
  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  struct Marked {
    std::vector<std::size_t> critical;  ///< indices into spans/out.items
    std::size_t sink = kUnset;
  };
  std::map<std::uint64_t, Marked> by_request;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Marked& m = by_request[spans[i].request.value()];
    if (m.sink == kUnset || spans[i].end > spans[m.sink].end ||
        (spans[i].end == spans[m.sink].end && spans[i].node < spans[m.sink].node)) {
      m.sink = i;
    }
    if (out.items[i].get("tags")->get("critical") != nullptr) m.critical.push_back(i);
  }
  std::size_t chains = 0;
  for (const trace::RequestRecord* rec : driver.tracer().requests()) {
    if (!rec->finished()) continue;
    const Marked& m = by_request.at(rec->id.value());
    ASSERT_FALSE(m.critical.empty()) << "request " << rec->id.value();
    std::map<std::string, std::size_t> critical_by_id;
    for (std::size_t i : m.critical) critical_by_id[out.items[i].get_str("id")] = i;
    ASSERT_EQ(critical_by_id.size(), m.critical.size());
    ASSERT_EQ(critical_by_id.count(out.items[m.sink].get_str("id")), 1u)
        << "the sink of request " << rec->id.value() << " is not marked critical";
    // Walk parentId from the sink: it must visit every critical span once and
    // stop at a root.
    std::size_t cur = m.sink;
    std::size_t visited = 1;
    while (const JsonValue* parent_id = out.items[cur].get("parentId")) {
      const auto it = critical_by_id.find(parent_id->str);
      ASSERT_TRUE(it != critical_by_id.end())
          << "request " << rec->id.value() << ": chain leaves the critical set";
      cur = it->second;
      ASSERT_LE(++visited, m.critical.size());
    }
    EXPECT_EQ(spans[cur].blocking_parent, trace::Span::kNoNode);
    EXPECT_EQ(visited, m.critical.size()) << "request " << rec->id.value();
    ++chains;
  }
  EXPECT_EQ(chains, r.completed);
}

TEST(ObsZipkin, NodelessSpansStayParentless) {
  // Spans recorded without a DAG node (the legacy shape) must export exactly
  // as before — no parentId, still parseable.
  auto application = workloads::make_benchmark_suite();
  trace::Tracer tracer;
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 0);
  tracer.record_span(trace::Span{RequestId(1), RequestTypeId(0), ServiceTypeId(0),
                                 InstanceId(1), MachineId(0), 10, 20});
  std::ostringstream os;
  trace::export_spans_json(tracer, *application, os);
  const JsonValue spans = JsonParser(os.str()).parse();
  ASSERT_EQ(spans.items.size(), 1u);
  EXPECT_EQ(spans.items[0].get("parentId"), nullptr);
  EXPECT_EQ(spans.items[0].get("tags")->get("rack"), nullptr);
}

TEST(ObsZipkin, ControlCharacterNamesRoundtripWithCriticalTags) {
  // Hostile microservice/request names — quotes, backslashes, newlines, raw
  // control bytes — must pass through json_escape on every dynamic tag value
  // and parse back verbatim; the critical-path tag rides along.
  const std::string svc_a = "front\"end\\ \n\x01svc";
  const std::string svc_b = "media\tworker \x1f\"q\"";
  const std::string req_name = "compose\rpost\x02";
  app::Application application("nasty");
  const auto a = application.add_service(svc_a, {100, 100, 10}, 10 * kMsec,
                                         app::ServiceClass{1, 1, 1},
                                         app::ResourceIntensity::kCpu);
  const auto b = application.add_service(svc_b, {100, 100, 10}, 10 * kMsec,
                                         app::ServiceClass{1, 1, 1},
                                         app::ResourceIntensity::kCpu);
  auto builder = application.build_request(req_name);
  builder.node(a).node(b).node(b);
  builder.edge(0, 1).edge(0, 2);
  const RequestTypeId rt = builder.commit();

  trace::Tracer tracer;
  tracer.on_request_arrival(RequestId(7), rt, 0);
  auto record = [&](std::uint32_t node, ServiceTypeId svc, SimTime start, SimTime end,
                    SimTime startable, std::uint32_t blocking) {
    trace::Span s{RequestId(7), rt, svc, InstanceId(node), MachineId(node), start, end};
    s.node = node;
    s.startable_at = startable;
    s.blocking_parent = blocking;
    tracer.record_span(s);
  };
  record(0, a, 10, 100, 5, trace::Span::kNoNode);
  record(1, b, 120, 400, 110, 0);  // slow arm: on the critical path
  record(2, b, 115, 200, 108, 0);  // fast arm: off-path
  tracer.on_request_completion(RequestId(7), 400);

  std::ostringstream os;
  trace::SpanExportOptions options;
  options.mark_critical = true;
  trace::export_spans_json(tracer, application, os, options);
  const JsonValue spans = JsonParser(os.str()).parse();
  ASSERT_EQ(spans.items.size(), 3u);
  for (const JsonValue& s : spans.items) {
    const std::string name = s.get_str("name");
    EXPECT_TRUE(name == svc_a || name == svc_b) << "escaped name must parse back verbatim";
    EXPECT_EQ(s.get("localEndpoint")->get_str("serviceName"), name);
    EXPECT_EQ(s.get("tags")->get_str("requestType"), req_name);
    const JsonValue* critical = s.get("tags")->get("critical");
    if (s.get_str("id") == "2") {
      EXPECT_EQ(critical, nullptr) << "off-path span must not be marked";
    } else {
      ASSERT_NE(critical, nullptr) << "blocking-chain span " << s.get_str("id");
      EXPECT_EQ(s.get("tags")->get_str("critical"), "true");
    }
  }
}

// ---- zero-perturbation (claim 6, unit-level) ---------------------------

exp::ExperimentConfig tiny_config() {
  exp::ExperimentConfig c;
  c.scheme = exp::SchemeKind::kVmlp;
  c.pattern = loadgen::PatternKind::kL1Pulse;
  c.stream = exp::StreamKind::kMixed;
  c.driver.horizon = 3 * kSec;
  c.driver.cluster.machine_count = 6;
  c.pattern_params.horizon = c.driver.horizon;
  c.pattern_params.base_rate = 12.0;
  c.pattern_params.max_rate = 24.0;
  c.pattern_params.peak_time = 1 * kSec;
  return c;
}

TEST(ObsPerturbation, CollectionDoesNotChangeResults) {
  exp::TrialSpec off;
  off.base = tiny_config();
  off.trials = 2;
  off.base_seed = 2022;
  exp::TrialSpec on = off;
  on.base.driver.obs.enabled = true;
  const std::string base = format_trial_set(run_trials(off, 1));
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(format_trial_set(run_trials(on, 1)), base)
      << "telemetry collection perturbed the run";
}

TEST(ObsPerturbation, InstrumentedRunPopulatesFamilies) {
  exp::ExperimentConfig config = tiny_config();
  config.driver.obs.enabled = true;
  config.seed = 2022;
  const exp::ExperimentResult r = exp::run_experiment(config);
  ASSERT_TRUE(r.obs.enabled);
  EXPECT_GE(r.obs.snapshot.nonzero_count(), 15u)
      << "an instrumented run should light up metrics across subsystems";
  for (const char* name : {"engine.events_executed", "driver.requests_arrived",
                           "ledger.fits_queried", "mlp.organize_calls"}) {
    const obs::MetricSnapshot* m = r.obs.snapshot.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_GT(m->counter, 0u) << name;
  }
  EXPECT_FALSE(r.obs.decisions.empty());
  EXPECT_FALSE(r.obs.spans.empty());
}

TEST(ObsPerturbation, MergedSnapshotStableAcrossThreadCounts) {
  exp::TrialSpec spec;
  spec.base = tiny_config();
  spec.base.driver.obs.enabled = true;
  spec.trials = 4;
  spec.base_seed = 2022;
  const exp::TrialSetResult serial = run_trials(spec, 1);
  ASSERT_TRUE(serial.obs_enabled);
  const std::string text = obs::prometheus_text(serial.obs);
  for (const std::size_t threads : {2u, 4u}) {
    const exp::TrialSetResult r = run_trials(spec, threads);
    EXPECT_EQ(obs::prometheus_text(r.obs), text)
        << "merged metrics diverged at " << threads << " threads";
  }
}

}  // namespace
}  // namespace vmlp
