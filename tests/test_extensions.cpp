// Extension subsystems: trace export, arrival-trace export, and
// background-interference injection.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "loadgen/replay.h"
#include "mlp/vmlp.h"
#include "sched/driver.h"
#include "trace/export.h"
#include "workloads/suite.h"

namespace vmlp {
namespace {

// ---- trace export ------------------------------------------------------

TEST(Export, JsonEscaping) {
  EXPECT_EQ(trace::json_escape("plain"), "plain");
  EXPECT_EQ(trace::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(trace::json_escape("x\ny"), "x\\ny");
  EXPECT_EQ(trace::json_escape(std::string("z\x01")), "z\\u0001");
}

TEST(Export, SpansJsonShape) {
  auto application = workloads::make_benchmark_suite();
  trace::Tracer tracer;
  tracer.on_request_arrival(RequestId(7), RequestTypeId(0), 100);
  tracer.record_span(trace::Span{RequestId(7), RequestTypeId(0), ServiceTypeId(0), InstanceId(1),
                                 MachineId(3), 1000, 5000});
  std::ostringstream os;
  trace::export_spans_json(tracer, *application, os);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("\"traceId\":\"7\""), std::string::npos);
  EXPECT_NE(out.find("\"timestamp\":1000"), std::string::npos);
  EXPECT_NE(out.find("\"duration\":4000"), std::string::npos);
  EXPECT_NE(out.find("\"serviceName\":\"nginx\""), std::string::npos);
  EXPECT_NE(out.find("\"requestType\":\"compose-post\""), std::string::npos);
}

TEST(Export, EmptyTracerGivesEmptyArray) {
  auto application = workloads::make_benchmark_suite();
  trace::Tracer tracer;
  std::ostringstream os;
  trace::export_spans_json(tracer, *application, os);
  EXPECT_EQ(os.str(), "[\n]\n");
}

TEST(Export, RequestsCsv) {
  auto application = workloads::make_benchmark_suite();
  trace::Tracer tracer;
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 100);
  tracer.on_request_arrival(RequestId(2), RequestTypeId(1), 200);
  tracer.on_request_completion(RequestId(1), 600);
  std::ostringstream os;
  trace::export_requests_csv(tracer, *application, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("request_id,type,arrival_us,completion_us,latency_us"), std::string::npos);
  EXPECT_NE(out.find("1,compose-post,100,600,500"), std::string::npos);
  EXPECT_NE(out.find("2,read-home-timeline,200,,"), std::string::npos);  // unfinished
}

TEST(Export, FileErrorsThrow) {
  auto application = workloads::make_benchmark_suite();
  trace::Tracer tracer;
  EXPECT_THROW(trace::export_spans_json_file(tracer, *application, "/nonexistent/dir/x.json"),
               ConfigError);
}

// ---- arrival replay ----------------------------------------------------

TEST(Replay, SaveWritesHeaderAndNamedRows) {
  auto application = workloads::make_benchmark_suite();
  const std::vector<loadgen::Arrival> arrivals{
      {100, RequestTypeId(0)}, {500, RequestTypeId(3)}, {200, RequestTypeId(1)}};
  std::ostringstream os;
  loadgen::save_arrivals_csv(arrivals, *application, os);
  // One row per arrival, in the given order, types by name.
  EXPECT_EQ(os.str(),
            "time_us,request_type\n"
            "100,compose-post\n"
            "500,getCheapest\n"
            "200,read-home-timeline\n");
}

// ---- interference injection ---------------------------------------------

TEST(Interference, BurstsInjectedAndCleaned) {
  auto application = workloads::make_benchmark_suite();
  mlp::VmlpScheduler scheduler;
  sched::DriverParams params;
  params.horizon = 10 * kSec;
  params.cluster.machine_count = 8;
  params.machines_per_rack = 4;
  params.seed = 44;
  params.interference.enabled = true;
  params.interference.events_per_second = 5.0;
  sched::SimulationDriver driver(*application, scheduler, params);
  const auto result = driver.run();  // no requests: pure interference churn
  (void)result;
  EXPECT_GT(driver.counters().interference_bursts, 20u);
  // All bursts expire eventually... those still alive at the horizon remain,
  // but none should exceed one per machine by a large factor.
  std::size_t residual = 0;
  for (const auto& m : driver.cluster().machines()) residual += m.container_count();
  EXPECT_LE(residual, driver.counters().interference_bursts);
}

TEST(Interference, DisturbsLatency) {
  auto run_with = [](bool interference) {
    auto application = workloads::make_benchmark_suite();
    mlp::VmlpScheduler scheduler;
    sched::DriverParams params;
    params.horizon = 10 * kSec;
    params.cluster.machine_count = 6;
    params.machines_per_rack = 3;
    params.seed = 45;
    params.interference.enabled = interference;
    params.interference.events_per_second = 10.0;
    params.interference.magnitude = 0.7;
    params.interference.duration_mean = kSec;
    sched::SimulationDriver driver(*application, scheduler, params);
    std::vector<loadgen::Arrival> arrivals;
    const auto compose = *application->find_request("compose-post");
    for (int i = 0; i < 200; ++i) arrivals.push_back({kMsec + i * 40 * kMsec, compose});
    driver.load_arrivals(arrivals);
    return driver.run();
  };
  const auto calm = run_with(false);
  const auto noisy = run_with(true);
  EXPECT_GT(noisy.p99_latency_us, calm.p99_latency_us);
}

TEST(Interference, DeterministicPerSeed) {
  auto run_once = [] {
    auto application = workloads::make_benchmark_suite();
    mlp::VmlpScheduler scheduler;
    sched::DriverParams params;
    params.horizon = 5 * kSec;
    params.cluster.machine_count = 4;
    params.machines_per_rack = 2;
    params.seed = 46;
    params.interference.enabled = true;
    sched::SimulationDriver driver(*application, scheduler, params);
    driver.run();
    return driver.counters().interference_bursts;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace vmlp
