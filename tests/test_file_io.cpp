// File-level IO paths: config files, arrival-trace files, export files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/config.h"
#include "common/error.h"
#include "loadgen/replay.h"
#include "trace/export.h"
#include "workloads/suite.h"

namespace vmlp {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/vmlp_" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(FileIo, ConfigRoundTripThroughDisk) {
  TempFile file("config.ini");
  {
    std::ofstream out(file.path());
    out << "# comment\n[run]\nscheme = v-MLP\nqps_scale = 1.5\n[cluster]\nmachines = 42\n";
  }
  const Config cfg = Config::parse_file(file.path());
  EXPECT_EQ(cfg.get_string("run.scheme", ""), "v-MLP");
  EXPECT_DOUBLE_EQ(cfg.get_double("run.qps_scale", 0.0), 1.5);
  EXPECT_EQ(cfg.get_int("cluster.machines", 0), 42);
}

TEST(FileIo, ArrivalTraceWritesOneRowPerArrival) {
  auto application = workloads::make_benchmark_suite();
  TempFile file("arrivals.csv");
  std::vector<loadgen::Arrival> arrivals;
  for (int i = 0; i < 50; ++i) {
    arrivals.push_back({i * 1000, RequestTypeId(static_cast<std::uint32_t>(i % 5))});
  }
  loadgen::save_arrivals_csv_file(arrivals, *application, file.path());
  std::ifstream in(file.path());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time_us,request_type");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ASSERT_LT(rows, arrivals.size());
    const loadgen::Arrival& a = arrivals[rows++];
    EXPECT_EQ(line, std::to_string(a.time) + "," + application->request(a.type).name());
  }
  EXPECT_EQ(rows, arrivals.size());
}

TEST(FileIo, ArrivalTraceUnwritablePathThrows) {
  auto application = workloads::make_benchmark_suite();
  EXPECT_THROW(loadgen::save_arrivals_csv_file({}, *application, "/nonexistent/dir/a.csv"),
               ConfigError);
}

TEST(FileIo, SpanExportWritesValidFile) {
  auto application = workloads::make_benchmark_suite();
  trace::Tracer tracer;
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 0);
  tracer.record_span({RequestId(1), RequestTypeId(0), ServiceTypeId(0), InstanceId(0),
                      MachineId(0), 10, 20});
  TempFile file("spans.json");
  trace::export_spans_json_file(tracer, *application, file.path());
  std::ifstream in(file.path());
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(content.front(), '[');
  EXPECT_NE(content.find("\"traceId\""), std::string::npos);
  // Balanced brackets at the shallow level.
  EXPECT_EQ(content.back(), '\n');
  EXPECT_EQ(content[content.size() - 2], ']');
}

TEST(FileIo, RequestCsvExportWritesHeader) {
  auto application = workloads::make_benchmark_suite();
  trace::Tracer tracer;
  TempFile file("reqs.csv");
  trace::export_requests_csv_file(tracer, *application, file.path());
  std::ifstream in(file.path());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "request_id,type,arrival_us,completion_us,latency_us");
}

}  // namespace
}  // namespace vmlp
