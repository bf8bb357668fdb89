// Application model: volatility, builders, execution model, runtime state.
#include <gtest/gtest.h>

#include <cmath>

#include "app/application.h"
#include "app/exec_model.h"
#include "app/request_runtime.h"
#include "app/volatility.h"
#include "common/error.h"
#include "stats/summary.h"

namespace vmlp::app {
namespace {

TEST(Volatility, FormulaMatchesPaper) {
  // V_r = α Σ I·S·C / n, α = 1/27.
  std::vector<ServiceClass> all_max(4, ServiceClass{3, 3, 3});
  EXPECT_NEAR(request_volatility(all_max), 1.0, 1e-12);

  std::vector<ServiceClass> all_min(2, ServiceClass{1, 1, 1});
  EXPECT_NEAR(request_volatility(all_min), 1.0 / 27.0, 1e-12);

  std::vector<ServiceClass> mixed{{3, 3, 3}, {1, 1, 1}};
  EXPECT_NEAR(request_volatility(mixed), (27.0 + 1.0) / 2.0 / 27.0, 1e-12);
}

TEST(Volatility, Bands) {
  EXPECT_EQ(volatility_band(0.0), VolatilityBand::kLow);
  EXPECT_EQ(volatility_band(0.29), VolatilityBand::kLow);
  EXPECT_EQ(volatility_band(0.3), VolatilityBand::kMid);
  EXPECT_EQ(volatility_band(0.7), VolatilityBand::kMid);
  EXPECT_EQ(volatility_band(0.71), VolatilityBand::kHigh);
  EXPECT_EQ(volatility_band(1.0), VolatilityBand::kHigh);
}

TEST(Volatility, InvalidInputsThrow) {
  EXPECT_THROW(request_volatility({}), InvariantError);
  EXPECT_THROW(request_volatility({ServiceClass{0, 1, 1}}), InvariantError);
  EXPECT_THROW(request_volatility({ServiceClass{1, 4, 1}}), InvariantError);
  EXPECT_THROW(volatility_band(1.5), InvariantError);
}

TEST(Volatility, BandNames) {
  EXPECT_STREQ(band_name(VolatilityBand::kLow), "low");
  EXPECT_STREQ(band_name(VolatilityBand::kHigh), "high");
}

class ApplicationTest : public ::testing::Test {
 protected:
  Application app_{"test-app"};
  ServiceTypeId a_ = app_.add_service("a", {100, 100, 10}, 10 * kMsec, ServiceClass{1, 1, 1},
                                      ResourceIntensity::kCpu);
  ServiceTypeId b_ = app_.add_service("b", {200, 100, 10}, 20 * kMsec, ServiceClass{3, 3, 3},
                                      ResourceIntensity::kIo);
};

TEST_F(ApplicationTest, ServiceLookup) {
  EXPECT_EQ(app_.service_count(), 2u);
  EXPECT_EQ(app_.service(a_).name, "a");
  EXPECT_EQ(app_.find_service("b"), b_);
  EXPECT_FALSE(app_.find_service("zzz").has_value());
  EXPECT_THROW((void)app_.service(ServiceTypeId(9)), InvariantError);
}

TEST_F(ApplicationTest, DuplicateServiceNameThrows) {
  EXPECT_THROW(app_.add_service("a", {1, 1, 1}, 1, ServiceClass{1, 1, 1},
                                ResourceIntensity::kCpu),
               InvariantError);
}

TEST_F(ApplicationTest, InvalidServiceThrows) {
  EXPECT_THROW(app_.add_service("bad-class", {1, 1, 1}, 1, ServiceClass{0, 1, 1},
                                ResourceIntensity::kCpu),
               InvariantError);
  EXPECT_THROW(app_.add_service("bad-time", {1, 1, 1}, 0, ServiceClass{1, 1, 1},
                                ResourceIntensity::kCpu),
               InvariantError);
  EXPECT_THROW(app_.add_service("bad-demand", {0, 0, 0}, 1, ServiceClass{1, 1, 1},
                                ResourceIntensity::kCpu),
               InvariantError);
}

TEST_F(ApplicationTest, RequestBuilderChain) {
  auto builder = app_.build_request("r");
  builder.node(a_).node(b_).node(a_, 2.0).chain({0, 1, 2});
  const RequestTypeId id = builder.commit();
  const RequestType& rt = app_.request(id);
  EXPECT_EQ(rt.size(), 3u);
  EXPECT_EQ(rt.dag().edge_count(), 2u);
  EXPECT_DOUBLE_EQ(rt.nodes()[2].time_scale, 2.0);
  EXPECT_EQ(app_.find_request("r"), id);
}

TEST_F(ApplicationTest, DefaultSloDerivedFromCriticalPath) {
  auto builder = app_.build_request("r");
  builder.node(a_).node(b_).chain({0, 1});
  const RequestTypeId id = builder.commit();
  // nominal path = 10ms + 2ms comm + 20ms = 32ms; SLO = 5x.
  EXPECT_EQ(app_.request(id).slo(), 160 * kMsec);
}

TEST_F(ApplicationTest, NominalE2eUsesLongestPath) {
  auto builder = app_.build_request("fanout");
  builder.node(a_).node(a_).node(b_).edge(0, 1).edge(0, 2);
  const RequestTypeId id = builder.commit();
  // Longest path: a (10) + comm(2) + b (20) = 32ms.
  EXPECT_EQ(app_.nominal_e2e(id, 2 * kMsec), 32 * kMsec);
}

TEST_F(ApplicationTest, VolatilityOfRequest) {
  auto builder = app_.build_request("r");
  builder.node(a_).node(b_).chain({0, 1});
  const RequestTypeId id = builder.commit();
  EXPECT_NEAR(app_.volatility(id), (1.0 + 27.0) / 2.0 / 27.0, 1e-12);
  EXPECT_EQ(app_.band(id), VolatilityBand::kMid);
}

TEST_F(ApplicationTest, CyclicRequestThrows) {
  auto builder = app_.build_request("cyc");
  builder.node(a_).node(b_).edge(0, 1).edge(1, 0);
  EXPECT_THROW(builder.commit(), InvariantError);
}

TEST_F(ApplicationTest, DuplicateRequestNameThrows) {
  auto b1 = app_.build_request("dup");
  b1.node(a_);
  b1.commit();
  EXPECT_THROW(app_.build_request("dup"), InvariantError);
}

TEST(ExecModel, RateOneAtFullAllocation) {
  ExecModel model;
  MicroserviceType type{ServiceTypeId(0), "t", {1000, 500, 100}, 10 * kMsec,
                        ServiceClass{2, 2, 2}, ResourceIntensity::kCpu};
  EXPECT_DOUBLE_EQ(model.rate(type, type.demand), 1.0);
  EXPECT_DOUBLE_EQ(model.bottleneck(type, type.demand), 1.0);
  // Over-allocation does not speed beyond 1.
  EXPECT_DOUBLE_EQ(model.rate(type, type.demand * 2.0), 1.0);
}

TEST(ExecModel, RateDropsWithCapping) {
  ExecModel model;
  MicroserviceType type{ServiceTypeId(0), "t", {1000, 500, 100}, 10 * kMsec,
                        ServiceClass{2, 2, 2}, ResourceIntensity::kCpu};
  const double half = model.rate(type, {500, 500, 100});
  EXPECT_NEAR(half, 0.5, 1e-9);  // S=2: rate = f^-1
  const double quarter = model.rate(type, {250, 500, 100});
  EXPECT_NEAR(quarter, 0.25, 1e-9);
}

TEST(ExecModel, SensitivityClassesOrdering) {
  ExecModel model;
  const cluster::ResourceVector demand{1000, 500, 100};
  const cluster::ResourceVector half{500, 500, 100};
  MicroserviceType s1{ServiceTypeId(0), "s1", demand, 10 * kMsec, ServiceClass{1, 1, 1},
                      ResourceIntensity::kCpu};
  MicroserviceType s2{ServiceTypeId(1), "s2", demand, 10 * kMsec, ServiceClass{1, 2, 1},
                      ResourceIntensity::kCpu};
  MicroserviceType s3{ServiceTypeId(2), "s3", demand, 10 * kMsec, ServiceClass{1, 3, 1},
                      ResourceIntensity::kCpu};
  // Fig. 3(c): less sensitive services are barely affected; highly sensitive
  // ones are hit hardest.
  EXPECT_GT(model.rate(s1, half), model.rate(s2, half));
  EXPECT_GT(model.rate(s2, half), model.rate(s3, half));
  EXPECT_GT(model.rate(s1, half), 0.75);
}

TEST(ExecModel, InnerVariabilityClassesMatchFig2) {
  ExecModel model;
  Rng rng(3);
  const cluster::ResourceVector demand{1000, 500, 100};
  for (int cls = 1; cls <= 3; ++cls) {
    MicroserviceType type{ServiceTypeId(0), "t", demand, 10 * kMsec,
                          ServiceClass{cls, 1, 1}, ResourceIntensity::kCpu};
    stats::Summary s;
    for (int i = 0; i < 20000; ++i) {
      s.add(static_cast<double>(model.sample_work(type, 1.0, rng)));
    }
    EXPECT_NEAR(s.mean(), 10000.0, 200.0) << "I=" << cls;
    const double cv = s.stddev() / s.mean();
    // Section II-A: low <15% worst-case variation, mid 15-45%, high >45%.
    if (cls == 1) { EXPECT_LT(cv, 0.06); }
    if (cls == 2) { EXPECT_NEAR(cv, 0.10, 0.02); }
    if (cls == 3) { EXPECT_GT(cv, 0.2); }
  }
}

TEST(ExecModel, RequestScaleMultiplies) {
  ExecModel model;
  Rng rng(5);
  MicroserviceType type{ServiceTypeId(0), "t", {1000, 500, 100}, 10 * kMsec,
                        ServiceClass{1, 1, 1}, ResourceIntensity::kCpu};
  stats::Summary s;
  for (int i = 0; i < 5000; ++i) {
    s.add(static_cast<double>(model.sample_work(type, 2.0, rng)));
  }
  EXPECT_NEAR(s.mean(), 20000.0, 500.0);
}

TEST(ExecModel, HighSensitivityContentionWidensDistribution) {
  ExecModel model;
  Rng rng1(7), rng2(7);
  MicroserviceType type{ServiceTypeId(0), "t", {1000, 500, 100}, 10 * kMsec,
                        ServiceClass{1, 3, 1}, ResourceIntensity::kCpu};
  stats::Summary full, capped;
  for (int i = 0; i < 20000; ++i) {
    full.add(static_cast<double>(model.sample_duration(type, 1.0, type.demand, rng1)));
    capped.add(static_cast<double>(model.sample_duration(type, 1.0, {500, 500, 100}, rng2)));
  }
  // Fig. 3(c) highly-variable class: capping raises mean AND variance.
  EXPECT_GT(capped.mean(), full.mean() * 1.8);
  EXPECT_GT(capped.stddev(), full.stddev() * 1.8);
}

TEST(ExecModel, SampleDurationPositive) {
  ExecModel model;
  Rng rng(9);
  MicroserviceType type{ServiceTypeId(0), "t", {10, 10, 10}, 1, ServiceClass{3, 3, 3},
                        ResourceIntensity::kCpu};
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(model.sample_duration(type, 1.0, {1, 1, 1}, rng), 1);
  }
}

TEST(ExecModel, BadInputsThrow) {
  ExecModel model;
  Rng rng(1);
  MicroserviceType type{ServiceTypeId(0), "t", {10, 10, 10}, 10, ServiceClass{1, 1, 1},
                        ResourceIntensity::kCpu};
  EXPECT_THROW((void)model.sample_work(type, 0.0, rng), InvariantError);
  MicroserviceType no_time = type;
  no_time.nominal_time = 0;
  EXPECT_THROW((void)model.sample_work(no_time, 1.0, rng), InvariantError);
}

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() {
    auto builder = app_.build_request("diamond");
    builder.node(s_).node(s_).node(s_).node(s_).edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
    type_ = builder.commit();
  }
  Application app_{"rt"};
  ServiceTypeId s_ = app_.add_service("s", {10, 10, 10}, 10, ServiceClass{1, 1, 1},
                                      ResourceIntensity::kCpu);
  RequestTypeId type_;
};

TEST_F(RuntimeTest, RootsStartReady) {
  RequestRuntime rt(app_.request(type_), RequestId(1), 100);
  EXPECT_EQ(rt.ready_nodes(), std::vector<std::size_t>{0});
  EXPECT_EQ(rt.node(0).ready_at, 100);
  EXPECT_FALSE(rt.finished());
}

TEST_F(RuntimeTest, LifecycleAndUnblocking) {
  RequestRuntime rt(app_.request(type_), RequestId(1), 0);
  rt.mark_placed(0, MachineId(0), InstanceId(0), 10);
  rt.mark_running(0, ContainerId(0), 12);
  auto unblocked = rt.mark_done(0, 20);
  EXPECT_EQ(unblocked.size(), 2u);  // 1 and 2

  for (std::size_t n : unblocked) rt.mark_ready(n, 21);
  rt.mark_placed(1, MachineId(1), InstanceId(1), 22);
  rt.mark_running(1, ContainerId(1), 23);
  EXPECT_TRUE(rt.mark_done(1, 30).empty());  // 3 still blocked by 2

  rt.mark_placed(2, MachineId(2), InstanceId(2), 22);
  rt.mark_running(2, ContainerId(2), 24);
  unblocked = rt.mark_done(2, 31);
  EXPECT_EQ(unblocked, std::vector<std::size_t>{3});

  rt.mark_ready(3, 32);
  rt.mark_placed(3, MachineId(0), InstanceId(3), 33);
  rt.mark_running(3, ContainerId(3), 34);
  rt.mark_done(3, 40);
  EXPECT_TRUE(rt.finished());
  EXPECT_EQ(rt.done_count(), 4u);
  EXPECT_EQ(rt.node(3).finished_at, 40);
}

TEST_F(RuntimeTest, IllegalTransitionsThrow) {
  RequestRuntime rt(app_.request(type_), RequestId(1), 0);
  EXPECT_THROW(rt.mark_running(0, ContainerId(0), 5), InvariantError);  // not placed
  EXPECT_THROW(rt.mark_done(0, 5), InvariantError);                     // not running
  EXPECT_THROW(rt.mark_ready(3, 5), InvariantError);  // dependencies unmet
  rt.mark_placed(0, MachineId(0), InstanceId(0), 1);
  EXPECT_THROW(rt.mark_placed(0, MachineId(0), InstanceId(0), 1), InvariantError);
}

TEST_F(RuntimeTest, IndependentOfActive) {
  RequestRuntime rt(app_.request(type_), RequestId(1), 0);
  // Root running: everything downstream depends on it.
  rt.mark_placed(0, MachineId(0), InstanceId(0), 1);
  rt.mark_running(0, ContainerId(0), 1);
  EXPECT_FALSE(rt.independent_of_active(1));
  EXPECT_FALSE(rt.independent_of_active(3));

  rt.mark_done(0, 5);
  // Now 1 and 2 are ready and independent of each other.
  rt.mark_ready(1, 5);
  rt.mark_ready(2, 5);
  EXPECT_TRUE(rt.independent_of_active(1));
  rt.mark_placed(1, MachineId(0), InstanceId(1), 6);
  // 2 is independent of 1 (no path), but 3 depends on placed node 1.
  EXPECT_TRUE(rt.independent_of_active(2));
  EXPECT_FALSE(rt.independent_of_active(3));
  // Active/done nodes are never candidates.
  EXPECT_FALSE(rt.independent_of_active(0));
  EXPECT_FALSE(rt.independent_of_active(1));
}

}  // namespace
}  // namespace vmlp::app
