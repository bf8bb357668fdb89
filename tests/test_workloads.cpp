// Workload models: SocialNetwork, TrainTicket, the combined suite, and the
// synthetic Alibaba trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "workloads/alibaba_trace.h"
#include "workloads/suite.h"

namespace vmlp::workloads {
namespace {

/// Nodes with no parents (entry services) and with no children (leaves).
std::size_t root_count(const app::Dag& dag) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < dag.node_count(); ++i) n += dag.parents(i).empty() ? 1 : 0;
  return n;
}
std::size_t sink_count(const app::Dag& dag) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < dag.node_count(); ++i) n += dag.children(i).empty() ? 1 : 0;
  return n;
}

/// Longest dependency chain, in nodes.
std::size_t chain_depth(const app::Dag& dag) {
  std::vector<std::size_t> depth(dag.node_count(), 1);
  for (std::size_t node : dag.topo_order()) {
    for (std::size_t parent : dag.parents(node)) {
      depth[node] = std::max(depth[node], depth[parent] + 1);
    }
  }
  return *std::max_element(depth.begin(), depth.end());
}

TEST(SocialNetwork, TwelveServicesThreeRequests) {
  SocialNetworkIds ids;
  auto sn = make_social_network(&ids);
  EXPECT_EQ(sn->service_count(), 12u);
  EXPECT_EQ(sn->request_count(), 3u);
  EXPECT_TRUE(ids.compose_post.valid());
}

TEST(SocialNetwork, TableVBands) {
  SocialNetworkIds ids;
  auto sn = make_social_network(&ids);
  EXPECT_EQ(sn->band(ids.compose_post), app::VolatilityBand::kHigh);
  EXPECT_EQ(sn->band(ids.read_home_timeline), app::VolatilityBand::kLow);
  EXPECT_EQ(sn->band(ids.read_user_timeline), app::VolatilityBand::kLow);
}

TEST(SocialNetwork, ComposePostIsFanOutFanIn) {
  SocialNetworkIds ids;
  auto sn = make_social_network(&ids);
  const auto& rt = sn->request(ids.compose_post);
  EXPECT_EQ(rt.size(), 9u);
  EXPECT_TRUE(rt.dag().is_acyclic());
  EXPECT_EQ(root_count(rt.dag()), 1u);  // nginx
  EXPECT_EQ(sink_count(rt.dag()), 1u);  // post-storage
  EXPECT_GT(chain_depth(rt.dag()), 3u);
}

TEST(SocialNetwork, ReadPathsAreShortChains) {
  SocialNetworkIds ids;
  auto sn = make_social_network(&ids);
  EXPECT_LE(sn->request(ids.read_home_timeline).size(), 4u);
  EXPECT_LE(sn->request(ids.read_user_timeline).size(), 3u);
}

TEST(SocialNetwork, SlosArePositiveAndOrdered) {
  SocialNetworkIds ids;
  auto sn = make_social_network(&ids);
  // The heavyweight write path gets a larger latency budget than reads.
  EXPECT_GT(sn->request(ids.compose_post).slo(), sn->request(ids.read_user_timeline).slo());
}

TEST(TrainTicket, TwelveServicesTwoRequests) {
  TrainTicketIds ids;
  auto tt = make_train_ticket(&ids);
  EXPECT_EQ(tt->service_count(), 12u);
  EXPECT_EQ(tt->request_count(), 2u);
}

TEST(TrainTicket, TableVBands) {
  TrainTicketIds ids;
  auto tt = make_train_ticket(&ids);
  EXPECT_EQ(tt->band(ids.get_cheapest), app::VolatilityBand::kHigh);
  EXPECT_EQ(tt->band(ids.basic_search), app::VolatilityBand::kMid);
}

TEST(TrainTicket, GetCheapestIsDeepChain) {
  TrainTicketIds ids;
  auto tt = make_train_ticket(&ids);
  const auto& rt = tt->request(ids.get_cheapest);
  EXPECT_EQ(chain_depth(rt.dag()), rt.size());  // pure chain
}

TEST(TrainTicket, Fig2ServicesPresent) {
  auto tt = make_train_ticket();
  for (const char* name : {"order", "seat", "travel", "route", "price", "basic"}) {
    EXPECT_TRUE(tt->find_service(name).has_value()) << name;
  }
  // "order" is the paper's worst-case variability example.
  const auto& order = tt->service(*tt->find_service("order"));
  EXPECT_EQ(order.cls.inner_variability, 3);
}

TEST(Suite, CombinesBothBenchmarks) {
  SuiteIds ids;
  auto suite = make_benchmark_suite(&ids);
  EXPECT_EQ(suite->service_count(), 24u);
  EXPECT_EQ(suite->request_count(), 5u);
  // All five Table V requests resolvable by name.
  for (const char* name : {"compose-post", "read-home-timeline", "read-user-timeline",
                           "getCheapest", "basicSearch"}) {
    EXPECT_TRUE(suite->find_request(name).has_value()) << name;
  }
}

TEST(Suite, CategoriesMatchTableV) {
  SuiteIds ids;
  auto suite = make_benchmark_suite(&ids);
  int high = 0, mid = 0, low = 0;
  for (const auto& rt : suite->requests()) {
    switch (suite->band(rt.id())) {
      case app::VolatilityBand::kHigh: ++high; break;
      case app::VolatilityBand::kMid: ++mid; break;
      case app::VolatilityBand::kLow: ++low; break;
    }
  }
  EXPECT_EQ(high, 2);  // compose-post, getCheapest
  EXPECT_EQ(mid, 1);   // basicSearch
  EXPECT_EQ(low, 2);   // both timeline reads
}

TEST(Suite, Deterministic) {
  auto a = make_benchmark_suite();
  auto b = make_benchmark_suite();
  ASSERT_EQ(a->request_count(), b->request_count());
  for (std::size_t i = 0; i < a->request_count(); ++i) {
    const RequestTypeId id(static_cast<std::uint32_t>(i));
    EXPECT_EQ(a->request(id).slo(), b->request(id).slo());
    EXPECT_DOUBLE_EQ(a->volatility(id), b->volatility(id));
  }
}

TEST(AlibabaTrace, ShapeAndBounds) {
  AlibabaTraceParams params;
  const auto trace = generate_alibaba_trace(params, 42);
  // 8 days of 5-minute samples.
  EXPECT_EQ(trace.sample_count(), 8u * 24u * 12u);
  for (double u : trace.utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  EXPECT_NEAR(trace.mean(), params.base_utilization, 0.08);
}

TEST(AlibabaTrace, HasFrequentSurges) {
  const auto trace = generate_alibaba_trace({}, 42);
  // Fig. 3(b): "significant fluctuations ... many peaks caused by frequent
  // traffic surges". Expect at least one surge peak per day on average.
  EXPECT_GE(trace.peaks_above(0.7), 8u);
  EXPECT_GT(trace.max(), 0.75);
}

TEST(AlibabaTrace, Deterministic) {
  const auto a = generate_alibaba_trace({}, 7);
  const auto b = generate_alibaba_trace({}, 7);
  EXPECT_EQ(a.utilization, b.utilization);
  const auto c = generate_alibaba_trace({}, 8);
  EXPECT_NE(a.utilization, c.utilization);
}

TEST(AlibabaTrace, ParamsRespected) {
  AlibabaTraceParams params;
  params.days = 2;
  params.sample_interval = 60 * kSec;
  const auto trace = generate_alibaba_trace(params, 1);
  EXPECT_EQ(trace.sample_count(), 2u * 24u * 60u);
  EXPECT_EQ(trace.sample_interval, 60 * kSec);
}

TEST(AlibabaTrace, BadParamsThrow) {
  AlibabaTraceParams params;
  params.days = 0;
  EXPECT_THROW(generate_alibaba_trace(params, 1), InvariantError);
  params = {};
  params.surge_len_hi = 0;
  EXPECT_THROW(generate_alibaba_trace(params, 1), InvariantError);
}

TEST(AlibabaTrace, DiurnalPatternVisible) {
  AlibabaTraceParams params;
  params.noise_sigma = 0.0;
  params.surge_prob = 0.0;
  const auto trace = generate_alibaba_trace(params, 1);
  // Without noise the curve must still move (the diurnal component).
  double lo = 1.0, hi = 0.0;
  for (double u : trace.utilization) {
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_GT(hi - lo, params.diurnal_amplitude);
}

}  // namespace
}  // namespace vmlp::workloads
