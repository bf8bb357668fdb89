// Request DAGs: topological sorting, chain choices, reachability.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "app/dag.h"
#include "common/error.h"

namespace vmlp::app {
namespace {

bool respects_dependencies(const Dag& dag, const std::vector<std::size_t>& order) {
  std::vector<std::size_t> position(dag.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const auto& [from, to] : dag.edges()) {
    if (position[from] >= position[to]) return false;
  }
  return true;
}

Dag diamond() {
  Dag d(4);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  return d;
}

TEST(Dag, SingleNode) {
  Dag d(1);
  EXPECT_TRUE(d.is_acyclic());
  EXPECT_EQ(d.topo_order(), std::vector<std::size_t>{0});
}

TEST(Dag, ZeroNodesThrows) { EXPECT_THROW(Dag(0), InvariantError); }

TEST(Dag, EdgeValidation) {
  Dag d(3);
  EXPECT_THROW(d.add_edge(0, 3), InvariantError);
  EXPECT_THROW(d.add_edge(1, 1), InvariantError);
}

TEST(Dag, DiamondStructure) {
  const Dag d = diamond();
  EXPECT_TRUE(d.is_acyclic());
  EXPECT_EQ(d.parents(3).size(), 2u);
  EXPECT_EQ(d.children(0).size(), 2u);
}

TEST(Dag, TopoOrderValid) {
  const Dag d = diamond();
  const auto order = d.topo_order();
  EXPECT_EQ(order.size(), 4u);
  EXPECT_TRUE(respects_dependencies(d, order));
  EXPECT_EQ(order.front(), 0u);
  EXPECT_EQ(order.back(), 3u);
}

TEST(Dag, TopoOrderCanonicalIsDeterministic) {
  const Dag d = diamond();
  EXPECT_EQ(d.topo_order(), d.topo_order());
  // Smallest-index tie-break: 1 before 2.
  EXPECT_EQ(d.topo_order(), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Dag, CycleDetected) {
  Dag d(3);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  d.add_edge(2, 0);
  EXPECT_FALSE(d.is_acyclic());
  EXPECT_THROW(d.topo_order(), InvariantError);
}

TEST(Dag, ChainChoicesAreDistinctValidLinearizations) {
  const Dag d = diamond();
  Rng rng(5);
  const auto chains = d.chain_choices(4, rng);
  ASSERT_GE(chains.size(), 1u);
  EXPECT_LE(chains.size(), 4u);
  std::set<std::vector<std::size_t>> unique(chains.begin(), chains.end());
  EXPECT_EQ(unique.size(), chains.size());
  for (const auto& chain : chains) {
    EXPECT_EQ(chain.size(), 4u);
    EXPECT_TRUE(respects_dependencies(d, chain));
  }
  // The diamond has exactly two linearizations; with 4 requested we should
  // find both.
  EXPECT_EQ(chains.size(), 2u);
}

TEST(Dag, ChainChoicesOfPureChainIsSingle) {
  Dag d(4);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  d.add_edge(2, 3);
  Rng rng(5);
  EXPECT_EQ(d.chain_choices(8, rng).size(), 1u);
}

TEST(Dag, ChainChoicesFirstIsCanonical) {
  const Dag d = diamond();
  Rng rng(9);
  EXPECT_EQ(d.chain_choices(3, rng).front(), d.topo_order());
}

TEST(Dag, Reaches) {
  const Dag d = diamond();
  EXPECT_TRUE(d.reaches(0, 3));
  EXPECT_TRUE(d.reaches(1, 3));
  EXPECT_TRUE(d.reaches(2, 2));  // self
  EXPECT_FALSE(d.reaches(3, 0));
  EXPECT_FALSE(d.reaches(1, 2));
}

TEST(Dag, DisconnectedComponents) {
  Dag d(4);
  d.add_edge(0, 1);
  // 2 and 3 isolated.
  EXPECT_TRUE(respects_dependencies(d, d.topo_order()));
}

TEST(Dag, WideFanoutCriticalPath) {
  Dag d(6);
  for (std::size_t i = 1; i < 6; ++i) d.add_edge(0, i);
  Rng rng(3);
  // 5! = 120 linearizations exist; we should find several distinct ones.
  EXPECT_GE(d.chain_choices(6, rng).size(), 3u);
}

}  // namespace
}  // namespace vmlp::app
