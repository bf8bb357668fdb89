#include "app/dag.h"

#include <algorithm>
#include <set>

#include "common/error.h"

namespace vmlp::app {

Dag::Dag(std::size_t nodes) : n_(nodes), parents_(nodes), children_(nodes) {
  VMLP_CHECK_MSG(nodes > 0, "DAG needs at least one node");
}

void Dag::add_edge(std::size_t from, std::size_t to) {
  VMLP_CHECK_MSG(from < n_ && to < n_, "edge endpoint out of range");
  VMLP_CHECK_MSG(from != to, "self edge on node " << from);
  edges_.emplace_back(from, to);
  children_[from].push_back(to);
  parents_[to].push_back(from);
}

const std::vector<std::size_t>& Dag::children(std::size_t node) const {
  VMLP_CHECK(node < n_);
  return children_[node];
}

std::vector<std::size_t> Dag::topo_with_tiebreak(Rng* rng) const {
  std::vector<std::size_t> indegree(n_, 0);
  for (const auto& [from, to] : edges_) {
    (void)from;
    ++indegree[to];
  }
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < n_; ++i) {
    if (indegree[i] == 0) frontier.push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(n_);
  while (!frontier.empty()) {
    std::size_t pick_pos = 0;
    if (rng != nullptr && frontier.size() > 1) {
      pick_pos = static_cast<std::size_t>(
          rng->uniform_int(0, static_cast<std::int64_t>(frontier.size()) - 1));
    } else {
      pick_pos = static_cast<std::size_t>(
          std::min_element(frontier.begin(), frontier.end()) - frontier.begin());
    }
    const std::size_t node = frontier[pick_pos];
    frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(pick_pos));
    order.push_back(node);
    for (std::size_t child : children_[node]) {
      if (--indegree[child] == 0) frontier.push_back(child);
    }
  }
  VMLP_CHECK_MSG(order.size() == n_, "DAG contains a cycle");
  return order;
}

bool Dag::is_acyclic() const {
  try {
    (void)topo_with_tiebreak(nullptr);
    return true;
  } catch (const InvariantError&) {
    return false;
  }
}

std::vector<std::size_t> Dag::topo_order() const { return topo_with_tiebreak(nullptr); }

std::vector<std::vector<std::size_t>> Dag::chain_choices(std::size_t max_choices, Rng& rng) const {
  VMLP_CHECK(max_choices >= 1);
  std::set<std::vector<std::size_t>> unique;
  std::vector<std::vector<std::size_t>> out;
  const auto canonical = topo_order();
  unique.insert(canonical);
  out.push_back(canonical);
  // Sampling budget: a few tries per requested choice is enough in practice;
  // narrow DAGs simply yield fewer distinct linearizations.
  const std::size_t attempts = max_choices * 4;
  for (std::size_t i = 0; i < attempts && out.size() < max_choices; ++i) {
    auto order = topo_with_tiebreak(&rng);
    if (unique.insert(order).second) out.push_back(std::move(order));
  }
  return out;
}

bool Dag::reaches(std::size_t ancestor, std::size_t node) const {
  VMLP_CHECK(ancestor < n_ && node < n_);
  if (ancestor == node) return true;
  std::vector<bool> seen(n_, false);
  std::vector<std::size_t> stack{ancestor};
  seen[ancestor] = true;
  while (!stack.empty()) {
    const std::size_t cur = stack.back();
    stack.pop_back();
    for (std::size_t child : children_[cur]) {
      if (child == node) return true;
      if (!seen[child]) {
        seen[child] = true;
        stack.push_back(child);
      }
    }
  }
  return false;
}

}  // namespace vmlp::app
