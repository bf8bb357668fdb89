// Directed acyclic graph over request nodes.
//
// A request's invoked microservices form a DAG (Fig. 1(b)); execution follows
// topological order, and Algorithm 1 considers m distinct chain choices c_j —
// topological linearizations — per request. Enumerating all linearizations is
// exponential, so chain_choices() samples distinct ones via randomized Kahn
// tie-breaking (deterministic given the Rng).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace vmlp::app {

class Dag {
 public:
  explicit Dag(std::size_t nodes);

  void add_edge(std::size_t from, std::size_t to);

  [[nodiscard]] std::size_t node_count() const { return n_; }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>& edges() const {
    return edges_;
  }
  [[nodiscard]] const std::vector<std::size_t>& parents(std::size_t node) const {
    VMLP_CHECK(node < n_);
    return parents_[node];
  }
  [[nodiscard]] const std::vector<std::size_t>& children(std::size_t node) const;

  /// True when the graph has no directed cycle.
  [[nodiscard]] bool is_acyclic() const;

  /// Canonical topological order (Kahn, smallest-index tie-break). Throws on
  /// cyclic graphs.
  [[nodiscard]] std::vector<std::size_t> topo_order() const;

  /// Up to `max_choices` distinct topological linearizations (the paper's
  /// chain choices c_j). The canonical order is always the first entry.
  [[nodiscard]] std::vector<std::vector<std::size_t>> chain_choices(std::size_t max_choices,
                                                                    Rng& rng) const;

  /// True if `ancestor` can reach `node` through directed edges.
  [[nodiscard]] bool reaches(std::size_t ancestor, std::size_t node) const;

 private:
  [[nodiscard]] std::vector<std::size_t> topo_with_tiebreak(Rng* rng) const;

  std::size_t n_;
  std::vector<std::pair<std::size_t, std::size_t>> edges_;
  std::vector<std::vector<std::size_t>> parents_;
  std::vector<std::vector<std::size_t>> children_;
};

}  // namespace vmlp::app
