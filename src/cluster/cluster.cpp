#include "cluster/cluster.h"

#include <cstdint>
#include <limits>

#include "common/error.h"

namespace vmlp::cluster {

Cluster::Cluster(const ClusterParams& params)
    : cells_(params.machine_count, params.topology) {
  VMLP_CHECK_MSG(params.machine_count > 0, "cluster needs machines");
  // MachineId's uint32 rep reserves its max value as the invalid sentinel;
  // ids are the machine indices, so the count must stay strictly below it.
  VMLP_CHECK_MSG(params.machine_count < std::numeric_limits<std::uint32_t>::max(),
                 "machine_count " << params.machine_count << " overflows MachineId");
  VMLP_CHECK_MSG(!params.machine_capacity.any_negative(), "negative machine capacity");
  machines_.reserve(params.machine_count);
  for (std::size_t i = 0; i < params.machine_count; ++i) {
    machines_.emplace_back(MachineId(static_cast<std::uint32_t>(i)), params.machine_capacity);
  }
}

// Aggregate folds iterate machines_ by ascending machine id — the vector's
// storage order, fixed at construction. Explicit accumulation order matters
// at 10k machines: float addition is not associative, and any order that
// depended on container rehash history or cell ranking would make exported
// aggregates run-dependent (tools/vmlp_analyze rule unordered-escape).

double Cluster::overall_utilization() const {
  double total = 0.0;
  for (const auto& m : machines_) total += m.utilization_sum();
  return total / (3.0 * static_cast<double>(machines_.size()));
}

ResourceVector Cluster::total_capacity() const {
  ResourceVector total;
  for (const auto& m : machines_) total += m.capacity();
  return total;
}

void Cluster::compact_ledgers_before(SimTime t) {
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    machines_[i].ledger().compact_before(t);
    // Compaction never moves free_fraction (the peak bound is untouched),
    // but it does bump the mutation epoch — notify the headroom index so
    // its audit-tier epoch cross-check stays exact.
    cells_.note_mutation(MachineId(static_cast<std::uint32_t>(i)), machines_[i]);
  }
}

}  // namespace vmlp::cluster
