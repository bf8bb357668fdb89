// Cluster: the set of simulated machines plus aggregate metrics
// (the U utilization metric of Section V-B).
#pragma once

#include <vector>

#include "cluster/cell_topology.h"
#include "cluster/machine.h"
#include "common/error.h"
#include "common/types.h"

namespace vmlp::cluster {

struct ClusterParams {
  std::size_t machine_count = 100;
  // 4-core worker nodes (Table IV.A's cluster averages 6 cores/node; smaller
  // nodes keep the paper's 1000 req/s peak in contention territory).
  ResourceVector machine_capacity{4000.0, 16384.0, 1000.0};
  /// Cell partition for the scale-out router (see cell_topology.h). The
  /// default single cell is byte-identical to the pre-topology flat cluster.
  CellTopologyParams topology;
};

class Cluster {
 public:
  explicit Cluster(const ClusterParams& params);

  [[nodiscard]] std::size_t machine_count() const { return machines_.size(); }
  // Inline: the admission probe loop resolves machines tens of millions of
  // times per contended run; an out-of-line call dominated the lookup.
  [[nodiscard]] Machine& machine(MachineId id) {
    VMLP_CHECK_MSG(id.valid() && id.value() < machines_.size(), "machine id out of range");
    return machines_[id.value()];
  }
  [[nodiscard]] const Machine& machine(MachineId id) const {
    VMLP_CHECK_MSG(id.valid() && id.value() < machines_.size(), "machine id out of range");
    return machines_[id.value()];
  }
  [[nodiscard]] std::vector<Machine>& machines() { return machines_; }
  [[nodiscard]] const std::vector<Machine>& machines() const { return machines_; }

  /// The paper's U: sum over nodes of (u_cpu+u_mem+u_io) divided by
  /// (#resource types × #nodes). In [0, 1].
  [[nodiscard]] double overall_utilization() const;

  /// Total capacity across the cluster.
  [[nodiscard]] ResourceVector total_capacity() const;

  /// Drop reservation-profile history before t on every machine.
  void compact_ledgers_before(SimTime t);

  /// Cell partition + router load counters + headroom summary index.
  [[nodiscard]] CellTopology& cells() { return cells_; }
  [[nodiscard]] const CellTopology& cells() const { return cells_; }

 private:
  std::vector<Machine> machines_;
  CellTopology cells_;
};

}  // namespace vmlp::cluster
