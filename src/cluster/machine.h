// Machine: one node of the simulated cluster — a capacity vector, the set of
// containers currently placed on it, and the reservation ledger describing
// its committed future.
#pragma once

#include <map>
#include <vector>

#include "cluster/container.h"
#include "cluster/reservation.h"
#include "cluster/resources.h"
#include "common/types.h"

namespace vmlp::cluster {

class Machine {
 public:
  Machine(MachineId id, ResourceVector capacity);

  [[nodiscard]] MachineId id() const { return id_; }
  [[nodiscard]] const ResourceVector& capacity() const { return capacity_; }

  /// Failure injection marks machines down for crash windows; schedulers must
  /// never select a down machine (sched/failure.h). Containers already on a
  /// crashing machine are purged by the driver, not here.
  [[nodiscard]] bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] ReservationLedger& ledger() { return ledger_; }
  [[nodiscard]] const ReservationLedger& ledger() const { return ledger_; }

  /// Place a container. Throws if the id already exists.
  Container& add_container(ContainerId id, InstanceId instance, const ResourceVector& demand,
                           const ResourceVector& limit);
  /// Remove a finished container. Throws if absent.
  void remove_container(ContainerId id);
  [[nodiscard]] Container* find_container(ContainerId id);
  [[nodiscard]] std::size_t container_count() const { return containers_.size(); }

  /// Sum of effective usage of the containers placed here, clamped to
  /// capacity (oversubscription shows up as allocation pressure, not as
  /// physically impossible consumption).
  [[nodiscard]] ResourceVector current_usage() const;
  /// Sum of granted limits (may exceed capacity under oversubscription).
  [[nodiscard]] ResourceVector allocated() const;
  /// Per-node efficiency term of the paper's U metric:
  /// (u_cpu + u_mem + u_io) with each u in [0,1].
  [[nodiscard]] double utilization_sum() const;

 private:
  MachineId id_;
  ResourceVector capacity_;
  bool up_ = true;
  ReservationLedger ledger_;
  // Ordered by ContainerId so usage/allocation sums accumulate in a stable
  // order — unordered iteration would make exported metrics depend on
  // rehash history (see tools/vmlp_lint.py, rule unordered-iter).
  std::map<ContainerId, Container> containers_;
};

}  // namespace vmlp::cluster
