// InterfaceLayer (Section III-D, Table III): the abstraction through which
// v-MLP's modules observe and actuate the system — the simulation analogue of
// docker-stats monitoring plus cgroups controllers, fed by tracing.
//
// It is deliberately the *only* surface the self-organizing / self-healing
// modules touch, mirroring the paper's layering between the request handler
// and the server hardware.
#pragma once

#include "cluster/resources.h"
#include "common/types.h"
#include "sched/driver.h"

namespace vmlp::mlp {

class InterfaceLayer {
 public:
  explicit InterfaceLayer(sched::SimulationDriver& driver) : driver_(&driver) {}

  // --- monitors (docker stats / cAdvisor analogues) ---------------------
  [[nodiscard]] SimTime now() const { return driver_->now(); }
  [[nodiscard]] const cluster::Cluster& cluster() const { return driver_->cluster(); }
  [[nodiscard]] cluster::Cluster& cluster() { return driver_->cluster(); }
  [[nodiscard]] const trace::ProfileStore& profiles() const {
    return const_cast<sched::SimulationDriver*>(driver_)->profiles();
  }
  [[nodiscard]] const app::Application& application() const { return driver_->application(); }
  [[nodiscard]] SimDuration expected_comm(MachineId a, MachineId b) const {
    return driver_->expected_comm(a, b);
  }
  [[nodiscard]] SimDuration expected_ingress() const { return driver_->expected_ingress(); }
  [[nodiscard]] std::vector<std::pair<RequestId, std::size_t>> running_on(MachineId m) const {
    return driver_->running_on(m);
  }
  [[nodiscard]] double volatility(RequestTypeId type) const { return driver_->volatility(type); }
  [[nodiscard]] const sched::ActiveRequest* find_request(RequestId id) const {
    return driver_->find_request(id);
  }
  /// Telemetry sink (nullptr when collection is off). Write-only by contract:
  /// modules may record decisions through it but must never read it back into
  /// a decision.
  [[nodiscard]] obs::Collector* observer() { return driver_->observer(); }

  // --- controllers (cgroups analogues) -----------------------------------
  /// cgroups cpuset / memory.limit_in_bytes / net_cls in one call.
  void set_container_limit(RequestId id, std::size_t node, const cluster::ResourceVector& limit) {
    driver_->adjust_limit(id, node, limit);
  }
  /// Commit a placement (reservation + planned start).
  void place(RequestId id, std::size_t node, MachineId machine,
             const cluster::ResourceVector& limit, SimTime planned_start,
             SimDuration reserve_duration) {
    driver_->place(id, node, machine, limit, planned_start, reserve_duration);
  }
  /// Free a pending node's reserved window (delay-slot vacancy reuse).
  void release_reservation(RequestId id, std::size_t node) {
    driver_->release_reservation(id, node);
  }

 private:
  sched::SimulationDriver* driver_;
};

}  // namespace vmlp::mlp
