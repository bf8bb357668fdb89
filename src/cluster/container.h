// Container: one placed microservice invocation running on a machine, with
// cgroup-like resource limits (the Table III controllers). The limit is what
// the scheduler granted; the demand is what the service wants. Execution
// speed follows limit/demand through the execution model.
#pragma once

#include "cluster/resources.h"
#include "common/types.h"

namespace vmlp::cluster {

enum class ContainerState { kRunning, kSuspended };

class Container {
 public:
  Container(ContainerId id, InstanceId instance, MachineId machine, ResourceVector demand,
            ResourceVector limit);

  [[nodiscard]] ContainerId id() const { return id_; }
  [[nodiscard]] InstanceId instance() const { return instance_; }
  [[nodiscard]] MachineId machine() const { return machine_; }
  [[nodiscard]] const ResourceVector& demand() const { return demand_; }
  [[nodiscard]] const ResourceVector& limit() const { return limit_; }
  [[nodiscard]] ContainerState state() const { return state_; }

  /// Change resource limits (cgroups write). Returns the previous limit.
  ResourceVector set_limit(const ResourceVector& limit);

  void suspend() { state_ = ContainerState::kSuspended; }

  /// Resources the container effectively consumes right now: the full limit
  /// while running; while suspended, CPU and IO drop to a keep-alive trickle
  /// but resident memory stays mostly held — which is why the paper's
  /// execution/suspension demand ratios differ per resource type (Fig. 3(a)).
  [[nodiscard]] ResourceVector effective_usage() const;

  /// Suspended-state usage = max(floor, fraction × running usage) per
  /// resource: an idle container still burns a keep-alive baseline (health
  /// checks, heartbeats, page cache), so lighter services show smaller
  /// execution/suspension ratios — the per-service spread of Fig. 3(a).
  static constexpr double kSuspendedCpuFraction = 0.05;
  static constexpr double kSuspendedMemFraction = 0.60;
  static constexpr double kSuspendedIoFraction = 0.05;
  static constexpr double kSuspendedCpuFloor = 40.0;   // mC
  static constexpr double kSuspendedMemFloor = 96.0;   // MB
  static constexpr double kSuspendedIoFloor = 4.0;     // MB/s

 private:
  ContainerId id_;
  InstanceId instance_;
  MachineId machine_;
  ResourceVector demand_;
  ResourceVector limit_;
  ContainerState state_ = ContainerState::kRunning;
};

}  // namespace vmlp::cluster
