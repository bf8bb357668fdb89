#include "cluster/machine.h"

#include "common/error.h"

namespace vmlp::cluster {

Machine::Machine(MachineId id, ResourceVector capacity)
    : id_(id), capacity_(capacity), ledger_(capacity) {
  VMLP_CHECK_MSG(id.valid(), "invalid machine id");
}

Container& Machine::add_container(ContainerId id, InstanceId instance,
                                  const ResourceVector& demand, const ResourceVector& limit) {
  auto [it, inserted] = containers_.emplace(
      id, Container(id, instance, id_, demand, limit));
  VMLP_CHECK_MSG(inserted, "container " << id.value() << " already on machine " << id_.value());
  return it->second;
}

void Machine::remove_container(ContainerId id) {
  VMLP_CHECK_MSG(containers_.erase(id) == 1,
                 "container " << id.value() << " not on machine " << id_.value());
}

Container* Machine::find_container(ContainerId id) {
  auto it = containers_.find(id);
  return it == containers_.end() ? nullptr : &it->second;
}

ResourceVector Machine::current_usage() const {
  ResourceVector usage;
  for (const auto& [_, c] : containers_) usage += c.effective_usage();
  return usage.min(capacity_);
}

ResourceVector Machine::allocated() const {
  ResourceVector total;
  for (const auto& [_, c] : containers_) total += c.limit();
  return total;
}

double Machine::utilization_sum() const { return current_usage().utilization_sum(capacity_); }

}  // namespace vmlp::cluster
