#include "sched/fair_sched.h"

#include <algorithm>

#include "sched/common.h"
#include "sched/driver.h"

namespace vmlp::sched {

void FairSched::on_request_arrival(RequestId id) {
  const ActiveRequest* ar = driver_->find_request(id);
  if (ar == nullptr) return;
  for (std::size_t node : ar->ready_nodes()) ready_.emplace_back(id, node);
  drain();
}

void FairSched::on_node_unblocked(RequestId id, std::size_t node) {
  ready_.emplace_back(id, node);
  drain();
}

void FairSched::on_tick() { drain(); }

void FairSched::drain() {
  while (!ready_.empty()) {
    const auto [id, node] = ready_.front();
    ready_.pop_front();
    const ActiveRequest* ar = driver_->find_request(id);
    if (ar == nullptr || ar->nodes[node].state >= NodeState::kPlaced) continue;

    const MachineId machine = machine_fewest_containers(driver_->cluster());
    if (!machine.valid()) {
      // Every machine is in a crash window: requeue and wait for a recovery
      // (the periodic tick re-drains).
      ready_.emplace_front(id, node);
      return;
    }
    const cluster::Machine& m = driver_->cluster().machine(machine);
    // Fair share: capacity split equally among the machine's occupants
    // (including the newcomer), floored so a crowded machine still makes
    // progress.
    const double occupants = static_cast<double>(m.container_count() + 1);
    const cluster::ResourceVector slice =
        m.capacity() * (1.0 / std::min(occupants, static_cast<double>(kSlotsPerMachine) * 2.0));
    const SimDuration est = estimate_mean_exec(*driver_, ar->type, node);
    driver_->place(id, node, machine, slice, driver_->now(), est);
  }
}

}  // namespace vmlp::sched
