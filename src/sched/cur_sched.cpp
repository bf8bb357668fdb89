#include "sched/cur_sched.h"

#include "sched/common.h"
#include "sched/driver.h"

namespace vmlp::sched {

void CurSched::on_request_arrival(RequestId id) {
  const ActiveRequest* ar = driver_->find_request(id);
  if (ar == nullptr) return;
  for (std::size_t node : ar->ready_nodes()) ready_.emplace_back(id, node);
  drain();
}

void CurSched::on_node_unblocked(RequestId id, std::size_t node) {
  ready_.emplace_back(id, node);
  drain();
}

void CurSched::on_tick() { drain(); }

void CurSched::drain() {
  while (!ready_.empty()) {
    const auto [id, node] = ready_.front();
    ready_.pop_front();
    const ActiveRequest* ar = driver_->find_request(id);
    if (ar == nullptr || ar->nodes[node].state >= NodeState::kPlaced) continue;

    const MachineId machine = machine_lowest_utilization(driver_->cluster());
    if (!machine.valid()) {
      // Whole cluster down: requeue and wait for a recovery.
      ready_.emplace_front(id, node);
      return;
    }
    const auto& req_node = ar->type.nodes()[node];
    const auto& svc = driver_->application().service(req_node.service);
    const SimDuration est = estimate_mean_exec(*driver_, ar->type, node);
    driver_->place(id, node, machine, svc.demand, driver_->now(), est);
  }
}

}  // namespace vmlp::sched
