#include "app/request_runtime.h"

#include "common/error.h"

namespace vmlp::app {

const char* node_state_name(NodeState s) {
  switch (s) {
    case NodeState::kWaiting: return "waiting";
    case NodeState::kReady: return "ready";
    case NodeState::kPlaced: return "placed";
    case NodeState::kRunning: return "running";
    case NodeState::kDone: return "done";
  }
  return "?";
}

RequestRuntime::RequestRuntime(const RequestType& type, RequestId id, SimTime arrival)
    : type_(&type), id_(id), arrival_(arrival), nodes_(type.size()) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].pending_parents = type.dag().parents(i).size();
    if (nodes_[i].pending_parents == 0) {
      nodes_[i].state = NodeState::kReady;
      nodes_[i].ready_at = arrival;
    }
  }
}

std::vector<std::size_t> RequestRuntime::ready_nodes() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].state == NodeState::kReady) out.push_back(i);
  }
  return out;
}

void RequestRuntime::mark_ready(std::size_t i, SimTime t) {
  NodeRuntime& n = node(i);
  VMLP_CHECK_MSG(n.state == NodeState::kWaiting,
                 "node " << i << " not waiting: " << node_state_name(n.state));
  VMLP_CHECK_MSG(n.pending_parents == 0, "node " << i << " still has unmet dependencies");
  n.state = NodeState::kReady;
  n.ready_at = t;
}

void RequestRuntime::mark_placed(std::size_t i, MachineId machine, InstanceId instance,
                                 SimTime planned_start) {
  NodeRuntime& n = node(i);
  VMLP_CHECK_MSG(n.state == NodeState::kWaiting || n.state == NodeState::kReady,
                 "placing node " << i << " in state " << node_state_name(n.state));
  n.state = NodeState::kPlaced;
  n.machine = machine;
  n.instance = instance;
  n.planned_start = planned_start;
}

void RequestRuntime::mark_running(std::size_t i, ContainerId container, SimTime t) {
  NodeRuntime& n = node(i);
  VMLP_CHECK_MSG(n.state == NodeState::kPlaced,
                 "starting node " << i << " in state " << node_state_name(n.state));
  VMLP_CHECK_MSG(n.pending_parents == 0, "starting node " << i << " before its dependencies");
  n.state = NodeState::kRunning;
  n.container = container;
  n.started_at = t;
}

void RequestRuntime::revert_placement(std::size_t i, SimTime t) {
  NodeRuntime& n = node(i);
  VMLP_CHECK_MSG(n.state == NodeState::kPlaced,
                 "reverting node " << i << " in state " << node_state_name(n.state));
  n.machine = MachineId::invalid();
  n.instance = InstanceId::invalid();
  n.planned_start = -1;
  if (n.pending_parents == 0) {
    n.state = NodeState::kReady;
    if (n.ready_at < 0) n.ready_at = t;
  } else {
    n.state = NodeState::kWaiting;
  }
}

void RequestRuntime::mark_failed(std::size_t i, SimTime t) {
  NodeRuntime& n = node(i);
  VMLP_CHECK_MSG(n.state == NodeState::kRunning,
                 "failing node " << i << " in state " << node_state_name(n.state));
  n.state = NodeState::kReady;
  n.machine = MachineId::invalid();
  n.instance = InstanceId::invalid();
  n.container = ContainerId::invalid();
  n.planned_start = -1;
  n.started_at = -1;
  n.ready_at = t;
}

std::vector<std::size_t> RequestRuntime::mark_done(std::size_t i, SimTime t) {
  NodeRuntime& n = node(i);
  VMLP_CHECK_MSG(n.state == NodeState::kRunning,
                 "finishing node " << i << " in state " << node_state_name(n.state));
  n.state = NodeState::kDone;
  n.finished_at = t;
  ++done_count_;

  std::vector<std::size_t> unblocked;
  for (std::size_t child : type_->dag().children(i)) {
    NodeRuntime& c = nodes_[child];
    VMLP_CHECK(c.pending_parents > 0);
    if (--c.pending_parents == 0) unblocked.push_back(child);
  }
  return unblocked;
}

bool RequestRuntime::independent_of_active(std::size_t i) const {
  const NodeRuntime& n = node(i);
  if (n.state != NodeState::kWaiting && n.state != NodeState::kReady) return false;
  for (std::size_t other = 0; other < nodes_.size(); ++other) {
    if (other == i) continue;
    const NodeState s = nodes_[other].state;
    const bool active = s == NodeState::kRunning || s == NodeState::kPlaced;
    if (active && type_->dag().reaches(other, i)) return false;
  }
  return true;
}

}  // namespace vmlp::app
