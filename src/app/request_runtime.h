// RequestRuntime: the execution state machine of one in-flight request.
//
// Tracks per-node lifecycle (waiting → ready → placed → running → done),
// dependency counts, and per-node placement/timestamps. Shared by every
// scheduler; scheduling *policy* stays out of this class.
#pragma once

#include <vector>

#include "app/application.h"
#include "common/error.h"
#include "common/types.h"

namespace vmlp::app {

enum class NodeState { kWaiting, kReady, kPlaced, kRunning, kDone };

const char* node_state_name(NodeState s);

struct NodeRuntime {
  NodeState state = NodeState::kWaiting;
  std::size_t pending_parents = 0;
  MachineId machine;          ///< valid once placed
  InstanceId instance;        ///< valid once placed
  ContainerId container;      ///< valid while running
  SimTime ready_at = -1;      ///< when all parents finished + comm arrived
  SimTime planned_start = -1; ///< scheduler's predicted start (v-MLP)
  SimTime started_at = -1;
  SimTime finished_at = -1;
};

class RequestRuntime {
 public:
  RequestRuntime(const RequestType& type, RequestId id, SimTime arrival);

  [[nodiscard]] RequestId id() const { return id_; }
  [[nodiscard]] const RequestType& type() const { return *type_; }
  [[nodiscard]] SimTime arrival() const { return arrival_; }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const NodeRuntime& node(std::size_t i) const {
    VMLP_CHECK(i < nodes_.size());
    return nodes_[i];
  }
  [[nodiscard]] NodeRuntime& node(std::size_t i) {
    VMLP_CHECK(i < nodes_.size());
    return nodes_[i];
  }

  /// Nodes currently in kReady state (dependencies met, not yet placed).
  [[nodiscard]] std::vector<std::size_t> ready_nodes() const;
  /// All nodes done?
  [[nodiscard]] bool finished() const { return done_count_ == nodes_.size(); }
  [[nodiscard]] std::size_t done_count() const { return done_count_; }

  /// Mark a node ready (roots become ready at arrival automatically).
  void mark_ready(std::size_t i, SimTime t);
  /// Record placement (reservation made; not running yet).
  void mark_placed(std::size_t i, MachineId machine, InstanceId instance, SimTime planned_start);
  /// Record actual start.
  void mark_running(std::size_t i, ContainerId container, SimTime t);
  /// Undo a placement that never started (self-healing relocates late
  /// invocations): back to kReady when dependencies are met, kWaiting
  /// otherwise.
  void revert_placement(std::size_t i, SimTime t);
  /// A running execution was lost (machine crash, container fault, or
  /// invocation timeout): back to kReady for re-placement. Dependencies stay
  /// satisfied; completed work is discarded.
  void mark_failed(std::size_t i, SimTime t);
  /// Record completion; returns children whose dependencies are now all met
  /// (they are NOT auto-marked ready — communication delay happens first).
  std::vector<std::size_t> mark_done(std::size_t i, SimTime t);

  /// A node is a delay-slot candidate iff it is still waiting/ready and none
  /// of its ancestors is currently running or late (Section III-F: candidates
  /// must not depend on executing or late-invoking microservices).
  [[nodiscard]] bool independent_of_active(std::size_t i) const;

 private:
  const RequestType* type_;
  RequestId id_;
  SimTime arrival_;
  std::vector<NodeRuntime> nodes_;
  std::size_t done_count_ = 0;
};

}  // namespace vmlp::app
