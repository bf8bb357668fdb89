// VmlpScheduler: the paper's proposal (Table VI, "v-MLP").
//
// A volatility-aware microservice-level-parallelism scheduler composed of the
// self-organizing module (Algorithm 1 — chain coalescing onto reserved
// future resource windows, queue ordered by the reorder ratio R) and the
// self-healing module (delay slot + resource stretch on late invocations),
// glued through the interface layer.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "mlp/interface_layer.h"
#include "mlp/metrics.h"
#include "mlp/self_healing.h"
#include "mlp/self_organizing.h"
#include "sched/scheduler.h"

namespace vmlp::mlp {

class VmlpScheduler final : public sched::IScheduler {
 public:
  explicit VmlpScheduler(VmlpParams params = {}, std::uint64_t seed = 7);

  [[nodiscard]] std::string name() const override { return "v-MLP"; }
  void attach(sched::SimulationDriver& driver) override;
  void on_request_arrival(RequestId id) override;
  void on_node_unblocked(RequestId id, std::size_t node) override;
  void on_tick() override;
  void on_late_invocation(RequestId id, std::size_t node) override;
  void on_node_orphaned(RequestId id, std::size_t node) override;
  void on_request_finished(RequestId id) override;

  [[nodiscard]] const SelfOrganizing* organizer() const { return organizer_.get(); }
  [[nodiscard]] const SelfHealing* healer() const { return healer_.get(); }
  /// Late/stuck stages moved to a better machine (Fig. 7's "relocation of
  /// late-invoking" microservices).
  [[nodiscard]] std::size_t relocations() const { return relocations_; }
  /// Failure orphans routed through the relocation machinery (crash healing).
  [[nodiscard]] std::size_t orphan_relocations() const { return orphan_relocations_; }

 private:
  /// One Algorithm 1 pass over the R-ordered waiting queue.
  void organize_pass();
  void sort_waiting_by_reorder_ratio();

  VmlpParams params_;
  std::uint64_t seed_;
  std::unique_ptr<InterfaceLayer> iface_;
  std::unique_ptr<SelfOrganizing> organizer_;
  std::unique_ptr<SelfHealing> healer_;

  std::vector<RequestId> waiting_;                        // unplanned requests
  std::vector<std::pair<RequestId, std::size_t>> ready_;  // unblocked, unplaced nodes
  std::size_t relocations_ = 0;
  std::size_t orphan_relocations_ = 0;
};

}  // namespace vmlp::mlp
