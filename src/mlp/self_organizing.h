// Self-organizing module (Section III-E, Algorithm 1).
//
// Coalesces the microservice chains of waiting requests into the cluster's
// committed future: for a popped request it walks its chain choices c_j in
// topological order, estimates each microservice's execution slack Δt per the
// request's volatility band, and admits each stage onto a machine whose
// reservation ledger has the resource budget over [t, t+Δt). A request is
// committed atomically — if any stage cannot be admitted (within a bounded
// slip window), the whole plan is abandoned and the request deferred
// ("switch r_i with r_{i+1}").
//
// Planning uses a local overlay of tentative reservations so stages of the
// same plan cannot double-book a machine before the plan commits.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "mlp/interface_layer.h"
#include "mlp/metrics.h"

namespace vmlp::mlp {

struct NodePlan {
  std::size_t node = 0;
  MachineId machine;
  SimTime start = 0;
  /// Expected busy time — what the stage books on the machine's ledger.
  SimDuration busy = 0;
  /// Band-conservative Δt — what successors align against (Algorithm 1's
  /// slack). slack >= busy for mid/high-V_r requests.
  SimDuration slack = 0;
};

/// Audit tier: a committed plan must cover each currently unplaced,
/// unfinished node of the request exactly once (the coalesced chain preserves
/// the request's stage multiset), reference only valid node indices, and
/// never book negative/non-finite windows. When `require_full_cover` is
/// false (single-node planning) only the per-entry checks apply. Checks are
/// live only when vmlp::audit::enabled(); violations throw InvariantError.
void audit_plan_integrity(const sched::ActiveRequest& ar, const std::vector<NodePlan>& plans,
                          bool require_full_cover);

class SelfOrganizing {
 public:
  /// Rng is a sink parameter (pass an rvalue substream); see CommModel.
  SelfOrganizing(InterfaceLayer& iface, const VmlpParams& params, Rng&& rng);

  /// Plan and commit every unplaced node of the request. True = fully
  /// assigned (Algorithm 1's "totally assigned").
  bool organize(RequestId id);

  /// Plan and commit a single unblocked node (used for requests that entered
  /// execution piecemeal through the delay slot).
  bool organize_node(RequestId id, std::size_t node);

  /// Reorder ratio R of a waiting request at the current time.
  [[nodiscard]] double reorder_ratio_of(RequestId id);

  /// Algorithm 1's Δt for one node of a request (exposed for self-healing's
  /// candidate sizing).
  [[nodiscard]] SimDuration slack_of(RequestId id, std::size_t node);

  [[nodiscard]] std::size_t plans_committed() const { return plans_committed_; }
  [[nodiscard]] std::size_t plans_deferred() const { return plans_deferred_; }
  /// Time of the most recent failed plan (-1 if none) — the self-healing
  /// module backs off request fills while the cluster is saturated.
  [[nodiscard]] SimTime last_defer_at() const { return last_defer_at_; }

 private:
  struct Overlay {
    struct Span {
      SimTime t0;
      SimTime t1;
      cluster::ResourceVector res;
    };
    /// Tentative reservations grouped by machine (first-touch order). A plan
    /// holds only a handful of entries, so flat buckets beat hashing — and a
    /// probe for machine m now touches m's spans only instead of sweeping
    /// every tentative entry of the plan.
    std::vector<std::pair<MachineId, std::vector<Span>>> buckets;
    void add(MachineId m, SimTime t0, SimTime t1, const cluster::ResourceVector& res);
    [[nodiscard]] cluster::ResourceVector max_over(MachineId m, SimTime t0, SimTime t1) const;
  };

  /// Per-organize() planning inputs shared by the up-to `max_chain_choices`
  /// chain attempts of one organize call: the request's volatility, its x
  /// and the finish-time predictions seeded from already-progressed nodes.
  /// None of them changes between attempts (profiles only record at
  /// execution time, and nothing commits until a chain succeeds).
  struct PlanContext {
    double v_r = 0.0;
    double x = 0.0;
    std::vector<SimTime> seed_finish;
    std::vector<MachineId> seed_machine;
  };

  /// Algorithm 1's slack Δt and the expected busy time for one node.
  struct NodeEst {
    SimDuration slack = 0;
    SimDuration busy = 0;
  };

  [[nodiscard]] PlanContext make_context(const sched::ActiveRequest& ar);
  [[nodiscard]] NodeEst compute_est(const app::RequestType& type, std::size_t node, double v_r,
                                    double x) const;

  /// ReservationLedger::fits with the plan's tentative reservations on `m`
  /// added to the demand.
  [[nodiscard]] bool fits_with_overlay(const Overlay& overlay, MachineId m, SimTime t0, SimTime t1,
                                       const cluster::ResourceVector& r,
                                       std::size_t* cover_hint = nullptr) const;
  /// Find (machine, start) for one stage; first-fit from a rotating cursor at
  /// the desired start, escalating through the slip window. nullopt = defer.
  /// Machines whose capacity can never hold the demand, or whose quietest
  /// ledger level across every start this stage could probe already blocks
  /// it, are classified on their first failed probe and skipped thereafter —
  /// the skipped probes still count against `max_admit_probes` and are
  /// provably ones that would have failed (audited), so the accepted
  /// (machine, start) and the cursor trajectory are those of the exhaustive
  /// search; a slip pass that finds no probeable machine ends the scan.
  /// With `cell_router`, the scan goes cell by cell in the topology's ranked
  /// order (per-cell cursors, headroom-index jump, shed on a probeless pass;
  /// see VmlpParams::cell_router); on a single-cell topology the arithmetic
  /// degenerates bit-exactly to the flat scan.
  [[nodiscard]] std::optional<std::pair<MachineId, SimTime>> admit_stage(
      const Overlay& overlay, const cluster::ResourceVector& demand, SimDuration slack,
      const std::vector<SimTime>& parent_finish, const std::vector<MachineId>& parent_machine);
  /// admit_stage's search loop; the public wrapper only adds telemetry.
  /// `probes_out` / `pruned_out` report the stage's probe budget spend and
  /// how many of those probes were pruned (skipped after classification).
  [[nodiscard]] std::optional<std::pair<MachineId, SimTime>> admit_stage_impl(
      const Overlay& overlay, const cluster::ResourceVector& demand, SimDuration slack,
      const std::vector<SimTime>& parent_finish, const std::vector<MachineId>& parent_machine,
      std::size_t& probes_out, std::size_t& pruned_out);

  [[nodiscard]] std::optional<std::vector<NodePlan>> try_chain(
      const sched::ActiveRequest& ar, const std::vector<std::size_t>& chain,
      const PlanContext& ctx);

  [[nodiscard]] SimDuration max_slo() const;
  [[nodiscard]] SimDuration ref_stage_time() const;

  InterfaceLayer* iface_;
  VmlpParams params_;
  Rng rng_;
  /// Rotating first-fit start index (cell_router off: flat machine index).
  std::size_t cursor_ = 0;
  /// Per-cell rotating cursors (cell-local offsets) for the router path. On
  /// a single-cell topology cell_cursor_[0] traces exactly the trajectory
  /// cursor_ would — the claim-7 byte-identity hinge.
  std::vector<std::size_t> cell_cursor_;
  /// ranked_cells scratch, reused so routing stays allocation-free.
  std::vector<std::size_t> ranked_cells_;
  std::size_t plans_committed_ = 0;
  std::size_t plans_deferred_ = 0;
  SimTime last_defer_at_ = -1;
  // Value-carrying caches: 0 is a legitimate result for neither (max_slo of
  // an application with all-zero SLOs, a degenerate ref time), so an empty
  // optional — not a 0 sentinel — marks "not yet computed".
  mutable std::optional<SimDuration> cached_max_slo_;
  mutable std::optional<SimDuration> cached_ref_;
  // admit_stage scratch (sized to the cluster, reused across calls so the
  // inner planning loop stays allocation-free). Per-stage validity is
  // tracked by probe_epoch_, NOT by clearing: an eager per-stage
  // assign() is O(machines) per placement — invisible at 100 machines,
  // ~9 KB of writes per stage at 1k and ~90 KB at 10k, which silently
  // re-couples per-placement cost to cluster size after the cell router
  // decoupled the scan itself. A machine's entry is live only when its
  // epoch matches the current stage's; probe_one initializes it on first
  // touch, so stage setup is O(1) and stage cost is O(machines probed).
  std::vector<std::int8_t> probe_state_;
  /// Stage stamp per machine: an entry of probe_state_ is valid iff
  /// probe_epoch_[m] == stage_epoch_.
  std::vector<std::uint64_t> probe_epoch_;
  std::uint64_t stage_epoch_ = 0;
  /// Per-machine ledger covering-index cache (kNoCoverHint = untouched),
  /// carried across stages: the ledger validates a hint against its current
  /// profile, so a stale one costs only the binary search it would skip.
  std::vector<std::size_t> probe_cover_;
};

}  // namespace vmlp::mlp
