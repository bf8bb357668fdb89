#include "mlp/self_organizing.h"

#include <algorithm>
#include <cmath>

#include "common/audit.h"
#include "common/error.h"
#include "obs/collector.h"

namespace vmlp::mlp {

void audit_plan_integrity(const sched::ActiveRequest& ar, const std::vector<NodePlan>& plans,
                          bool require_full_cover) {
  if (!audit::enabled()) return;
  std::vector<bool> covered(ar.nodes.size(), false);
  for (const NodePlan& plan : plans) {
    VMLP_AUDIT_ASSERT(plan.node < ar.nodes.size(),
                      "plan references node " << plan.node << " outside request of size "
                                              << ar.nodes.size());
    VMLP_AUDIT_ASSERT(!covered[plan.node],
                      "plan books node " << plan.node << " twice (double-booked reservation)");
    covered[plan.node] = true;
    const sched::DriverNode& dn = ar.nodes[plan.node];
    VMLP_AUDIT_ASSERT(dn.state < sched::NodeState::kPlaced,
                      "plan books node " << plan.node << " that is already placed or finished");
    VMLP_AUDIT_ASSERT(plan.busy > 0 && plan.slack >= 0 && plan.start >= 0,
                      "plan for node " << plan.node << " has a degenerate window: start="
                                       << plan.start << " busy=" << plan.busy
                                       << " slack=" << plan.slack);
  }
  if (require_full_cover) {
    for (std::size_t i = 0; i < ar.nodes.size(); ++i) {
      if (ar.nodes[i].state >= sched::NodeState::kPlaced) continue;
      VMLP_AUDIT_ASSERT(covered[i], "plan drops node " << i
                                                       << " — coalesced chain does not preserve "
                                                          "the request's stage multiset");
    }
  }
}

SelfOrganizing::SelfOrganizing(InterfaceLayer& iface, const VmlpParams& params, Rng&& rng)
    : iface_(&iface), params_(params), rng_(rng) {}

void SelfOrganizing::Overlay::add(MachineId m, SimTime t0, SimTime t1,
                                  const cluster::ResourceVector& res) {
  for (auto& [machine, spans] : buckets) {
    if (machine == m) {
      spans.push_back(Span{t0, t1, res});
      return;
    }
  }
  buckets.emplace_back(m, std::vector<Span>{Span{t0, t1, res}});
}

cluster::ResourceVector SelfOrganizing::Overlay::max_over(MachineId m, SimTime t0,
                                                          SimTime t1) const {
  // Conservative: sum every overlapping tentative reservation (exact maxima
  // would need sweep-line; plans hold only a handful of entries). Buckets
  // preserve per-machine insertion order, so the sum accumulates in the same
  // order as a filtered sweep of a global entry list would.
  cluster::ResourceVector total;
  for (const auto& [machine, spans] : buckets) {
    if (machine != m) continue;
    for (const auto& s : spans) {
      if (s.t0 < t1 && t0 < s.t1) total += s.res;
    }
    break;
  }
  return total;
}

bool SelfOrganizing::fits_with_overlay(const Overlay& overlay, MachineId m, SimTime t0, SimTime t1,
                                       const cluster::ResourceVector& r,
                                       std::size_t* cover_hint) const {
  const auto& ledger = iface_->cluster().machine(m).ledger();
  if (overlay.buckets.empty()) return ledger.fits(t0, t1, r, cover_hint);
  return ledger.fits(t0, t1, r + overlay.max_over(m, t0, t1), cover_hint);
}

SimDuration SelfOrganizing::max_slo() const {
  if (!cached_max_slo_.has_value()) {
    SimDuration max_seen = 0;
    for (const auto& rt : iface_->application().requests()) {
      max_seen = std::max(max_seen, rt.slo());
    }
    cached_max_slo_ = max_seen;
  }
  return *cached_max_slo_;
}

SimDuration SelfOrganizing::ref_stage_time() const {
  if (!cached_ref_.has_value()) {
    double sum = 0.0;
    const auto& services = iface_->application().services();
    for (const auto& s : services) sum += static_cast<double>(s.nominal_time);
    cached_ref_ = std::max<SimDuration>(
        1, static_cast<SimDuration>(sum / std::max<std::size_t>(1, services.size())));
  }
  return *cached_ref_;
}

double SelfOrganizing::reorder_ratio_of(RequestId id) {
  const sched::ActiveRequest* ar = iface_->find_request(id);
  if (ar == nullptr) return 0.0;
  const auto& type = ar->type;
  const double v_r = iface_->volatility(type.id());
  const SimDuration waited = iface_->now() - ar->arrival;

  SimDuration dt0 = kTimeInfinity;
  for (const auto& node : type.nodes()) {
    const auto mean = iface_->profiles().mean_exec(node.service, type.id());
    const SimDuration est = mean.value_or(static_cast<SimDuration>(std::llround(
        static_cast<double>(iface_->application().service(node.service).nominal_time) *
        node.time_scale)));
    dt0 = std::min(dt0, std::max<SimDuration>(1, est));
  }
  return reorder_ratio(v_r, type.slo(), waited, dt0, ref_stage_time());
}

SelfOrganizing::NodeEst SelfOrganizing::compute_est(const app::RequestType& type, std::size_t node,
                                                    double v_r, double x) const {
  const auto& req_node = type.nodes()[node];
  const auto& svc = iface_->application().service(req_node.service);
  const auto fallback = static_cast<SimDuration>(
      std::llround(2.0 * static_cast<double>(svc.nominal_time) * req_node.time_scale));
  // Δt (band-conservative) aligns successors; the ledger books only the
  // *expected* busy time — reserving worst-case windows would halve the
  // cluster's effective capacity for volatile streams.
  NodeEst est;
  est.slack =
      estimate_slack(iface_->profiles(), req_node.service, type.id(), v_r, x, fallback, params_);
  est.busy = std::max<SimDuration>(
      1, iface_->profiles().mean_exec(req_node.service, type.id()).value_or(fallback / 2));
  return est;
}

SelfOrganizing::PlanContext SelfOrganizing::make_context(const sched::ActiveRequest& ar) {
  const auto& type = ar.type;
  PlanContext ctx;
  ctx.v_r = iface_->volatility(type.id());
  ctx.x = x_percent(ctx.v_r, type.slo(), max_slo());
  ctx.seed_finish.assign(type.size(), -1);
  ctx.seed_machine.assign(type.size(), MachineId());

  // Seed predictions for nodes that already progressed (delay-slot entrants).
  const SimTime now = iface_->now();
  for (std::size_t i = 0; i < type.size(); ++i) {
    const sched::DriverNode& dn = ar.nodes[i];
    if (dn.state == sched::NodeState::kDone) {
      ctx.seed_finish[i] = dn.finished_at;
      ctx.seed_machine[i] = dn.machine;
    } else if (dn.state == sched::NodeState::kRunning) {
      ctx.seed_finish[i] =
          std::max(now + kMsec, dn.started_at + compute_est(type, i, ctx.v_r, ctx.x).slack);
      ctx.seed_machine[i] = dn.machine;
    } else if (dn.state == sched::NodeState::kPlaced) {
      ctx.seed_finish[i] = std::max(dn.planned_start, now) + dn.reserve_duration;
      ctx.seed_machine[i] = dn.machine;
    }
  }
  return ctx;
}

SimDuration SelfOrganizing::slack_of(RequestId id, std::size_t node) {
  const sched::ActiveRequest* ar = iface_->find_request(id);
  VMLP_CHECK(ar != nullptr);
  const auto& type = ar->type;
  const double v_r = iface_->volatility(type.id());
  const double x = x_percent(v_r, type.slo(), max_slo());
  return compute_est(type, node, v_r, x).slack;
}

std::optional<std::pair<MachineId, SimTime>> SelfOrganizing::admit_stage(
    const Overlay& overlay, const cluster::ResourceVector& demand, SimDuration slack,
    const std::vector<SimTime>& parent_finish, const std::vector<MachineId>& parent_machine) {
  obs::Collector* obs = iface_->observer();
  const std::uint64_t hint_hits_before =
      obs != nullptr ? obs->counter_value(obs->ledger().hints_hit) : 0;
  std::size_t probes = 0;
  std::size_t pruned = 0;
  const auto result = admit_stage_impl(overlay, demand, slack, parent_finish, parent_machine,
                                       probes, pruned);
  if (obs != nullptr) {
    // Per-stage summaries, not per-probe records: one kAdmitProbe event per
    // stage keeps the ring readable at admission rates of thousands of
    // probes per simulated second.
    const SimTime t = iface_->now();
    obs->count(obs->mlp().probes_spent, probes);
    obs->event(obs::DecisionKind::kAdmitProbe, t, obs::DecisionEvent::kNoRequest,
               obs::DecisionEvent::kNoIndex,
               result.has_value() ? result->first.value() : obs::DecisionEvent::kNoIndex,
               static_cast<std::int64_t>(probes));
    if (pruned > 0) {
      obs->count(obs->mlp().probes_pruned, pruned);
      obs->event(obs::DecisionKind::kAdmitPrune, t, obs::DecisionEvent::kNoRequest,
                 obs::DecisionEvent::kNoIndex, obs::DecisionEvent::kNoIndex,
                 static_cast<std::int64_t>(pruned));
    }
    const std::uint64_t hits = obs->counter_value(obs->ledger().hints_hit) - hint_hits_before;
    if (hits > 0) {
      obs->event(obs::DecisionKind::kAdmitHintHit, t, obs::DecisionEvent::kNoRequest,
                 obs::DecisionEvent::kNoIndex, obs::DecisionEvent::kNoIndex,
                 static_cast<std::int64_t>(hits));
    }
  }
  return result;
}

std::optional<std::pair<MachineId, SimTime>> SelfOrganizing::admit_stage_impl(
    const Overlay& overlay, const cluster::ResourceVector& demand, SimDuration slack,
    const std::vector<SimTime>& parent_finish, const std::vector<MachineId>& parent_machine,
    std::size_t& probes_out, std::size_t& pruned_out) {
  const std::size_t n_machines = iface_->cluster().machine_count();
  const SimTime now = iface_->now();
  const SimDuration step =
      std::max<SimDuration>(1, params_.plan_search_window /
                                   static_cast<SimDuration>(params_.plan_search_steps));

  // probe_state_ classifies each machine on first touch: 0 = untouched,
  // 1 = must probe, 2 = every probe this stage is guaranteed to fail (see
  // the classification below). Stage setup is O(1): entries are invalidated
  // by bumping the stage epoch, never by clearing the vectors (see the
  // probe_epoch_ declaration — an eager O(machines) assign() per stage is
  // the latent cost that re-couples placements/sec to cluster size), and
  // probe_one initializes a machine's state on first touch of the stage.
  ++stage_epoch_;
  if (probe_state_.size() < n_machines) {
    probe_state_.resize(n_machines, 0);
    probe_epoch_.resize(n_machines, 0);  // 0 != any stage_epoch_ (it starts at 1)
    // Covering-index hints survive across stages: the ledger validates them
    // against its current profile, and consecutive stages probe each
    // machine at nearby times.
    probe_cover_.resize(n_machines, cluster::kNoCoverHint);
  }

  // A machine's desired start: the same for every slip step k of the stage
  // (expected_comm is a pure function of topology distance).
  auto desired_for = [&](MachineId m) {
    SimTime desired = now;
    if (parent_finish.empty()) {
      // Root stage: ingress hop from the request handler.
      desired = now + iface_->expected_ingress();
    } else {
      for (std::size_t p = 0; p < parent_finish.size(); ++p) {
        desired =
            std::max(desired, parent_finish[p] + iface_->expected_comm(parent_machine[p], m));
      }
      desired = std::max(desired, now);
    }
    return desired;
  };

  // Audit-only exact test of a window the classification pruned. It uses
  // max_usage, which records no telemetry, so audit on/off leaves the
  // ledger.* counters unchanged; a state-2 machine already took a fits()
  // probe this stage, so the index it reads is current.
  auto window_fits = [&](MachineId m, SimTime start) {
    const auto& machine = iface_->cluster().machine(m);
    return (machine.ledger().max_usage(start, start + slack) +
            (demand + overlay.max_over(m, start, start + slack)))
        .fits_within(machine.capacity());
  };

  std::size_t& probes = probes_out;
  std::size_t& pruned = pruned_out;

  // One (machine, slip step) probe — the body shared verbatim by the flat
  // scan and the cell-router scan below, so the two orderings can never
  // drift in per-probe behaviour. kFit leaves the accepted pair in `result`
  // (cursor bookkeeping is the caller's: flat and cell cursors update
  // differently); kNoFit may mark the pass probeable; kBudget means the
  // stage's probe budget is spent.
  enum class Probe { kFit, kNoFit, kBudget };
  std::optional<std::pair<MachineId, SimTime>> result;
  auto probe_one = [&](MachineId m, std::size_t k, bool& any_probeable) {
    // Pruned probes still consume budget: which probe exhausts
    // max_admit_probes does not depend on how many probes were pruned.
    if (++probes > params_.max_admit_probes) return Probe::kBudget;
    if (!iface_->cluster().machine(m).up()) return Probe::kNoFit;  // crash window
    if (probe_epoch_[m.value()] != stage_epoch_) {
      // First touch this stage: lazily reset what an eager per-stage clear
      // would write for every machine.
      probe_epoch_[m.value()] = stage_epoch_;
      probe_state_[m.value()] = 0;
    }
    std::int8_t& state = probe_state_[m.value()];
    if (state == 2) {
      ++pruned;
      VMLP_AUDIT_ASSERT(!window_fits(m, desired_for(m) + static_cast<SimDuration>(k) * step),
                        "pruned probe on machine " << m.value() << " at slip step " << k
                                                   << " would have fit");
      return Probe::kNoFit;  // counted, and provably would have failed
    }
    const SimTime desired = desired_for(m);
    const SimTime start = desired + static_cast<SimDuration>(k) * step;
    std::size_t* cover = &probe_cover_[m.value()];
    if (fits_with_overlay(overlay, m, start, start + slack, demand, cover)) {
      result = std::make_pair(m, start);
      return Probe::kFit;
    }
    if (state == 0) {
      // First failed probe on this machine: classify it so the slip loop
      // does not keep paying for probes that provably fail. Classification
      // is deferred until a failure because a machine whose first probe
      // succeeds never needs it.
      const auto& machine = iface_->cluster().machine(m);
      if (!demand.fits_within(machine.capacity())) {
        // The bare capacity can never hold the demand; any non-negative
        // ledger level or overlay only raises the tested usage.
        state = 2;
      } else {
        // Every start this stage can probe lies in
        // [desired, desired + steps·step], so every probed window is a
        // subset of that span plus the slack tail. If even the quietest
        // level across the whole span cannot host the demand, each
        // window's max certainly cannot (max ≥ span min, and the exact
        // test adds the same non-negative demand+overlay on top).
        // span_could_fit early-exits the span fold on the usual "machine
        // stays probeable" verdict.
        const SimTime span_end =
            desired + static_cast<SimDuration>(params_.plan_search_steps) * step + slack;
        // The span starts at `desired` == this k=0 probe's start, so the
        // hint the failed probe just stored is already the span's
        // covering index.
        state = machine.ledger().span_could_fit(desired, span_end, demand, cover) ? 1 : 2;
      }
    }
    if (state != 2) any_probeable = true;
    return Probe::kNoFit;
  };

  if (!params_.cell_router) {
    // Pre-topology flat scan — determinism_check claim 7's reference mode.
    for (std::size_t k = 0; k <= params_.plan_search_steps; ++k) {
      // Tracks whether this pass met any machine that could still admit. Once
      // every up machine is classified 2 (guaranteed fail), the remaining slip
      // passes could only tick the probe counter — no probe can succeed, no
      // cursor moves, and the stage ends in std::nullopt either way — so the
      // stage returns that verdict immediately. Machines cannot change state
      // while a stage runs (the simulation does not advance inside
      // admit_stage).
      bool any_probeable = false;
      for (std::size_t j = 0; j < n_machines; ++j) {
        const MachineId m(static_cast<std::uint32_t>((cursor_ + j) % n_machines));
        switch (probe_one(m, k, any_probeable)) {
          case Probe::kBudget:
            return std::nullopt;
          case Probe::kFit:
            cursor_ = (m.value() + 1) % n_machines;
            return result;
          case Probe::kNoFit:
            break;
        }
      }
      if (!any_probeable) return std::nullopt;
    }
    return std::nullopt;
  }

  // Cell-router scan: cells in ranked order (least loaded first), the full
  // slip window inside one cell before shedding to the next. On a
  // single-cell topology this is bit-exact to the flat scan: begin = 0,
  // size = n_machines, and cell_cursor_[0] traces cursor_'s trajectory —
  // determinism_check claim 7. The work bound per stage is
  // O(router_max_cells × cell size), independent of cluster size.
  const auto& clstr = iface_->cluster();
  const cluster::CellTopology& cells = clstr.cells();
  const std::size_t n_cells = cells.cell_count();
  cells.ranked_cells(ranked_cells_);
  if (cell_cursor_.size() != n_cells) cell_cursor_.assign(n_cells, 0);
  const std::size_t visit =
      std::min(n_cells, std::max<std::size_t>(1, params_.router_max_cells));
  obs::Collector* obs = iface_->observer();
  if (obs != nullptr && n_cells > 1) obs->count(obs->topology().stages_routed);
  for (std::size_t ci = 0; ci < visit; ++ci) {
    const std::size_t cell = ranked_cells_[ci];
    const std::size_t begin = cells.cell_begin(cell);
    const std::size_t size = cells.cell_size(cell);
    std::size_t& cursor = cell_cursor_[cell];
    // Headroom-index jump (router policy, multi-cell only — a single cell
    // must stay bit-exact to the flat scan): rotate the scan base to the
    // first machine the per-32-machine summary guarantees can host the
    // demand at every time (a block-pruned linear scan of the cell's cached
    // free fractions — see CellTopology::first_fit_candidate). Typically its
    // j = 0 probe admits immediately; if a plan overlay blocks it, the scan
    // continues from there — same coverage, rotated order, still a pure
    // function of simulation state.
    std::size_t base = cursor;
    if (n_cells > 1) {
      const double frac = clstr.machine(MachineId(static_cast<std::uint32_t>(begin)))
                              .ledger()
                              .demand_fraction_of(demand);
      const std::size_t cand = cells.first_fit_candidate(clstr, cell, cursor, frac);
      if (cand != cluster::CellTopology::kNoMachine) {
        base = cand - begin;
        if (obs != nullptr) obs->count(obs->topology().index_jumps);
      }
    }
    // Cell shed (router policy): a slip pass that finds no probeable
    // machine ends this cell's scan and moves on to the next ranked cell.
    bool shed = false;
    for (std::size_t k = 0; k <= params_.plan_search_steps && !shed; ++k) {
      bool any_probeable = false;  // see the flat scan's comment
      for (std::size_t j = 0; j < size; ++j) {
        const MachineId m(static_cast<std::uint32_t>(begin + (base + j) % size));
        switch (probe_one(m, k, any_probeable)) {
          case Probe::kBudget:
            return std::nullopt;
          case Probe::kFit:
            cursor = (m.value() - begin + 1) % size;
            return result;
          case Probe::kNoFit:
            break;
        }
      }
      shed = !any_probeable;
    }
    if (obs != nullptr && n_cells > 1 && ci + 1 < visit) {
      obs->count(obs->topology().cells_shed);
    }
  }
  return std::nullopt;
}

std::optional<std::vector<NodePlan>> SelfOrganizing::try_chain(
    const sched::ActiveRequest& ar, const std::vector<std::size_t>& chain,
    const PlanContext& ctx) {
  const auto& type = ar.type;
  const auto& application = iface_->application();

  std::vector<SimTime> pred_finish = ctx.seed_finish;
  std::vector<MachineId> pred_machine = ctx.seed_machine;

  Overlay overlay;
  std::vector<NodePlan> plans;
  for (std::size_t node : chain) {
    if (ar.nodes[node].state >= sched::NodeState::kPlaced) continue;

    const auto& req_node = type.nodes()[node];
    const auto& svc = application.service(req_node.service);
    const NodeEst est = compute_est(type, node, ctx.v_r, ctx.x);

    std::vector<SimTime> pf;
    std::vector<MachineId> pm;
    for (std::size_t parent : type.dag().parents(node)) {
      VMLP_CHECK_MSG(pred_finish[parent] >= 0, "chain order violated dependency order");
      pf.push_back(pred_finish[parent]);
      pm.push_back(pred_machine[parent]);
    }

    const auto admitted = admit_stage(overlay, svc.demand, est.busy, pf, pm);
    if (!admitted.has_value()) return std::nullopt;

    const auto [machine, start] = *admitted;
    plans.push_back(NodePlan{node, machine, start, est.busy, est.slack});
    overlay.add(machine, start, start + est.busy, svc.demand);
    pred_finish[node] = start + std::max(est.busy, est.slack);
    pred_machine[node] = machine;
  }
  return plans;
}

bool SelfOrganizing::organize(RequestId id) {
  const sched::ActiveRequest* ar = iface_->find_request(id);
  if (ar == nullptr) return false;
  obs::Collector* obs = iface_->observer();
  if (obs != nullptr) obs->count(obs->mlp().organize_calls);
  const auto& type = ar->type;
  PlanContext ctx = make_context(*ar);

  const auto chains = type.dag().chain_choices(params_.max_chain_choices, rng_);
  std::size_t failed = 0;
  for (const auto& chain : chains) {
    if (failed >= params_.max_failed_chains) break;  // saturated; retrying costs more than it buys
    auto plans = try_chain(*ar, chain, ctx);
    if (!plans.has_value()) {
      ++failed;
      continue;
    }
    audit_plan_integrity(*ar, *plans, /*require_full_cover=*/true);
    for (const auto& plan : *plans) {
      const auto& svc = iface_->application().service(type.nodes()[plan.node].service);
      iface_->place(id, plan.node, plan.machine, svc.demand, plan.start, plan.busy);
    }
    ++plans_committed_;
    if (obs != nullptr) {
      obs->count(obs->mlp().plans_committed);
      obs->count(obs->mlp().stages_coalesced, plans->size());
      obs->event(obs::DecisionKind::kCoalesce, iface_->now(), id.value(),
                 obs::DecisionEvent::kNoIndex, obs::DecisionEvent::kNoIndex,
                 static_cast<std::int64_t>(plans->size()));
      for (const auto& plan : *plans) {
        // A stage with predecessors was aligned against their predicted
        // finishes (Algorithm 1's Δt alignment); roots only pay the ingress
        // hop.
        if (type.dag().parents(plan.node).empty()) continue;
        obs->count(obs->mlp().stages_aligned);
        obs->event(obs::DecisionKind::kAlign, iface_->now(), id.value(),
                   static_cast<std::uint32_t>(plan.node), plan.machine.value(),
                   static_cast<std::int64_t>(plan.slack));
      }
    }
    return true;
  }
  ++plans_deferred_;
  last_defer_at_ = iface_->now();
  if (obs != nullptr) obs->count(obs->mlp().plans_deferred);
  return false;
}

bool SelfOrganizing::organize_node(RequestId id, std::size_t node) {
  const sched::ActiveRequest* ar = iface_->find_request(id);
  if (ar == nullptr) return false;
  if (ar->nodes[node].state >= sched::NodeState::kPlaced) return true;
  const auto& type = ar->type;
  PlanContext ctx = make_context(*ar);
  auto plans = try_chain(*ar, {node}, ctx);
  if (!plans.has_value() || plans->empty()) return false;
  audit_plan_integrity(*ar, *plans, /*require_full_cover=*/false);
  const auto& plan = plans->front();
  const auto& svc = iface_->application().service(type.nodes()[plan.node].service);
  iface_->place(id, plan.node, plan.machine, svc.demand, plan.start, plan.busy);
  return true;
}

}  // namespace vmlp::mlp
