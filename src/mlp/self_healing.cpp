#include "mlp/self_healing.h"

#include <algorithm>

#include "common/audit.h"
#include "common/error.h"
#include "obs/collector.h"

namespace vmlp::mlp {

SelfHealing::SelfHealing(InterfaceLayer& iface, const VmlpParams& params)
    : iface_(&iface), params_(params) {}

std::size_t SelfHealing::on_late(RequestId id, std::size_t node,
                                 const std::vector<RequestId>& waiting,
                                 const std::vector<std::pair<RequestId, std::size_t>>& ready_extras,
                                 SelfOrganizing& organizer) {
  const sched::ActiveRequest* ar = iface_->find_request(id);
  if (ar == nullptr) return 0;
  const sched::DriverNode& dn = ar->nodes[node];
  if (dn.state != sched::NodeState::kPlaced) return 0;

  const MachineId machine = dn.machine;
  const SimTime vacancy_end = dn.reserved_end;
  const cluster::ResourceVector freed = dn.limit;
  if (vacancy_end <= iface_->now()) return 0;

  // Free the vacancy; the late node re-books at its actual start.
  if (dn.has_reservation) iface_->release_reservation(id, node);
  VMLP_AUDIT_ASSERT(!dn.has_reservation,
                    "late node still holds its reservation after the vacancy release — "
                    "delay-slot fills would double-book the window");

  std::size_t actions = 0;
  if (params_.enable_delay_slot) {
    actions += fill_delay_slot(machine, vacancy_end, waiting, ready_extras, organizer);
  }
  if (actions == 0 && params_.enable_resource_stretch) {
    actions += stretch_resources(machine, freed);
  }
  return actions;
}

std::size_t SelfHealing::fill_delay_slot(
    MachineId machine, SimTime vacancy_end, const std::vector<RequestId>& waiting,
    const std::vector<std::pair<RequestId, std::size_t>>& ready_extras,
    SelfOrganizing& organizer) {
  const SimTime now = iface_->now();
  const SimDuration vacancy_len = vacancy_end - now;
  std::size_t filled = 0;

  // Microservice candidates first: ready nodes of executing requests with no
  // dependence on active or late nodes. A candidate whose demand does not
  // fully fit may run *capped* (at least half demand) — the resource-stretch
  // mechanism lifts the cap later when resources free up.
  std::size_t scanned = 0;
  for (const auto& [rid, n] : ready_extras) {
    if (++scanned > params_.max_heal_candidates) break;
    const sched::ActiveRequest* ar = iface_->find_request(rid);
    if (ar == nullptr || !ar->independent_of_active(n)) continue;
    const auto& type = ar->type;
    const auto& svc = iface_->application().service(type.nodes()[n].service);
    SimDuration est = organizer.slack_of(rid, n);
    if (est > vacancy_len + vacancy_len / 2) continue;  // would outlive the slot

    const auto& ledger = iface_->cluster().machine(machine).ledger();
    cluster::ResourceVector limit = svc.demand;
    if (!ledger.fits(now, now + est, limit)) {
      const cluster::ResourceVector avail = ledger.available(now, now + est).min(svc.demand);
      if (!(svc.demand * 0.5).fits_within(avail)) continue;  // too little room
      limit = avail;
      // Capped execution is slower; size the reservation accordingly.
      const double f = std::max(1.0, svc.demand.max_ratio_over(limit));
      est = static_cast<SimDuration>(static_cast<double>(est) * f);
    }
    iface_->place(rid, n, machine, limit, now, est);
    ++delay_slot_fills_;
    ++filled;
    if (obs::Collector* obs = iface_->observer(); obs != nullptr) {
      obs->count(obs->mlp().slots_filled);
      obs->event(obs::DecisionKind::kDelaySlotFill, now, rid.value(),
                 static_cast<std::uint32_t>(n), machine.value(),
                 static_cast<std::int64_t>(est));
    }
  }

  // Request candidates: organize whole requests from the waiting queue into
  // the freed capacity (bounded attempts — the queue is already R-ordered).
  // Back off while the organizer is visibly saturated; re-planning the same
  // unplaceable requests on every late event would melt the scheduler.
  if (organizer.last_defer_at() >= 0 && now - organizer.last_defer_at() < 2 * kMsec) {
    return filled;
  }
  std::size_t attempts = 0;
  for (RequestId rid : waiting) {
    if (attempts >= std::min<std::size_t>(4, params_.max_heal_candidates)) break;
    ++attempts;
    if (organizer.organize(rid)) {
      ++request_fills_;
      ++filled;
      if (obs::Collector* obs = iface_->observer(); obs != nullptr) {
        obs->count(obs->mlp().requests_filled);
        obs->event(obs::DecisionKind::kDelaySlotFill, now, rid.value());
      }
    }
  }
  return filled;
}

std::size_t SelfHealing::stretch_resources(MachineId machine,
                                           const cluster::ResourceVector& freed) {
  // EDF first, then highest resource sensitivity (Fig. 3(c) "highly variable
  // first"): those services convert extra resources into the largest
  // mean-and-variance improvement.
  auto running = iface_->running_on(machine);
  if (running.empty()) return 0;

  std::vector<std::tuple<SimTime, int, RequestId, std::size_t>> order;
  for (const auto& [rid, n] : running) {
    const sched::ActiveRequest* ar = iface_->find_request(rid);
    if (ar == nullptr) continue;
    const auto& type = ar->type;
    const SimTime deadline = ar->arrival + type.slo();
    const int sensitivity =
        iface_->application().service(type.nodes()[n].service).cls.resource_sensitivity;
    order.emplace_back(deadline, -sensitivity, rid, n);
  }
  std::sort(order.begin(), order.end());

  cluster::ResourceVector budget = freed;
  std::size_t stretched = 0;
  for (const auto& [deadline, neg_sens, rid, n] : order) {
    (void)deadline;
    (void)neg_sens;
    if (budget.near_zero()) break;
    const sched::ActiveRequest* ar = iface_->find_request(rid);
    if (ar == nullptr) continue;
    const sched::DriverNode& dn = ar->nodes[n];
    if (dn.state != sched::NodeState::kRunning) continue;
    const auto& svc = iface_->application().service(ar->type.nodes()[n].service);
    const cluster::ResourceVector gap = (svc.demand - dn.limit).max(cluster::ResourceVector::zero());
    if (gap.near_zero()) continue;  // already at full demand
    const cluster::ResourceVector grant = gap.min(budget);
    if (grant.near_zero()) continue;
    iface_->set_container_limit(rid, n, dn.limit + grant);
    budget -= grant;
    VMLP_AUDIT_ASSERT(!budget.any_negative(),
                      "resource stretch overdrew the freed budget: " << budget.to_string());
    ++stretches_;
    ++stretched;
    if (obs::Collector* obs = iface_->observer(); obs != nullptr) {
      obs->count(obs->mlp().resources_stretched);
      obs->event(obs::DecisionKind::kStretch, iface_->now(), rid.value(),
                 static_cast<std::uint32_t>(n), machine.value());
    }
  }
  return stretched;
}

}  // namespace vmlp::mlp
