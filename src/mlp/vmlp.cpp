#include "mlp/vmlp.h"

#include <algorithm>

#include "common/error.h"
#include "sched/driver.h"

namespace vmlp::mlp {

VmlpScheduler::VmlpScheduler(VmlpParams params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

void VmlpScheduler::attach(sched::SimulationDriver& driver) {
  sched::IScheduler::attach(driver);
  // The two optional hooks v-MLP overrides: self-healing consumes late
  // invocations, and a finished request leaves the waiting and ready queues.
  driver.subscribe(sched::Hook::kLateInvocation | sched::Hook::kRequestFinished);
  iface_ = std::make_unique<InterfaceLayer>(driver);
  organizer_ = std::make_unique<SelfOrganizing>(*iface_, params_, Rng(seed_).fork("organize"));
  healer_ = std::make_unique<SelfHealing>(*iface_, params_);
}

void VmlpScheduler::on_request_arrival(RequestId id) {
  // One immediate attempt; backlog ordering is the periodic pass's job.
  if (!organizer_->organize(id)) waiting_.push_back(id);
}

void VmlpScheduler::sort_waiting_by_reorder_ratio() {
  if (waiting_.size() < 2) return;
  // Decorate-sort: R is computed once per request, not once per comparison.
  std::vector<std::pair<double, RequestId>> keyed;
  keyed.reserve(waiting_.size());
  for (RequestId id : waiting_) keyed.emplace_back(-organizer_->reorder_ratio_of(id), id);
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  waiting_.clear();
  for (const auto& [key, id] : keyed) waiting_.push_back(id);
}

void VmlpScheduler::organize_pass() {
  sort_waiting_by_reorder_ratio();
  std::vector<RequestId> still_waiting;
  std::size_t defers = 0;
  for (std::size_t i = 0; i < waiting_.size(); ++i) {
    const RequestId id = waiting_[i];
    if (driver_->find_request(id) == nullptr) continue;
    if (defers >= params_.max_defers_per_pass) {
      still_waiting.push_back(id);  // cluster saturated: stop scanning
      continue;
    }
    if (!organizer_->organize(id)) {
      // "Switch r_i with r_{i+1}": keep scanning so smaller requests behind
      // a blocked head can still be admitted this pass.
      ++defers;
      still_waiting.push_back(id);
    }
  }
  waiting_ = std::move(still_waiting);
}

void VmlpScheduler::on_node_unblocked(RequestId id, std::size_t node) {
  // Only requests that entered execution piecemeal (via the delay slot) have
  // unplaced nodes unblocking; place them immediately when possible.
  if (!organizer_->organize_node(id, node)) ready_.emplace_back(id, node);
}

void VmlpScheduler::on_tick() {
  organize_pass();
  std::vector<std::pair<RequestId, std::size_t>> leftover;
  for (const auto& [id, node] : ready_) {
    sched::ActiveRequest* ar = driver_->find_request(id);
    if (ar == nullptr || ar->nodes[node].placed || ar->nodes[node].done) continue;
    if (!organizer_->organize_node(id, node)) leftover.emplace_back(id, node);
  }
  ready_ = std::move(leftover);
}

void VmlpScheduler::on_late_invocation(RequestId id, std::size_t node) {
  sched::ActiveRequest* ar = driver_->find_request(id);
  if (ar == nullptr) return;
  sched::DriverNode& dn = ar->nodes[node];
  if (!dn.placed || dn.running || dn.done) return;

  // Relocation of the late-invoking microservice itself (Fig. 7): if its
  // dependencies are met but the planned machine keeps refusing, move the
  // stage to wherever it can execute now — overbooking the old machine at
  // the planned time would be strictly worse.
  if (ar->runtime.node(node).pending_parents == 0) {
    const MachineId old_machine = dn.machine;
    const SimDuration old_duration = dn.reserve_duration;
    driver_->unplace(id, node);
    if (!organizer_->organize_node(id, node)) {
      if (driver_->cluster().machine(old_machine).up()) {
        // Nowhere better — fall back to the original machine; the contention
        // model arbitrates. The planned start is pushed one retry interval
        // into the future: re-planning at now() would arm the driver's late
        // watch at the current timestamp, and when the (resampled) parent
        // hop keeps landing past now() the watch fires before the start
        // event, re-entering this fallback in a zero-delay event cycle that
        // freezes simulated time. The backoff keeps every relocation retry
        // strictly advancing the clock, so the loop is bounded by the
        // horizon.
        const auto& svc = driver_->application().service(
            ar->runtime.type().nodes()[node].service);
        driver_->place(id, node, old_machine, svc.demand,
                       driver_->now() + sched::kEarlyRetryInterval,
                       std::max<SimDuration>(1, old_duration));
      } else {
        // The old machine crashed since the event was armed: park the node
        // for the periodic pass instead of booking a dead machine.
        ready_.emplace_back(id, node);
      }
    }
    ++relocations_;
    return;
  }

  // Dependencies still executing: the stage is genuinely late — free its
  // vacancy and back-fill (delay slot), or stretch the executing neighbours.
  const std::size_t healed = healer_->on_late(id, node, waiting_, ready_, *organizer_);
  if (healed > 0) {
    // The healer may have organized whole waiting requests and placed ready
    // nodes into the slot; drop entries that are now handled.
    waiting_.erase(std::remove_if(waiting_.begin(), waiting_.end(),
                                  [this](RequestId rid) {
                                    sched::ActiveRequest* req = driver_->find_request(rid);
                                    if (req == nullptr) return true;
                                    for (std::size_t n = 0; n < req->nodes.size(); ++n) {
                                      if (!req->nodes[n].placed && !req->nodes[n].done) return false;
                                    }
                                    return true;
                                  }),
                   waiting_.end());
    ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                                [this](const auto& e) {
                                  sched::ActiveRequest* req = driver_->find_request(e.first);
                                  return req == nullptr || req->nodes[e.second].placed ||
                                         req->nodes[e.second].done;
                                }),
                 ready_.end());
  }
}

void VmlpScheduler::on_node_orphaned(RequestId id, std::size_t node) {
  // Crash healing rides the relocation machinery (Fig. 7): re-plan the
  // orphaned stage onto a live machine's reserved window; park it in the
  // ready queue otherwise — the periodic pass keeps retrying.
  ++orphan_relocations_;
  if (obs::Collector* obs = iface_->observer(); obs != nullptr) {
    obs->count(obs->mlp().orphans_relocated);
  }
  if (!organizer_->organize_node(id, node)) ready_.emplace_back(id, node);
}

void VmlpScheduler::on_request_finished(RequestId id) {
  waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), id), waiting_.end());
  ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                              [id](const auto& e) { return e.first == id; }),
               ready_.end());
}

}  // namespace vmlp::mlp
