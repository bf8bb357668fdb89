#include "sched/part_profile.h"

#include <algorithm>

#include "sched/common.h"
#include "sched/driver.h"

namespace vmlp::sched {

void PartProfile::on_request_arrival(RequestId id) {
  const ActiveRequest* ar = driver_->find_request(id);
  if (ar == nullptr) return;
  for (std::size_t node : ar->ready_nodes()) ready_.emplace_back(id, node);
  drain();
}

void PartProfile::on_node_unblocked(RequestId id, std::size_t node) {
  ready_.emplace_back(id, node);
  drain();
}

void PartProfile::on_tick() { drain(); }

SimDuration PartProfile::remaining_path_estimate(RequestId id, std::size_t from_node) const {
  // Profiled mean time of the longest remaining dependency path rooted at
  // from_node (partial profiling: per-stage means, no interference model).
  const ActiveRequest* ar = driver_->find_request(id);
  if (ar == nullptr) return 0;
  const auto& type = ar->type;

  const std::uint64_t cache_key =
      (static_cast<std::uint64_t>(type.id().value()) << 32) | static_cast<std::uint64_t>(from_node);
  auto cached = path_cache_.find(cache_key);
  if (cached != path_cache_.end() &&
      driver_->now() - cached->second.computed_at < kPathCacheTtl) {
    return cached->second.value;
  }
  const auto order = type.dag().topo_order();
  std::vector<SimDuration> longest(type.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t n = *it;
    SimDuration tail = 0;
    for (std::size_t child : type.dag().children(n)) tail = std::max(tail, longest[child]);
    longest[n] = estimate_mean_exec(*driver_, type, n) + tail;
  }
  // Populate the cache for every node of this type while we have the array.
  for (std::size_t n = 0; n < type.size(); ++n) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(type.id().value()) << 32) | static_cast<std::uint64_t>(n);
    path_cache_[key] = CachedPath{driver_->now(), longest[n]};
  }
  return longest[from_node];
}

void PartProfile::drain() {
  // Least slack first; slack is computed once per entry (decorate-sort).
  std::vector<std::tuple<SimDuration, RequestId, std::size_t>> keyed;
  keyed.reserve(ready_.size());
  for (const auto& [id, node] : ready_) {
    const ActiveRequest* ar = driver_->find_request(id);
    if (ar == nullptr) continue;
    const SimDuration elapsed = driver_->now() - ar->arrival;
    const SimDuration slack =
        ar->type.slo() - elapsed - remaining_path_estimate(id, node);
    keyed.emplace_back(slack, id, node);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return std::get<0>(a) < std::get<0>(b); });

  std::vector<std::pair<RequestId, std::size_t>> deferred;
  std::size_t consecutive_failures = 0;
  for (const auto& [slack, id, node] : keyed) {
    (void)slack;
    const ActiveRequest* ar = driver_->find_request(id);
    if (ar == nullptr || ar->nodes[node].state >= NodeState::kPlaced) continue;
    const auto& req_node = ar->type.nodes()[node];
    const auto& svc = driver_->application().service(req_node.service);
    const SimDuration est = estimate_mean_exec(*driver_, ar->type, node);

    // Once several admissions failed in a row, the cluster is saturated —
    // defer the rest without probing every machine for each of them.
    MachineId machine;
    if (consecutive_failures < 4) {
      machine = machine_first_fit(driver_->cluster(), driver_->now(), est, svc.demand);
    }
    if (machine.valid()) {
      consecutive_failures = 0;
      driver_->place(id, node, machine, svc.demand, driver_->now(), est);
    } else {
      ++consecutive_failures;
      deferred.emplace_back(id, node);  // admission control: wait for capacity
    }
  }
  ready_ = std::move(deferred);
}

}  // namespace vmlp::sched
