#include "sched/common.h"

#include <cmath>
#include <cstdint>
#include <vector>

namespace vmlp::sched {

namespace {

/// Baseline scans on a multi-cell topology go cell by cell in the router's
/// ranked (least-loaded-first) order and stop at the first cell that yields a
/// candidate — the same bounded-search story as the v-MLP router, so baseline
/// placement cost also stays O(cell), not O(cluster), as machine count grows.
/// On a single-cell topology the ranked order is the whole ascending-id range
/// and every helper is bit-identical to the historical flat scan.
///
/// The density ranking itself is an exact-integer cross-multiplication sort
/// over at most a few dozen cells — the integer compare is what keeps
/// ranking independent of accumulation order. The ranked buffer is reused
/// per thread so the scan itself is allocation-free after warm-up (worker
/// threads run disjoint trials; a thread-local is exactly one live scan
/// deep).
template <typename PerCell>
MachineId scan_ranked_cells(const cluster::Cluster& clustr, PerCell&& per_cell) {
  static thread_local std::vector<std::size_t> ranked;
  clustr.cells().ranked_cells(ranked);
  for (std::size_t cell : ranked) {
    const std::size_t begin = clustr.cells().cell_begin(cell);
    const std::size_t end = begin + clustr.cells().cell_size(cell);
    const MachineId found = per_cell(begin, end);
    if (found.valid()) return found;
  }
  return MachineId::invalid();
}

}  // namespace

SimDuration estimate_mean_exec(SimulationDriver& driver, const app::RequestType& type,
                               std::size_t node) {
  const auto& req_node = type.nodes()[node];
  const auto est = driver.profiles().mean_exec(req_node.service, type.id());
  if (est.has_value()) return std::max<SimDuration>(1, *est);
  const auto& svc = driver.application().service(req_node.service);
  return std::max<SimDuration>(
      1, static_cast<SimDuration>(std::llround(static_cast<double>(svc.nominal_time) *
                                               req_node.time_scale)));
}

MachineId machine_fewest_containers(const cluster::Cluster& clustr) {
  return scan_ranked_cells(clustr, [&](std::size_t begin, std::size_t end) {
    MachineId best;
    std::size_t best_count = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& m = clustr.machine(MachineId(static_cast<std::uint32_t>(i)));
      if (!m.up()) continue;
      if (!best.valid() || m.container_count() < best_count) {
        best = m.id();
        best_count = m.container_count();
      }
    }
    return best;
  });
}

MachineId machine_lowest_utilization(const cluster::Cluster& clustr) {
  return scan_ranked_cells(clustr, [&](std::size_t begin, std::size_t end) {
    MachineId best;
    double best_util = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& m = clustr.machine(MachineId(static_cast<std::uint32_t>(i)));
      if (!m.up()) continue;
      const double u = m.utilization_sum();
      if (!best.valid() || u < best_util) {
        best = m.id();
        best_util = u;
      }
    }
    return best;
  });
}

MachineId machine_first_fit(const cluster::Cluster& clustr, SimTime start, SimDuration duration,
                            const cluster::ResourceVector& demand) {
  return scan_ranked_cells(clustr, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto& m = clustr.machine(MachineId(static_cast<std::uint32_t>(i)));
      if (!m.up()) continue;
      if (m.ledger().fits(start, start + duration, demand)) return m.id();
    }
    return MachineId::invalid();
  });
}

MachineId machine_best_fit(const cluster::Cluster& clustr, SimTime start, SimDuration duration,
                           const cluster::ResourceVector& demand) {
  // Multi-cell: best fit *within* the least-loaded cell that fits at all —
  // cell-local best fit, by design, so the scan stays cell-bounded.
  return scan_ranked_cells(clustr, [&](std::size_t begin, std::size_t end) {
    MachineId best;
    double best_spare = -1.0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& m = clustr.machine(MachineId(static_cast<std::uint32_t>(i)));
      if (!m.up()) continue;
      if (!m.ledger().fits(start, start + duration, demand)) continue;
      const auto avail = m.ledger().available(start, start + duration);
      if (avail.cpu > best_spare) {
        best_spare = avail.cpu;
        best = m.id();
      }
    }
    return best;
  });
}

}  // namespace vmlp::sched
