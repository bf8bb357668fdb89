#include "cluster/cell_topology.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "cluster/cluster.h"
#include "cluster/machine.h"
#include "common/audit.h"
#include "common/error.h"

namespace vmlp::cluster {
namespace {

/// Same margin discipline as the ledger's scalar headroom fast path
/// (reservation.cpp kHeadroomSafety): the summary may only claim a fit the
/// exact vector compare would also accept.
constexpr double kHeadroomSafety = 1e-9;

/// Forces the first refresh_block fold: real ledger epochs start at 0.
constexpr std::uint64_t kNeverSeen = std::numeric_limits<std::uint64_t>::max();

}  // namespace

CellTopology::CellTopology(std::size_t machine_count, const CellTopologyParams& params) {
  VMLP_CHECK_MSG(machine_count > 0, "topology needs machines");
  // MachineId narrowing guard, repeated from Cluster: this member constructs
  // before Cluster's ctor body runs its checks, and the per-machine vectors
  // below must not be sized from an id space that cannot exist.
  VMLP_CHECK_MSG(machine_count < std::numeric_limits<std::uint32_t>::max(),
                 "machine_count " << machine_count << " overflows MachineId");
  std::size_t cells = params.cells;
  if (cells == 0) cells = (machine_count + kAutoCellTarget - 1) / kAutoCellTarget;
  cells = std::min(cells, machine_count);  // no empty cells

  // Contiguous partition: base machines per cell, the first `extra` cells
  // take one more. Contiguity keeps a cell's machines inside a run of
  // headroom-index blocks and preserves rack adjacency (net::Topology racks
  // are id-contiguous too).
  const std::size_t base = machine_count / cells;
  const std::size_t extra = machine_count % cells;
  begins_.reserve(cells + 1);
  begins_.push_back(0);
  for (std::size_t c = 0; c < cells; ++c) {
    begins_.push_back(begins_.back() + base + (c < extra ? 1 : 0));
  }
  VMLP_CHECK(begins_.back() == machine_count);

  cell_of_.resize(machine_count);
  for (std::size_t c = 0; c < cells; ++c) {
    for (std::size_t i = begins_[c]; i < begins_[c + 1]; ++i) {
      cell_of_[i] = static_cast<std::uint32_t>(c);
    }
  }
  live_.assign(cells, 0);
  cell_peak_.assign(cells, 0);

  const std::size_t blocks = (machine_count + kBlockSize - 1) >> kBlockShift;
  free_frac_.assign(machine_count, 0.0);
  seen_epoch_.assign(machine_count, kNeverSeen);
  block_free_max_.assign(blocks, 0.0);
  block_folded_.assign(blocks, 0);  // first query folds from the ledgers
}

void CellTopology::ranked_cells(std::vector<std::size_t>& out) const {
  out.resize(cell_count());
  std::iota(out.begin(), out.end(), std::size_t{0});
  // Stable insertion-order start + exact integer density compare + id
  // tie-break: the ranking is a pure function of the live counters.
  std::sort(out.begin(), out.end(), [this](std::size_t a, std::size_t b) {
    const std::uint64_t lhs = live_[a] * static_cast<std::uint64_t>(cell_size(b));
    const std::uint64_t rhs = live_[b] * static_cast<std::uint64_t>(cell_size(a));
    if (lhs != rhs) return lhs < rhs;
    return a < b;
  });
}

void CellTopology::note_mutation(MachineId m, const Machine& machine) {
  const std::size_t i = m.value();
  VMLP_CHECK_MSG(i < machine_count(), "note_mutation machine id out of range");
  const double before = free_frac_[i];
  const double after = machine.ledger().free_fraction();  // O(1): cached peak bound
  free_frac_[i] = after;
  seen_epoch_[i] = machine.ledger().version();
  const std::size_t b = i >> kBlockShift;
  if (block_folded_[b] == 0) return;  // first query folds the whole block
  // The max stays exact in O(1) unless the machine that held it fell: only
  // then can the new maximum be another member's, so refold the block.
  if (after >= block_free_max_[b]) {
    block_free_max_[b] = after;
  } else if (before == block_free_max_[b]) {
    fold_block_max(b);
  }
}

double CellTopology::fold_block_max(std::size_t b) const {
  const std::size_t lo = b << kBlockShift;
  const std::size_t hi = std::min(machine_count(), lo + kBlockSize);
  double mx = 0.0;  // fractions are never negative (free_fraction clamps at 0)
  for (std::size_t i = lo; i < hi; ++i) mx = std::max(mx, free_frac_[i]);
  block_free_max_[b] = mx;
  return mx;
}

double CellTopology::refresh_block(const Cluster& cluster, std::size_t b) const {
  const std::size_t lo = b << kBlockShift;
  const std::size_t hi = std::min(machine_count(), lo + kBlockSize);
  if (block_folded_[b] != 0) {
    // Push-maintained: the cached max is current by the driver's
    // notification discipline. The audit tier proves that discipline — a
    // ledger that moved without note_mutation fails loudly here instead of
    // silently degrading the jump hint — and that note_mutation's
    // incremental upkeep left the max a fresh fold would give.
    if (::vmlp::audit::enabled()) {
      double mx = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        const auto& led = cluster.machine(MachineId(static_cast<std::uint32_t>(i))).ledger();
        VMLP_AUDIT_ASSERT(led.version() == seen_epoch_[i],
                          "headroom summary stale: machine "
                              << i << " mutated (ledger epoch " << led.version()
                              << ", summary saw " << seen_epoch_[i]
                              << ") without CellTopology::note_mutation");
        mx = std::max(mx, free_frac_[i]);
      }
      VMLP_AUDIT_ASSERT(mx == block_free_max_[b], "headroom block " << b << " max "
                                                      << block_free_max_[b]
                                                      << " differs from its fold " << mx);
    }
    return block_free_max_[b];
  }
  for (std::size_t i = lo; i < hi; ++i) {
    const auto& led = cluster.machine(MachineId(static_cast<std::uint32_t>(i))).ledger();
    free_frac_[i] = led.free_fraction();
    seen_epoch_[i] = led.version();
  }
  block_folded_[b] = 1;
  return fold_block_max(b);
}

std::size_t CellTopology::first_fit_candidate(const Cluster& cluster, std::size_t cell,
                                              std::size_t cursor, double demand_frac) const {
  const std::size_t begin = cell_begin(cell);
  const std::size_t size = cell_size(cell);
  const std::size_t end = begin + size;
  // Blocks are global (a boundary block may straddle cells); the member scan
  // below clips to the cell range, so a straddling block driven past the
  // threshold by a neighbour-cell machine is just a skipped false positive.
  const std::size_t begin_block = begin >> kBlockShift;
  const std::size_t last_block = (end - 1) >> kBlockShift;
  const std::size_t n_blocks = last_block - begin_block + 1;
  const std::size_t start_block = (begin + (cursor % size)) >> kBlockShift;
  // Hoisted admission threshold: the same `demand_frac + kHeadroomSafety`
  // IEEE sum for every member. `x >= need` is exactly the complement of a
  // `need > x` skip (no NaNs: an infinite demand_frac stays infinite under +
  // and simply never matches).
  const double need = demand_frac + kHeadroomSafety;
  for (std::size_t step = 0; step < n_blocks; ++step) {
    std::size_t b = start_block + step;
    if (b > last_block) b -= n_blocks;  // wrap within the cell's block run
    const double block_max = refresh_block(cluster, b);
    if (need > block_max) continue;
    const std::size_t lo = std::max(b << kBlockShift, begin);
    const std::size_t hi = std::min((b + 1) << kBlockShift, end);
    for (std::size_t i = lo; i < hi; ++i) {
      if (free_frac_[i] >= need &&
          cluster.machine(MachineId(static_cast<std::uint32_t>(i))).up()) {
        return i;
      }
    }
  }
  return kNoMachine;
}

}  // namespace vmlp::cluster
