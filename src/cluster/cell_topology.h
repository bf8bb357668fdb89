// CellTopology: hierarchical grouping of a cluster's machines into cells.
//
// The paper's evaluation cell is 100 machines; scaling to 10k+ machines
// (ROADMAP "100 → 10k+, multi-cell") needs two things a flat cluster lacks:
//
//  * a *router* level — cells ranked by live-placement load so admission
//    starts in the least-loaded cell and sheds to the next when one
//    saturates, keeping the per-decision search bounded by a cell, not the
//    cluster; and
//  * a *headroom summary index* — per cell, a per-32-machine block max
//    over each machine's guaranteed free fraction
//    (ReservationLedger::free_fraction — an O(1) read of the ledger's
//    maintained peak bound, deliberately NOT a peak refresh; see its
//    declaration). The fraction is a sound lower bound, so a block whose
//    cached max admits a demand provably contains a machine where the demand
//    fits at every time, and machine selection can jump straight to it
//    instead of scanning the cell. The index is push-maintained: the driver
//    notifies it (note_mutation) right after each ledger reserve/release, so
//    the query path reads only cached values — summaries stay a
//    deterministic function of the simulation's mutation history, which is
//    what keeps decisions byte-stable run to run, and the audit tier
//    cross-checks cached epochs against ledger versions to catch a mutation
//    site that forgot to notify.
//
// Determinism contract: a 1-cell topology is structurally inert — the router
// ranks a single cell and the probe arithmetic degenerates to the flat
// cluster scan, byte-identical to the pre-topology code
// (tools/determinism_check claim 7). The headroom index is only consulted in
// multi-cell mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace vmlp::cluster {

class Cluster;
class Machine;

struct CellTopologyParams {
  /// Number of cells the machines are partitioned into (contiguous id
  /// ranges; sizes differ by at most one). 1 keeps today's flat single-cell
  /// cluster. 0 auto-sizes to ceil(machines / kAutoCellTarget) so 1k
  /// machines become 4 cells and 10k become 40. Clamped to machine_count.
  std::size_t cells = 1;
};

class CellTopology {
 public:
  /// Auto-sizing target: machines per cell when params.cells == 0. Matches
  /// the order of magnitude of the paper's 100-machine evaluation cell while
  /// keeping per-cell scans comfortably cache-resident.
  static constexpr std::size_t kAutoCellTarget = 256;
  /// Machines per headroom-index block: short enough that a member scan
  /// stays cheap, long enough that a cell walk skips most machines.
  static constexpr std::size_t kBlockShift = 5;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
  /// "No candidate" sentinel from first_fit_candidate.
  static constexpr std::size_t kNoMachine = static_cast<std::size_t>(-1);

  CellTopology(std::size_t machine_count, const CellTopologyParams& params);

  [[nodiscard]] std::size_t machine_count() const { return cell_of_.size(); }
  [[nodiscard]] std::size_t cell_count() const { return begins_.size() - 1; }
  [[nodiscard]] std::size_t cell_of(MachineId m) const {
    VMLP_CHECK_MSG(m.valid() && m.value() < cell_of_.size(), "machine id out of range");
    return cell_of_[m.value()];
  }
  /// First machine index of `cell` (cells are contiguous id ranges).
  [[nodiscard]] std::size_t cell_begin(std::size_t cell) const {
    VMLP_CHECK_MSG(cell < cell_count(), "cell index out of range");
    return begins_[cell];
  }
  [[nodiscard]] std::size_t cell_size(std::size_t cell) const {
    VMLP_CHECK_MSG(cell < cell_count(), "cell index out of range");
    return begins_[cell + 1] - begins_[cell];
  }

  // --- router load accounting --------------------------------------------
  // O(1) counters maintained by the driver at the four placed-node
  // transitions (place / finish / unplace / fail). They are the router's
  // ranking signal: cheap, exact, and independent of float accumulation
  // order.
  void add_placement(MachineId m) {
    const std::size_t c = cell_of(m);
    ++live_[c];
    if (live_[c] > cell_peak_[c]) cell_peak_[c] = live_[c];
    ++live_total_;
    if (live_total_ > live_peak_) live_peak_ = live_total_;
  }
  void remove_placement(MachineId m) {
    const std::size_t c = cell_of(m);
    VMLP_CHECK_MSG(live_[c] > 0, "cell live-placement counter underflow");
    --live_[c];
    --live_total_;
  }
  /// Push-maintain the headroom index: the driver calls this immediately
  /// after every reserve/release it issues on `machine`'s ledger, and the
  /// index caches the machine's (O(1)) free_fraction and keeps its block max
  /// exact — raised in O(1), refolded over the 32 cached fractions only when
  /// the machine that held the max fell — so the *query* path touches no
  /// ledger state at all. A missed call site would leave a stale
  /// summary; that is advisory-only (admission re-validates every candidate
  /// with the exact ledger query, so decisions stay correct — only the jump
  /// hint quality degrades) and loud under the audit tier, where
  /// refresh_block cross-checks cached epochs against ledger versions.
  /// compact_before needs no call: it never moves the ledger's maintained
  /// peak bound, so free_fraction is unchanged by it.
  void note_mutation(MachineId m, const Machine& machine);
  [[nodiscard]] std::uint64_t live_placements(std::size_t cell) const {
    VMLP_CHECK_MSG(cell < cell_count(), "cell index out of range");
    return live_[cell];
  }
  [[nodiscard]] std::uint64_t live_total() const { return live_total_; }
  [[nodiscard]] std::uint64_t live_peak() const { return live_peak_; }
  [[nodiscard]] std::uint64_t cell_live_peak(std::size_t cell) const {
    VMLP_CHECK_MSG(cell < cell_count(), "cell index out of range");
    return cell_peak_[cell];
  }

  /// Fill `out` with every cell id, ranked ascending by live-placement load
  /// *density* (live / size, so unequal cell sizes compare fairly), ties
  /// broken by lower cell id. The density compare is exact integer
  /// cross-multiplication (live_a * size_b vs live_b * size_a) — no floats,
  /// so ranking can never depend on accumulation order. Reuses `out`'s
  /// storage; allocation-free once warmed.
  void ranked_cells(std::vector<std::size_t>& out) const;

  // --- headroom summary index (multi-cell advisory) ----------------------
  /// First machine of `cell` — searching block-wise from the block holding
  /// cell-local offset `cursor`, wrapping — that is up and whose guaranteed
  /// free fraction admits `demand_frac` (strictly, with the same safety
  /// margin discipline as the ledger's scalar fast path). Such a machine
  /// provably fits the demand at every time; kNoMachine when no block max
  /// admits it. Advisory only: callers re-validate with the exact ledger
  /// query (plan overlays can still block). Deterministic: cached fractions
  /// are refreshed from ledger mutation epochs, so the answer is a pure
  /// function of the run's deterministic mutation/query history.
  [[nodiscard]] std::size_t first_fit_candidate(const Cluster& cluster, std::size_t cell,
                                                std::size_t cursor, double demand_frac) const;

 private:
  /// Block max free fraction of global block `b`. First query folds every
  /// member from its ledger; afterwards the cached max is simply read —
  /// note_mutation keeps it current. Under the audit tier, re-validates the
  /// cached epochs against ledger versions (catches a mutation site that
  /// forgot to notify) and the cached max against a fresh fold.
  double refresh_block(const Cluster& cluster, std::size_t b) const;
  /// Refold block b's max over the cached member fractions (no ledger
  /// touches) into block_free_max_ and return it.
  double fold_block_max(std::size_t b) const;

  std::vector<std::size_t> begins_;    ///< cell_count()+1 partition bounds
  std::vector<std::uint32_t> cell_of_; ///< machine index -> cell id
  std::vector<std::uint64_t> live_;      ///< per-cell live placed-node count
  std::vector<std::uint64_t> cell_peak_; ///< per-cell live high-water marks
  std::uint64_t live_total_ = 0;
  std::uint64_t live_peak_ = 0;

  // Headroom index caches (lazily refreshed; mutable because queries are
  // logically const — the cache is a pure function of ledger state).
  mutable std::vector<double> free_frac_;          ///< per machine
  mutable std::vector<std::uint64_t> seen_epoch_;  ///< ledger version seen
  mutable std::vector<double> block_free_max_;     ///< per 32-machine block
  /// Whether block b's members have been folded from their ledgers at least
  /// once (the lazy first query). From then on block_free_max_ is maintained
  /// by note_mutation over the cached fractions alone: a pull model that
  /// validated blocks against ledger versions per query cost O(32) scattered
  /// loads per block, and a contended candidate scan walking every block of
  /// a cell re-coupled per-stage cost to cell size.
  mutable std::vector<std::uint8_t> block_folded_;
};

}  // namespace vmlp::cluster
