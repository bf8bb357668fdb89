// ReservationLedger: a machine's piecewise-constant *future* resource-usage
// profile.
//
// This is the structure behind Algorithm 1's admission test
// `Compare t → t+Δt : l_res ≥ u_res` — the self-organizing module reserves a
// microservice's demand over its estimated execution window, so later
// placement decisions see the machine's committed future, not just its
// present load. Non-reserving baseline schedulers use it degenerately
// (reserve from "now" with no lookahead).
//
// Segments live in a flat sorted vector. Every write lands at or after the
// simulation's "now", a few segments from the end, while the vector also
// holds up to ~11 s of history in front, so upkeep is paid on the live tail
// only: index searches gallop back from the end, a write searches once and
// walks forward to its window end, and the whole-profile peak is a cached
// fold of the untouched prefix plus a refold of the tail a write dirtied.
// Each segment caches a scalar *headroom* (the tightest remaining-capacity
// fraction across resource dimensions); `fits` / `max_usage` /
// `span_could_fit` walk the window's segments from the covering index, and
// an uncontended window is accepted from the peak alone. A std::map
// reference implementation lives in tests/map_ledger.h; the differential
// fuzz holds every query and free_fraction() here bit-identical to it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/resources.h"
#include "common/arena.h"
#include "common/types.h"

namespace vmlp::obs {
class Collector;
}

namespace vmlp::cluster {

/// "No covering-index hint" sentinel for ReservationLedger::fits /
/// span_could_fit. See the hint contract on fits().
inline constexpr std::size_t kNoCoverHint = static_cast<std::size_t>(-1);

class ReservationLedger {
 public:
  explicit ReservationLedger(ResourceVector capacity);

  [[nodiscard]] const ResourceVector& capacity() const { return capacity_; }

  /// Add `r` to the usage profile over [t0, t1). Overbooking is legal — the
  /// execution model punishes it — but tracked; `fits` tells schedulers
  /// whether the addition would stay within capacity.
  void reserve(SimTime t0, SimTime t1, const ResourceVector& r);
  /// Subtract `r` over [t0, t1) (e.g. an instance finished early or was
  /// re-planned). Throws if the profile would go negative.
  void release(SimTime t0, SimTime t1, const ResourceVector& r);

  /// Usage level at time t.
  [[nodiscard]] ResourceVector usage_at(SimTime t) const;
  /// Component-wise max usage over [t0, t1).
  [[nodiscard]] ResourceVector max_usage(SimTime t0, SimTime t1) const;
  /// Does `r` fit atop the *quietest* level the window [t0, t1) reaches,
  /// i.e. `(m + r).fits_within(capacity())` for m the component-wise min
  /// usage over the window? Admission classification uses it: if the demand
  /// does not fit even against the window minimum, no start inside the
  /// window can admit. The fold has an early exit: the running min only
  /// decreases as segments fold in and double addition is monotone per
  /// component, so the first partial min that admits the demand already
  /// decides the answer. Admission probe pruning calls this on every
  /// contended machine; the common "machine is probeable" verdict usually
  /// resolves within a segment or two instead of walking the whole
  /// multi-step span.
  /// `cover_hint` (optional): caller-held covering-index cache for repeated
  /// queries with nearby window starts. Any value is accepted — a hint that
  /// no longer names a segment starting at or before t0 in the *current*
  /// profile (kNoCoverHint, out of range, or left ahead by mutations) falls
  /// back to the search from the end; a valid one is walked forward to
  /// covering_index(t0), which is what the hint holds on exit.
  /// The admission probe loop keeps one hint per machine across stages, so
  /// most probes skip the search entirely. The covering index found
  /// is identical either way — results do not depend on the hint.
  [[nodiscard]] bool span_could_fit(SimTime t0, SimTime t1, const ResourceVector& r,
                                    std::size_t* cover_hint = nullptr) const;
  /// capacity - max_usage over the window, clamped at 0.
  [[nodiscard]] ResourceVector available(SimTime t0, SimTime t1) const;
  /// Algorithm 1's admission test: does `r` fit within spare capacity over
  /// the whole window [t0, t1)? `cover_hint`: see span_could_fit.
  [[nodiscard]] bool fits(SimTime t0, SimTime t1, const ResourceVector& r,
                          std::size_t* cover_hint = nullptr) const;

  /// Drop profile detail before `t` (memory bound for long runs). The level
  /// at `t` is preserved.
  void compact_before(SimTime t);

  /// Deep structural validation (audit tier): the profile is non-empty,
  /// every level is finite and non-negative, the segment list is canonical
  /// (ordered, no adjacent equal levels), and every cached headroom matches
  /// its level. Throws InvariantError on violation. Called automatically after mutations when
  /// vmlp::audit::enabled(); also callable directly from tests.
  void audit_invariants() const;

  [[nodiscard]] std::size_t segment_count() const { return segs_.size(); }

  /// Monotonic mutation epoch: incremented by every reserve/release and by
  /// any compact_before that actually erases history. Cached summaries built
  /// from this ledger (the cell headroom index) compare epochs to detect
  /// staleness without being wired into the mutation path.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Guaranteed free fraction: min over dimensions of
  /// (capacity - whole-profile peak) / capacity, clamped at 0. A demand whose
  /// demand_fraction_of() is strictly below this fits at *every* time — the
  /// cell headroom index uses it as a sufficient-fit summary. It reads the
  /// incrementally maintained peak upper bound WITHOUT forcing a refresh,
  /// so the call is O(1) and the result is exact after reserve-only
  /// mutation histories and a sound lower bound (peak never understated)
  /// after releases, re-tightening on the next fits / max_usage /
  /// span_could_fit query.
  [[nodiscard]] double free_fraction() const;

  /// Max capacity-fraction `r` needs in any dimension (+inf when it needs a
  /// dimension the machine lacks). Public counterpart of the internal scalar
  /// used by the headroom fast path, exposed for the cell headroom index.
  [[nodiscard]] double demand_fraction_of(const ResourceVector& r) const {
    return demand_fraction(r);
  }

  /// Attach (or detach with nullptr) a telemetry collector. Write-only:
  /// recorded hint-hit/query/booking counts never feed back into any query
  /// result, so observed and unobserved ledgers answer identically.
  void set_observer(obs::Collector* obs) { obs_ = obs; }

 private:
  /// One piecewise-constant segment: the usage level from `start` until the
  /// next segment's start (the last segment extends to infinity).
  struct Segment {
    SimTime start;
    ResourceVector level;
    /// Cached min over dimensions of (capacity - level) / capacity — the
    /// scalar headroom fraction. A demand whose own max capacity-fraction is
    /// below this provably fits the segment without the vector compare.
    double headroom;
  };

  [[nodiscard]] double headroom_of(const ResourceVector& level) const;
  /// Max capacity-fraction the demand needs in any dimension (+inf when it
  /// needs a dimension the machine lacks). Compared against cached headroom
  /// with a safety margin so the scalar fast path never accepts a demand the
  /// exact vector compare would reject.
  [[nodiscard]] double demand_fraction(const ResourceVector& r) const;
  /// Index of the segment covering t. Throws if t precedes the origin.
  [[nodiscard]] std::size_t covering_index(SimTime t) const;
  /// covering_index(t) resolved through an optional caller-held hint (see
  /// fits): a valid hint turns the search into a short forward walk.
  [[nodiscard]] std::size_t hinted_covering_index(SimTime t, std::size_t* cover_hint) const;
  /// First segment index with start >= t.
  [[nodiscard]] std::size_t lower_index(SimTime t) const;
  /// Partition point of `segs_` under `before` (true on a prefix, false on
  /// the rest), found by galloping back from the end: the same index
  /// std::partition_point returns, in O(log distance from the end).
  template <class Before>
  [[nodiscard]] std::size_t partition_from_end(Before before) const;
  /// Ensure segments start exactly at t0 and at t1 (one search, for t0; t1
  /// is reached by walking forward) and return the index range [t0, t1).
  std::pair<std::size_t, std::size_t> split_window(SimTime t0, SimTime t1);
  /// Merge adjacent segments with equal levels from `begin - 1` through the
  /// last segment starting at or before t1.
  void coalesce(std::size_t begin, SimTime t1);
  /// Make peak_ exact if a mutation left it stale (inline clean check).
  void refresh_peak() const {
    if (dirty_from_ != kClean) refold_peak();
  }
  /// Fold newly clean segments into the prefix peak, then the dirty tail.
  void refold_peak() const;
  [[nodiscard]] bool segment_blocks(const Segment& s, const ResourceVector& r,
                                    double frac) const;

  ResourceVector capacity_;
  /// Component-wise 1/capacity (0 where capacity is 0) for headroom math.
  ResourceVector inv_capacity_;
  obs::Collector* obs_ = nullptr;  ///< optional telemetry sink (write-only)

  // Storage is arena-backed: ledgers are per-trial objects, and the segment
  // vector is the scheduler's highest-churn allocation after engine events.
  // Inside a shard's arena scope its growth is lane-local; outside one it is
  // a heap vector.
  ArenaVector<Segment> segs_;
  /// Whole-profile peak, maintained as a monotone UPPER bound between
  /// refreshes: exact right after refresh_peak(); reserve() folds the levels
  /// it writes (still exact — reserving only raises levels); release() and
  /// compact_before() leave it stale-high. free_fraction() reads it without
  /// forcing a refresh, so its result is a sound lower bound on the true
  /// guaranteed-free fraction — which is all the cell headroom summary
  /// needs, and what keeps that summary from re-folding every mutated
  /// ledger in the cluster once per mutation.
  mutable ResourceVector peak_;
  /// Component-wise max over segments [0, prefix_end_), the untouched
  /// prefix. Writes edit, insert and erase only at or after the index they
  /// search, so segments below the lowest dirty index keep both their level
  /// and their position; a refresh extends the prefix over them (keeping a
  /// short lag, see refold_peak) and refolds only the tail. compact_before
  /// shifts every index and resets the prefix to empty.
  mutable ResourceVector prefix_peak_;
  mutable std::size_t prefix_end_ = 0;
  /// Lowest segment index a mutation touched since the last refresh;
  /// kClean when peak_ is exact.
  static constexpr std::size_t kClean = static_cast<std::size_t>(-1);
  mutable std::size_t dirty_from_ = 0;
  std::uint64_t version_ = 0;  ///< mutation epoch, see version()
};

}  // namespace vmlp::cluster
