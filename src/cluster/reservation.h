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
// Segments live in a flat sorted vector (cache-friendly iteration, batched
// reserve/release edits). Each segment caches a scalar *headroom* (the
// tightest remaining-capacity fraction across resource dimensions), and a
// lazily rebuilt coarse index stores per-32-segment-block component-wise
// max/min levels plus the whole-profile peak. `fits` / `max_usage` /
// `span_could_fit` then answer by walking blocks instead of every segment in
// the window, and an uncontended window is accepted from the cached peak
// alone. A std::map reference implementation lives in
// tests/map_ledger.h; the differential fuzz holds every query here
// bit-identical to it.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// back to the binary search; a valid one is walked forward to
  /// covering_index(t0), which is what the hint holds on exit.
  /// The admission probe loop keeps one hint per machine across stages, so
  /// most probes skip the binary search entirely. The covering index found
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
  /// incrementally maintained peak upper bound WITHOUT forcing an index
  /// rebuild, so the call is O(1) and the result is exact after reserve-only
  /// mutation histories and a sound lower bound (peak never understated)
  /// after releases, re-tightening on the next indexed query.
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

  /// Segments per coarse-index block (32): small enough that partial-block
  /// walks stay short, large enough that indexed window queries touch ~n/32
  /// entries.
  static constexpr std::size_t kBlockShift = 5;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;

  [[nodiscard]] double headroom_of(const ResourceVector& level) const;
  /// Max capacity-fraction the demand needs in any dimension (+inf when it
  /// needs a dimension the machine lacks). Compared against cached headroom
  /// with a safety margin so the scalar fast path never accepts a demand the
  /// exact vector compare would reject.
  [[nodiscard]] double demand_fraction(const ResourceVector& r) const;
  /// Index of the segment covering t. Throws if t precedes the origin.
  [[nodiscard]] std::size_t covering_index(SimTime t) const;
  /// covering_index(t) resolved through an optional caller-held hint (see
  /// fits): a valid hint turns the binary search into a short forward walk.
  [[nodiscard]] std::size_t hinted_covering_index(SimTime t, std::size_t* cover_hint) const;
  /// First segment index with start >= t.
  [[nodiscard]] std::size_t lower_index(SimTime t) const;
  /// Ensure a segment starts exactly at t; returns its index.
  std::size_t split_index_at(SimTime t);
  /// Merge adjacent segments with equal levels around the touched range.
  void coalesce(SimTime t0, SimTime t1);
  /// Rebuild peak/block caches if a mutation invalidated them.
  void ensure_index() const;
  [[nodiscard]] bool segment_blocks(const Segment& s, const ResourceVector& r,
                                    double frac) const;

  ResourceVector capacity_;
  /// Component-wise 1/capacity (0 where capacity is 0) for headroom math.
  ResourceVector inv_capacity_;
  obs::Collector* obs_ = nullptr;  ///< optional telemetry sink (write-only)

  // Storage is arena-backed: ledgers are per-trial objects, and the segment
  // vector plus the index blocks below are the scheduler's highest-churn
  // allocations after engine events. Inside a shard's arena scope their
  // growth is lane-local; outside one they are heap vectors.
  ArenaVector<Segment> segs_;
  // Coarse window-max index over the segments, rebuilt lazily on the first
  // query after a mutation — and only from `dirty_from_` onward.
  // Mutations target windows at or after "now" while the profile keeps up to
  // a second of history in front, so the long historical prefix of blocks
  // stays valid and a rebuild touches only the recent tail. Erase/insert
  // shifts indices only at or after the mutation point, never before it,
  // which is what keeps prefix blocks exact.
  mutable ArenaVector<ResourceVector> block_max_;
  mutable ArenaVector<ResourceVector> block_min_;
  /// Whole-profile peak, maintained as a monotone UPPER bound between index
  /// rebuilds: exact right after ensure_index(); reserve() folds the levels
  /// it writes (still exact — reserving only raises levels); release() and
  /// compact_before() leave it stale-high. free_fraction() reads it without
  /// forcing a rebuild, so its result is a sound lower bound on the true
  /// guaranteed-free fraction — which is all the cell headroom summary
  /// needs, and what keeps that summary from re-folding every mutated
  /// ledger in the cluster (O(segments) each) once per mutation.
  mutable ResourceVector peak_;
  mutable bool index_dirty_ = true;
  /// Lowest segment index whose block may be stale (mutations lower it,
  /// rebuilds reset it past the end).
  mutable std::size_t dirty_from_ = 0;
  std::uint64_t version_ = 0;  ///< mutation epoch, see version()
};

}  // namespace vmlp::cluster
