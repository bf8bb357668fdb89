#include "cluster/reservation.h"

#include <algorithm>

#include "common/audit.h"
#include "common/error.h"
#include "obs/collector.h"

namespace vmlp::cluster {
namespace {

bool nearly_equal(const ResourceVector& a, const ResourceVector& b) {
  const ResourceVector d = a - b;
  return !d.any_negative() && !(b - a).any_negative();
}

/// Margin on the scalar headroom fast path. Acceptance requires
/// `frac + kHeadroomSafety <= headroom`; the margin (relative to capacity)
/// dwarfs multiplication rounding, so the scalar path can only accept
/// demands the exact vector compare would also accept — never the reverse.
constexpr double kHeadroomSafety = 1e-9;

}  // namespace

ReservationLedger::ReservationLedger(ResourceVector capacity) : capacity_(capacity) {
  VMLP_CHECK_MSG(!capacity.any_negative(), "negative capacity");
  inv_capacity_ = ResourceVector{capacity.cpu > 0 ? 1.0 / capacity.cpu : 0.0,
                                 capacity.mem > 0 ? 1.0 / capacity.mem : 0.0,
                                 capacity.io > 0 ? 1.0 / capacity.io : 0.0};
  segs_.push_back(Segment{0, ResourceVector::zero(), headroom_of(ResourceVector::zero())});
}

// --------------------------------------------------------------------------
// Sorted segment vector + lazy coarse index.
// --------------------------------------------------------------------------

double ReservationLedger::headroom_of(const ResourceVector& level) const {
  // min over dimensions of (capacity - level) / capacity. Zero-capacity
  // dimensions contribute 0, disabling the scalar fast path (conservative).
  const double h_cpu = (capacity_.cpu - level.cpu) * inv_capacity_.cpu;
  const double h_mem = (capacity_.mem - level.mem) * inv_capacity_.mem;
  const double h_io = (capacity_.io - level.io) * inv_capacity_.io;
  return std::min(h_cpu, std::min(h_mem, h_io));
}

double ReservationLedger::demand_fraction(const ResourceVector& r) const {
  const double f_cpu = r.cpu * inv_capacity_.cpu;
  const double f_mem = r.mem * inv_capacity_.mem;
  const double f_io = r.io * inv_capacity_.io;
  return std::max(f_cpu, std::max(f_mem, f_io));
}

bool ReservationLedger::segment_blocks(const Segment& s, const ResourceVector& r,
                                       double frac) const {
  if (frac + kHeadroomSafety <= s.headroom) return false;  // provably fits
  return !(s.level + r).fits_within(capacity_);
}

std::size_t ReservationLedger::lower_index(SimTime t) const {
  const auto it = std::lower_bound(segs_.begin(), segs_.end(), t,
                                   [](const Segment& s, SimTime v) { return s.start < v; });
  return static_cast<std::size_t>(it - segs_.begin());
}

std::size_t ReservationLedger::covering_index(SimTime t) const {
  const auto it = std::upper_bound(segs_.begin(), segs_.end(), t,
                                   [](SimTime v, const Segment& s) { return v < s.start; });
  VMLP_CHECK_MSG(it != segs_.begin(), "time " << t << " precedes ledger origin");
  return static_cast<std::size_t>(it - segs_.begin()) - 1;
}

std::size_t ReservationLedger::hinted_covering_index(SimTime t,
                                                     std::size_t* cover_hint) const {
  // A usable hint names a segment starting at or before t *in the current
  // profile* — checked here, so callers may carry hints across mutations.
  // When it holds, the covering segment lies at or after the hint: walk
  // forward to the last segment with start <= t — the same index the binary
  // search would find. A hint left far behind by mutations would make that
  // walk worse than the O(log n) search, so bail out after a few steps.
  constexpr std::size_t kMaxHintWalk = 32;
  if (cover_hint != nullptr && *cover_hint < segs_.size() && segs_[*cover_hint].start <= t) {
    if (obs_ != nullptr) obs_->count(obs_->ledger().hints_hit);
    std::size_t lo = *cover_hint;
    std::size_t walked = 0;
    while (lo + 1 < segs_.size() && segs_[lo + 1].start <= t) {
      if (++walked > kMaxHintWalk) {
        lo = covering_index(t);
        break;
      }
      ++lo;
    }
    *cover_hint = lo;
    return lo;
  }
  if (obs_ != nullptr && cover_hint != nullptr) obs_->count(obs_->ledger().hints_missed);
  const std::size_t lo = covering_index(t);
  if (cover_hint != nullptr) *cover_hint = lo;
  return lo;
}

std::size_t ReservationLedger::split_index_at(SimTime t) {
  std::size_t i = lower_index(t);
  if (i < segs_.size() && segs_[i].start == t) return i;
  VMLP_CHECK_MSG(i != 0, "time " << t << " precedes ledger origin");
  segs_.insert(segs_.begin() + static_cast<std::ptrdiff_t>(i),
               Segment{t, segs_[i - 1].level, segs_[i - 1].headroom});
  return i;
}

void ReservationLedger::coalesce(SimTime t0, SimTime t1) {
  // Walk from the segment before the touched range, erasing the later of
  // each nearly-equal adjacent pair.
  std::size_t i = lower_index(t0);
  if (i > 0) --i;
  while (i + 1 < segs_.size()) {
    if (segs_[i + 1].start > t1) break;
    if (nearly_equal(segs_[i].level, segs_[i + 1].level)) {
      segs_.erase(segs_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    } else {
      ++i;
    }
  }
}

void ReservationLedger::ensure_index() const {
  if (!index_dirty_) return;
  const std::size_t blocks = (segs_.size() + kBlockSize - 1) >> kBlockShift;
  block_max_.resize(blocks);
  block_min_.resize(blocks);
  // Only blocks from the first mutated index onward can be stale: edits
  // never shift or change segments below `dirty_from_`, so the historical
  // prefix keeps its cached entries. The peak refold over block maxima is
  // O(blocks) — noise next to even one partial rebuild.
  const std::size_t first =
      std::min(dirty_from_, segs_.size() - 1) >> kBlockShift;
  for (std::size_t b = first; b < blocks; ++b) {
    const std::size_t lo = b << kBlockShift;
    const std::size_t hi = std::min(segs_.size(), lo + kBlockSize);
    ResourceVector mx = segs_[lo].level;
    ResourceVector mn = segs_[lo].level;
    for (std::size_t i = lo + 1; i < hi; ++i) {
      mx = mx.max(segs_[i].level);
      mn = mn.min(segs_[i].level);
    }
    block_max_[b] = mx;
    block_min_[b] = mn;
  }
  peak_ = block_max_[0];
  for (std::size_t b = 1; b < blocks; ++b) peak_ = peak_.max(block_max_[b]);
  index_dirty_ = false;
  dirty_from_ = segs_.size();
}

// --------------------------------------------------------------------------
// Mutations.
// --------------------------------------------------------------------------

void ReservationLedger::reserve(SimTime t0, SimTime t1, const ResourceVector& r) {
  VMLP_CHECK_MSG(t0 < t1, "empty reservation window [" << t0 << "," << t1 << ")");
  ++version_;
  if (obs_ != nullptr) obs_->count(obs_->ledger().windows_reserved);
  // A negative or non-finite reservation silently *creates* capacity — the
  // canonical corruption a buggy planner would introduce.
  VMLP_AUDIT_ASSERT(r.is_finite(), "non-finite reservation " << r.to_string());
  VMLP_AUDIT_ASSERT(!r.any_negative(), "negative reservation " << r.to_string());
  const std::size_t begin = split_index_at(t0);
  const std::size_t end = split_index_at(t1);
  for (std::size_t i = begin; i < end; ++i) {
    segs_[i].level += r;
    segs_[i].headroom = headroom_of(segs_[i].level);
    // Keep the peak bound exact across reserves: raising levels can only
    // move the whole-profile peak to one of the levels written here.
    peak_ = peak_.max(segs_[i].level);
  }
  coalesce(t0, t1);
  index_dirty_ = true;
  dirty_from_ = std::min(dirty_from_, begin == 0 ? 0 : begin - 1);
  if (obs_ != nullptr) {
    obs_->gauge_max(obs_->ledger().segments_peak, static_cast<double>(segment_count()));
  }
  if (::vmlp::audit::enabled()) audit_invariants();
}

void ReservationLedger::release(SimTime t0, SimTime t1, const ResourceVector& r) {
  VMLP_CHECK_MSG(t0 < t1, "empty release window");
  ++version_;
  if (obs_ != nullptr) obs_->count(obs_->ledger().windows_released);
  VMLP_AUDIT_ASSERT(r.is_finite(), "non-finite release " << r.to_string());
  VMLP_AUDIT_ASSERT(!r.any_negative(),
                    "negative release " << r.to_string() << " would inflate the profile");
  const std::size_t begin = split_index_at(t0);
  const std::size_t end = split_index_at(t1);
  for (std::size_t i = begin; i < end; ++i) {
    segs_[i].level -= r;
    VMLP_CHECK_MSG(!segs_[i].level.any_negative(),
                   "release drives profile negative at t=" << segs_[i].start);
    // Snap tiny float residue to exact zero so fits() stays sharp.
    if (segs_[i].level.near_zero()) segs_[i].level = ResourceVector::zero();
    segs_[i].headroom = headroom_of(segs_[i].level);
  }
  coalesce(t0, t1);
  index_dirty_ = true;
  dirty_from_ = std::min(dirty_from_, begin == 0 ? 0 : begin - 1);
  if (::vmlp::audit::enabled()) audit_invariants();
}

void ReservationLedger::compact_before(SimTime t) {
  const auto it = std::upper_bound(segs_.begin(), segs_.end(), t,
                                   [](SimTime v, const Segment& s) { return v < s.start; });
  if (it == segs_.begin()) return;
  const std::size_t cover = static_cast<std::size_t>(it - segs_.begin()) - 1;
  if (cover == 0) return;
  ++version_;
  segs_.erase(segs_.begin(), segs_.begin() + static_cast<std::ptrdiff_t>(cover));
  index_dirty_ = true;
  dirty_from_ = 0;  // the prefix erase shifted every surviving index
}

// --------------------------------------------------------------------------
// Queries.
// --------------------------------------------------------------------------

double ReservationLedger::free_fraction() const {
  // Deliberately no ensure_index(): peak_ is a maintained upper bound (see
  // its declaration), and rebuilding the index here made the cell headroom
  // summary's refresh cost O(segments) per mutated machine — at 1k+
  // machines that re-folded the whole cluster's ledgers once per mutation
  // and re-coupled per-placement cost to cluster size.
  return std::max(0.0, headroom_of(peak_));
}

ResourceVector ReservationLedger::usage_at(SimTime t) const {
  return segs_[covering_index(t)].level;
}

ResourceVector ReservationLedger::max_usage(SimTime t0, SimTime t1) const {
  VMLP_CHECK_MSG(t0 < t1, "empty query window");
  ensure_index();
  const std::size_t lo = covering_index(t0);
  // The window-end bound is checked lazily against segment starts instead
  // of a second binary search: for i >= lo, `segs_[i].start < t1` is
  // exactly `i < lower_index(t1)`, and the fold order is unchanged.
  ResourceVector m = segs_[lo].level;
  std::size_t i = lo;
  while (i < segs_.size() && segs_[i].start < t1) {
    // Whole block inside the window: one cached entry covers 32 segments.
    if ((i & (kBlockSize - 1)) == 0 && i + kBlockSize <= segs_.size() &&
        segs_[i + kBlockSize - 1].start < t1) {
      m = m.max(block_max_[i >> kBlockShift]);
      i += kBlockSize;
    } else {
      m = m.max(segs_[i].level);
      ++i;
    }
  }
  return m;
}

bool ReservationLedger::span_could_fit(SimTime t0, SimTime t1, const ResourceVector& r,
                                       std::size_t* cover_hint) const {
  VMLP_CHECK_MSG(t0 < t1, "empty query window");
  if (obs_ != nullptr) obs_->count(obs_->ledger().spans_tested);
  ensure_index();
  const std::size_t lo = hinted_covering_index(t0, cover_hint);
  const double frac = demand_fraction(r);
  ResourceVector m = segs_[lo].level;
  if ((m + r).fits_within(capacity_)) return true;
  std::size_t i = lo;
  while (i < segs_.size() && segs_[i].start < t1) {
    if ((i & (kBlockSize - 1)) == 0 && i + kBlockSize <= segs_.size() &&
        segs_[i + kBlockSize - 1].start < t1) {
      m = m.min(block_min_[i >> kBlockShift]);
      i += kBlockSize;
    } else {
      // Scalar accept: a segment whose cached headroom admits the demand
      // satisfies level + r <= capacity, and the span min is <= this
      // level component-wise, so the exact verdict is already true.
      if (frac + kHeadroomSafety <= segs_[i].headroom) return true;
      m = m.min(segs_[i].level);
      ++i;
    }
    if ((m + r).fits_within(capacity_)) return true;
  }
  return (m + r).fits_within(capacity_);
}

ResourceVector ReservationLedger::available(SimTime t0, SimTime t1) const {
  return (capacity_ - max_usage(t0, t1)).max(ResourceVector::zero());
}

bool ReservationLedger::fits(SimTime t0, SimTime t1, const ResourceVector& r,
                             std::size_t* cover_hint) const {
  if (obs_ != nullptr) obs_->count(obs_->ledger().fits_queried);
  VMLP_CHECK_MSG(t0 < t1, "empty query window");
  ensure_index();
  // Uncontended fast accept: if the demand fits atop the whole-profile
  // peak, it fits any window (max_usage <= peak component-wise). The hint
  // is left untouched — it stays valid for the next, later-starting query.
  if ((peak_ + r).fits_within(capacity_)) return true;
  const std::size_t lo = hinted_covering_index(t0, cover_hint);
  const double frac = demand_fraction(r);
  std::size_t i = lo;
  while (i < segs_.size() && segs_[i].start < t1) {
    if ((i & (kBlockSize - 1)) == 0 && i + kBlockSize <= segs_.size() &&
        segs_[i + kBlockSize - 1].start < t1) {
      // Whole block: the cached max decides for all 32 segments at once.
      if (!(block_max_[i >> kBlockShift] + r).fits_within(capacity_)) return false;
      i += kBlockSize;
    } else {
      if (segment_blocks(segs_[i], r, frac)) return false;
      ++i;
    }
  }
  return true;
}

void ReservationLedger::audit_invariants() const {
  VMLP_CHECK_MSG(!segs_.empty(), "ledger profile lost its origin segment");
  const Segment* prev = nullptr;
  for (const Segment& s : segs_) {
    VMLP_CHECK_MSG(s.level.is_finite(), "non-finite ledger level at t=" << s.start);
    VMLP_CHECK_MSG(!s.level.any_negative(),
                   "negative ledger level " << s.level.to_string() << " at t=" << s.start);
    VMLP_CHECK_MSG(s.headroom == headroom_of(s.level), "stale cached headroom at t=" << s.start);
    if (prev != nullptr) {
      VMLP_CHECK_MSG(prev->start < s.start, "ledger segments out of order at t=" << s.start);
      VMLP_CHECK_MSG(!nearly_equal(prev->level, s.level),
                     "ledger not canonical: duplicate adjacent level at t=" << s.start);
    }
    prev = &s;
  }
}

}  // namespace vmlp::cluster
