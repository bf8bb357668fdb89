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
// Sorted segment vector + prefix-folded peak.
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

template <class Before>
std::size_t ReservationLedger::partition_from_end(Before before) const {
  // Writes and queries land at or after "now", a few segments from the end
  // of a vector that also holds the run's recent history: probe back from
  // the end at distances 1, 2, 4, ... until a segment satisfies `before`,
  // then binary-search the bracket. Everything at or after `hi` fails
  // `before` throughout.
  std::size_t hi = segs_.size();
  for (std::size_t step = 1; hi > 0; step <<= 1) {
    const std::size_t probe = hi > step ? hi - step : 0;
    if (before(segs_[probe])) {
      const auto first = segs_.begin() + static_cast<std::ptrdiff_t>(probe) + 1;
      const auto last = segs_.begin() + static_cast<std::ptrdiff_t>(hi);
      return static_cast<std::size_t>(std::partition_point(first, last, before) -
                                      segs_.begin());
    }
    hi = probe;
  }
  return 0;
}

std::size_t ReservationLedger::lower_index(SimTime t) const {
  return partition_from_end([t](const Segment& s) { return s.start < t; });
}

std::size_t ReservationLedger::covering_index(SimTime t) const {
  const std::size_t after = partition_from_end([t](const Segment& s) { return s.start <= t; });
  VMLP_CHECK_MSG(after != 0, "time " << t << " precedes ledger origin");
  return after - 1;
}

std::size_t ReservationLedger::hinted_covering_index(SimTime t,
                                                     std::size_t* cover_hint) const {
  // A usable hint names a segment starting at or before t *in the current
  // profile* — checked here, so callers may carry hints across mutations.
  // When it holds, the covering segment lies at or after the hint: walk
  // forward to the last segment with start <= t — the same index the search
  // would find. A hint left far behind by mutations would make that walk
  // worse than the logarithmic search, so bail out after a few steps.
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

std::pair<std::size_t, std::size_t> ReservationLedger::split_window(SimTime t0, SimTime t1) {
  const std::size_t begin = lower_index(t0);
  if (begin == segs_.size() || segs_[begin].start != t0) {
    VMLP_CHECK_MSG(begin != 0, "time " << t0 << " precedes ledger origin");
    segs_.insert(segs_.begin() + static_cast<std::ptrdiff_t>(begin),
                 Segment{t0, segs_[begin - 1].level, segs_[begin - 1].headroom});
  }
  // No second search for t1: the caller's level loop walks the window's
  // segments anyway, so walk them here to find t1's split.
  std::size_t end = begin + 1;
  while (end < segs_.size() && segs_[end].start < t1) ++end;
  if (end == segs_.size() || segs_[end].start != t1) {
    segs_.insert(segs_.begin() + static_cast<std::ptrdiff_t>(end),
                 Segment{t1, segs_[end - 1].level, segs_[end - 1].headroom});
  }
  return {begin, end};
}

void ReservationLedger::coalesce(std::size_t begin, SimTime t1) {
  // Walk from the segment before the touched range, erasing the later of
  // each nearly-equal adjacent pair.
  std::size_t i = begin == 0 ? 0 : begin - 1;
  while (i + 1 < segs_.size()) {
    if (segs_[i + 1].start > t1) break;
    if (nearly_equal(segs_[i].level, segs_[i + 1].level)) {
      segs_.erase(segs_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    } else {
      ++i;
    }
  }
}

void ReservationLedger::refold_peak() const {
  // Segments below dirty_from_ kept their levels and positions since the
  // last refresh. Extending the prefix right up to them would put it past
  // the next write whenever that write lands earlier in the live tail (a
  // finish release at "now" after a reserve for a later start), forcing a
  // refold from the origin; trailing the dirty index by kPrefixLag segments
  // keeps that rare, and the lag is refolded with the tail.
  constexpr std::size_t kPrefixLag = 16;
  if (dirty_from_ < prefix_end_) {
    prefix_peak_ = ResourceVector::zero();  // levels are never negative
    prefix_end_ = 0;
  }
  for (; prefix_end_ + kPrefixLag < dirty_from_; ++prefix_end_) {
    prefix_peak_ = prefix_peak_.max(segs_[prefix_end_].level);
  }
  peak_ = prefix_peak_;
  for (std::size_t i = prefix_end_; i < segs_.size(); ++i) peak_ = peak_.max(segs_[i].level);
  dirty_from_ = kClean;
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
  const auto [begin, end] = split_window(t0, t1);
  for (std::size_t i = begin; i < end; ++i) {
    segs_[i].level += r;
    segs_[i].headroom = headroom_of(segs_[i].level);
    // Keep the peak bound exact across reserves: raising levels can only
    // move the whole-profile peak to one of the levels written here.
    peak_ = peak_.max(segs_[i].level);
  }
  coalesce(begin, t1);
  dirty_from_ = std::min(dirty_from_, begin);
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
  const auto [begin, end] = split_window(t0, t1);
  for (std::size_t i = begin; i < end; ++i) {
    segs_[i].level -= r;
    VMLP_CHECK_MSG(!segs_[i].level.any_negative(),
                   "release drives profile negative at t=" << segs_[i].start);
    // Snap tiny float residue to exact zero so fits() stays sharp.
    if (segs_[i].level.near_zero()) segs_[i].level = ResourceVector::zero();
    segs_[i].headroom = headroom_of(segs_[i].level);
  }
  coalesce(begin, t1);
  dirty_from_ = std::min(dirty_from_, begin);
  if (::vmlp::audit::enabled()) audit_invariants();
}

void ReservationLedger::compact_before(SimTime t) {
  const std::size_t after = partition_from_end([t](const Segment& s) { return s.start <= t; });
  if (after <= 1) return;  // t precedes the origin or lies in its segment
  ++version_;
  segs_.erase(segs_.begin(), segs_.begin() + static_cast<std::ptrdiff_t>(after - 1));
  dirty_from_ = 0;  // every surviving index shifted: the prefix starts over
}

// --------------------------------------------------------------------------
// Queries.
// --------------------------------------------------------------------------

double ReservationLedger::free_fraction() const {
  // Deliberately no refresh_peak(): peak_ is a maintained upper bound (see
  // its declaration), and refreshing here would make the cell headroom
  // summary's upkeep fold every mutated machine's ledger once per mutation.
  return std::max(0.0, headroom_of(peak_));
}

ResourceVector ReservationLedger::usage_at(SimTime t) const {
  return segs_[covering_index(t)].level;
}

ResourceVector ReservationLedger::max_usage(SimTime t0, SimTime t1) const {
  VMLP_CHECK_MSG(t0 < t1, "empty query window");
  // Every window query refreshes the peak, used or not: the points where
  // free_fraction() re-tightens are part of the run's deterministic history.
  refresh_peak();
  const std::size_t lo = covering_index(t0);
  ResourceVector m = segs_[lo].level;
  for (std::size_t i = lo + 1; i < segs_.size() && segs_[i].start < t1; ++i) {
    m = m.max(segs_[i].level);
  }
  return m;
}

bool ReservationLedger::span_could_fit(SimTime t0, SimTime t1, const ResourceVector& r,
                                       std::size_t* cover_hint) const {
  VMLP_CHECK_MSG(t0 < t1, "empty query window");
  if (obs_ != nullptr) obs_->count(obs_->ledger().spans_tested);
  refresh_peak();
  const std::size_t lo = hinted_covering_index(t0, cover_hint);
  const double frac = demand_fraction(r);
  ResourceVector m = segs_[lo].level;
  if ((m + r).fits_within(capacity_)) return true;
  for (std::size_t i = lo + 1; i < segs_.size() && segs_[i].start < t1; ++i) {
    // Scalar accept: a segment whose cached headroom admits the demand
    // satisfies level + r <= capacity, and the span min is <= this
    // level component-wise, so the exact verdict is already true.
    if (frac + kHeadroomSafety <= segs_[i].headroom) return true;
    m = m.min(segs_[i].level);
    if ((m + r).fits_within(capacity_)) return true;
  }
  return false;
}

ResourceVector ReservationLedger::available(SimTime t0, SimTime t1) const {
  return (capacity_ - max_usage(t0, t1)).max(ResourceVector::zero());
}

bool ReservationLedger::fits(SimTime t0, SimTime t1, const ResourceVector& r,
                             std::size_t* cover_hint) const {
  if (obs_ != nullptr) obs_->count(obs_->ledger().fits_queried);
  VMLP_CHECK_MSG(t0 < t1, "empty query window");
  refresh_peak();
  // Uncontended fast accept: if the demand fits atop the whole-profile
  // peak, it fits any window (max_usage <= peak component-wise). The hint
  // is left untouched — it stays valid for the next, later-starting query.
  if ((peak_ + r).fits_within(capacity_)) return true;
  const std::size_t lo = hinted_covering_index(t0, cover_hint);
  const double frac = demand_fraction(r);
  for (std::size_t i = lo; i < segs_.size() && segs_[i].start < t1; ++i) {
    if (segment_blocks(segs_[i], r, frac)) return false;
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
