// MapLedger: test-only reference implementation of cluster::ReservationLedger.
//
// The original std::map<SimTime, ResourceVector> representation of a
// machine's future usage profile, kept as a differential oracle for the
// indexed flat ledger. It maintains the same canonical segment profile and
// performs the same floating-point arithmetic in the same order, so
// usage_at / max_usage / available / fits / span_could_fit must agree with
// the flat ledger bit for bit (tests/test_reservation_fuzz.cpp); min_usage is
// the window minimum span_could_fit's verdict is checked against, and peak
// the whole-profile max free_fraction() is checked against.
#pragma once

#include <cstddef>
#include <iterator>
#include <map>

#include "cluster/resources.h"
#include "common/error.h"
#include "common/types.h"

namespace vmlp::cluster::oracle {

class MapLedger {
 public:
  explicit MapLedger(ResourceVector capacity) : capacity_(capacity) {
    profile_.emplace(0, ResourceVector::zero());
  }

  void reserve(SimTime t0, SimTime t1, const ResourceVector& r) {
    VMLP_CHECK_MSG(t0 < t1, "empty reservation window");
    auto begin = split_at(t0);
    auto end = split_at(t1);
    for (auto it = begin; it != end; ++it) it->second += r;
    coalesce(t0, t1);
  }

  void release(SimTime t0, SimTime t1, const ResourceVector& r) {
    VMLP_CHECK_MSG(t0 < t1, "empty release window");
    auto begin = split_at(t0);
    auto end = split_at(t1);
    for (auto it = begin; it != end; ++it) {
      it->second -= r;
      VMLP_CHECK_MSG(!it->second.any_negative(),
                     "release drives profile negative at t=" << it->first);
      if (it->second.near_zero()) it->second = ResourceVector::zero();
    }
    coalesce(t0, t1);
  }

  void compact_before(SimTime t) {
    auto it = profile_.upper_bound(t);
    if (it == profile_.begin()) return;
    --it;  // segment covering t
    if (it == profile_.begin()) return;
    const ResourceVector level = it->second;
    const SimTime key = it->first;
    profile_.erase(profile_.begin(), it);
    profile_[key] = level;  // re-anchor the origin at the covering segment
  }

  [[nodiscard]] ResourceVector usage_at(SimTime t) const {
    auto it = profile_.upper_bound(t);
    VMLP_CHECK_MSG(it != profile_.begin(), "time " << t << " precedes ledger origin");
    return std::prev(it)->second;
  }

  [[nodiscard]] ResourceVector max_usage(SimTime t0, SimTime t1) const {
    VMLP_CHECK_MSG(t0 < t1, "empty query window");
    ResourceVector m = usage_at(t0);
    for (auto it = profile_.upper_bound(t0); it != profile_.end() && it->first < t1; ++it) {
      m = m.max(it->second);
    }
    return m;
  }

  [[nodiscard]] ResourceVector min_usage(SimTime t0, SimTime t1) const {
    VMLP_CHECK_MSG(t0 < t1, "empty query window");
    ResourceVector m = usage_at(t0);
    for (auto it = profile_.upper_bound(t0); it != profile_.end() && it->first < t1; ++it) {
      m = m.min(it->second);
    }
    return m;
  }

  [[nodiscard]] bool span_could_fit(SimTime t0, SimTime t1, const ResourceVector& r) const {
    VMLP_CHECK_MSG(t0 < t1, "empty query window");
    ResourceVector m = usage_at(t0);
    if ((m + r).fits_within(capacity_)) return true;
    for (auto it = profile_.upper_bound(t0); it != profile_.end() && it->first < t1; ++it) {
      m = m.min(it->second);
      if ((m + r).fits_within(capacity_)) return true;
    }
    return false;
  }

  [[nodiscard]] ResourceVector available(SimTime t0, SimTime t1) const {
    return (capacity_ - max_usage(t0, t1)).max(ResourceVector::zero());
  }

  [[nodiscard]] bool fits(SimTime t0, SimTime t1, const ResourceVector& r) const {
    return (max_usage(t0, t1) + r).fits_within(capacity_);
  }

  [[nodiscard]] std::size_t segment_count() const { return profile_.size(); }

  /// Component-wise max over the whole profile.
  [[nodiscard]] ResourceVector peak() const {
    ResourceVector m = profile_.begin()->second;
    for (const auto& [start, level] : profile_) m = m.max(level);
    return m;
  }

  /// Number of profile segments overlapping [t0, t1): the covering segment
  /// plus every boundary strictly inside the window.
  [[nodiscard]] std::size_t segments_in(SimTime t0, SimTime t1) const {
    VMLP_CHECK_MSG(t0 < t1, "empty query window");
    return 1 + static_cast<std::size_t>(
                   std::distance(profile_.upper_bound(t0), profile_.lower_bound(t1)));
  }

 private:
  /// Ensure a key exists exactly at t, splitting the covering segment.
  std::map<SimTime, ResourceVector>::iterator split_at(SimTime t) {
    auto it = profile_.lower_bound(t);
    if (it != profile_.end() && it->first == t) return it;
    VMLP_CHECK_MSG(it != profile_.begin(), "time " << t << " precedes ledger origin");
    return profile_.emplace_hint(it, t, std::prev(it)->second);
  }

  /// Merge adjacent segments with equal levels around the touched range.
  void coalesce(SimTime t0, SimTime t1) {
    auto it = profile_.lower_bound(t0);
    if (it != profile_.begin()) --it;
    while (it != profile_.end()) {
      auto next = std::next(it);
      if (next == profile_.end() || next->first > t1) break;
      if (nearly_equal(it->second, next->second)) {
        profile_.erase(next);
      } else {
        it = next;
      }
    }
  }

  static bool nearly_equal(const ResourceVector& a, const ResourceVector& b) {
    return !(a - b).any_negative() && !(b - a).any_negative();
  }

  ResourceVector capacity_;
  std::map<SimTime, ResourceVector> profile_;
};

}  // namespace vmlp::cluster::oracle
