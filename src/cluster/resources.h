// Three-dimensional resource vectors: CPU (millicores), memory (MB), and IO
// bandwidth (MB/s) — the resource types the paper monitors and controls
// (Table III) and the dimensions of its utilization metric U.
//
// The component-wise arithmetic and the fit/sign predicates are defined in
// this header: the admission test builds every ledger probe from them, and
// the build has no link-time optimization, so an out-of-line definition costs
// a call per 3-double operation on that path (tools/check_hot_inline.py
// guards this). Keep each body's operations and their order: reordering
// them changes floating-point results, and simulation outcomes must stay
// bit-identical.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>

namespace vmlp::cluster {

inline constexpr double kResourceEpsilon = 1e-6;

struct ResourceVector {
  double cpu = 0.0;  ///< millicores
  double mem = 0.0;  ///< MB
  double io = 0.0;   ///< MB/s

  static ResourceVector zero() { return {}; }

  ResourceVector& operator+=(const ResourceVector& o) {
    cpu += o.cpu;
    mem += o.mem;
    io += o.io;
    return *this;
  }
  ResourceVector& operator-=(const ResourceVector& o) {
    cpu -= o.cpu;
    mem -= o.mem;
    io -= o.io;
    return *this;
  }
  ResourceVector& operator*=(double k) {
    cpu *= k;
    mem *= k;
    io *= k;
    return *this;
  }

  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) { return a += b; }
  friend ResourceVector operator-(ResourceVector a, const ResourceVector& b) { return a -= b; }
  friend ResourceVector operator*(ResourceVector a, double k) { return a *= k; }
  friend ResourceVector operator*(double k, ResourceVector a) { return a *= k; }
  friend bool operator==(const ResourceVector& a, const ResourceVector& b) {
    return a.cpu == b.cpu && a.mem == b.mem && a.io == b.io;
  }

  /// Component-wise max / min.
  [[nodiscard]] ResourceVector max(const ResourceVector& o) const {
    return {std::max(cpu, o.cpu), std::max(mem, o.mem), std::max(io, o.io)};
  }
  [[nodiscard]] ResourceVector min(const ResourceVector& o) const {
    return {std::min(cpu, o.cpu), std::min(mem, o.mem), std::min(io, o.io)};
  }
  /// Clamp each component into [0, hi_component].
  [[nodiscard]] ResourceVector clamp_to(const ResourceVector& hi) const {
    return {std::clamp(cpu, 0.0, hi.cpu), std::clamp(mem, 0.0, hi.mem),
            std::clamp(io, 0.0, hi.io)};
  }

  /// True when every component of this fits within `budget` (<=, with a small
  /// epsilon to absorb floating-point drift from repeated reserve/release).
  [[nodiscard]] bool fits_within(const ResourceVector& budget) const {
    return cpu <= budget.cpu + kResourceEpsilon && mem <= budget.mem + kResourceEpsilon &&
           io <= budget.io + kResourceEpsilon;
  }
  /// True when any component is negative (beyond epsilon).
  [[nodiscard]] bool any_negative() const {
    return cpu < -kResourceEpsilon || mem < -kResourceEpsilon || io < -kResourceEpsilon;
  }
  /// True when every component is a finite number (no NaN/inf). Corrupted
  /// arithmetic upstream shows up here first; checked by the audit layer.
  [[nodiscard]] bool is_finite() const;
  /// True when every component is (near) zero.
  [[nodiscard]] bool near_zero() const {
    return std::abs(cpu) <= kResourceEpsilon && std::abs(mem) <= kResourceEpsilon &&
           std::abs(io) <= kResourceEpsilon;
  }

  /// Sum of per-component utilization fractions vs. `capacity` (each clamped
  /// to [0,1]); divide by 3 for the paper's per-node efficiency term.
  [[nodiscard]] double utilization_sum(const ResourceVector& capacity) const;

  /// Largest component-wise ratio this/other over components where other > 0.
  /// Used for bottleneck factors (demand / allocation).
  [[nodiscard]] double max_ratio_over(const ResourceVector& other) const;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace vmlp::cluster
