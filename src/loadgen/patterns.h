// Workload patterns of Fig. 9 — arrival-rate curves drawn from a realistic
// datacenter trace, max 1000 req/s over a 100 s horizon with the main load
// peak arriving at t = 40 s (Section V-B):
//
//   L1 — pulse-like workload peak: flat base with one sharp pulse;
//   L2 — fluctuating workload: a bounded random walk re-drawn every segment;
//   L3 — periodic workload with wide peaks: plateaus recurring on a period.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace vmlp::loadgen {

enum class PatternKind { kL1Pulse, kL2Fluctuating, kL3Periodic };

const char* pattern_name(PatternKind kind);

struct PatternParams {
  SimTime horizon = 100 * kSec;
  double max_rate = 1000.0;   ///< req/s ceiling (the paper's maximum)
  double base_rate = 250.0;   ///< off-peak level
  SimTime peak_time = 40 * kSec;  ///< the Fig. 11 peak arrival instant
  // L1: pulse width.
  SimDuration pulse_width = 6 * kSec;
  // L2: random-walk segment length and bounds.
  SimDuration segment = 2 * kSec;
  double l2_min_rate = 150.0;
  double l2_max_step = 300.0;
  // L3: plateau width and period.
  SimDuration plateau = 10 * kSec;
  SimDuration period = 30 * kSec;
};

class WorkloadPattern {
 public:
  /// Build a pattern; `seed` drives L2's random walk (ignored by L1/L3).
  static WorkloadPattern make(PatternKind kind, const PatternParams& params, std::uint64_t seed);

  [[nodiscard]] const PatternParams& params() const { return params_; }

  /// Instantaneous arrival rate (req/s) at simulated time t; 0 outside
  /// [0, horizon).
  [[nodiscard]] double rate_at(SimTime t) const;
  /// Upper bound on rate_at over the horizon (thinning envelope).
  [[nodiscard]] double peak_rate() const;
  /// Expected total arrivals over the horizon (trapezoid integration).
  [[nodiscard]] double expected_arrivals() const;
  /// Rate series sampled every `step` (the Fig. 9 plot).
  [[nodiscard]] std::vector<double> rate_series(SimDuration step) const;

 private:
  WorkloadPattern(PatternKind kind, PatternParams params);

  PatternKind kind_;
  PatternParams params_;
  std::vector<double> l2_levels_;  // one level per segment (L2 only)
};

}  // namespace vmlp::loadgen
