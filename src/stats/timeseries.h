// Time-bucketed series: accumulates (time, value) observations into fixed
// buckets and reports per-bucket means. Used for the utilization-over-time
// curves of Fig. 11 and the workload-rate curves of Fig. 9.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace vmlp::stats {

class TimeSeries {
 public:
  /// Buckets of width `bucket` covering [0, horizon).
  TimeSeries(SimDuration bucket, SimTime horizon);

  /// Record an observation at time t. Samples outside [0, horizon) are
  /// dropped (and counted) rather than folded into the edge buckets — folding
  /// silently corrupts the first/last bucket means. Under VMLP_AUDIT an
  /// out-of-range sample is a hard error: it means the caller's clock is off.
  void add(SimTime t, double value);

  [[nodiscard]] std::size_t bucket_count() const { return sums_.size(); }
  /// Observations rejected because t < 0 or t >= horizon.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  /// Mean of observations in bucket i; 0 when the bucket is empty.
  [[nodiscard]] double mean(std::size_t i) const;
  /// Sum of observations in bucket i.
  [[nodiscard]] double sum(std::size_t i) const { return sums_[i]; }
  [[nodiscard]] std::size_t samples(std::size_t i) const { return counts_[i]; }

  /// Per-bucket means, one entry per bucket.
  [[nodiscard]] std::vector<double> mean_series() const;

 private:
  /// Bucket for an in-range t, or npos when the sample must be dropped.
  [[nodiscard]] std::size_t index(SimTime t) const;

  static constexpr std::size_t kOutOfRange = static_cast<std::size_t>(-1);

  SimDuration bucket_;
  SimTime horizon_;
  std::vector<double> sums_;
  std::vector<std::size_t> counts_;
  std::size_t dropped_ = 0;
};

}  // namespace vmlp::stats
