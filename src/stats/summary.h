// Streaming moment accumulation (Welford) — numerically stable mean/variance.
#pragma once

#include <cstddef>
#include <limits>

namespace vmlp::stats {

class Summary {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Mean of the observed samples; NaN when empty.
  [[nodiscard]] double mean() const;
  /// Population variance; NaN when empty.
  [[nodiscard]] double variance() const;
  /// Sample variance (n-1 denominator); NaN when count < 2.
  [[nodiscard]] double sample_variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace vmlp::stats
