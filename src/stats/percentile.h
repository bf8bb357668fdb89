// Exact quantiles over retained samples.
//
// Evaluation-scale sample counts (≤ a few million doubles) fit comfortably in
// memory, so we keep exact samples rather than sketching; quantile queries
// sort lazily once and reuse the sorted buffer.
#pragma once

#include <cstddef>
#include <vector>

namespace vmlp::stats {

class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Quantile q in [0,1] with linear interpolation between order statistics.
  /// Throws InvariantError when empty or q out of range.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace vmlp::stats
