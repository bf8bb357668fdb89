#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace vmlp::stats {

void Summary::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::mean() const {
  return count_ == 0 ? std::nan("") : mean_;
}

double Summary::variance() const {
  return count_ == 0 ? std::nan("") : m2_ / static_cast<double>(count_);
}

double Summary::sample_variance() const {
  return count_ < 2 ? std::nan("") : m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

}  // namespace vmlp::stats
