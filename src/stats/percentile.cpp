#include "stats/percentile.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vmlp::stats {

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void SampleSet::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double SampleSet::quantile(double q) const {
  VMLP_CHECK_MSG(!samples_.empty(), "quantile of empty SampleSet");
  VMLP_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q=" << q);
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double SampleSet::mean() const {
  VMLP_CHECK_MSG(!samples_.empty(), "mean of empty SampleSet");
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

}  // namespace vmlp::stats
