#include "stats/timeseries.h"

#include <algorithm>

#include "common/audit.h"
#include "common/error.h"

namespace vmlp::stats {

TimeSeries::TimeSeries(SimDuration bucket, SimTime horizon) : bucket_(bucket), horizon_(horizon) {
  VMLP_CHECK_MSG(bucket > 0 && horizon > 0, "timeseries bucket=" << bucket << " horizon=" << horizon);
  const auto n = static_cast<std::size_t>((horizon + bucket - 1) / bucket);
  sums_.assign(n, 0.0);
  counts_.assign(n, 0);
}

std::size_t TimeSeries::index(SimTime t) const {
  if (t < 0 || t >= horizon_) {
    VMLP_AUDIT_ASSERT(false, "timeseries sample at t=" << t << " outside [0, " << horizon_
                                                       << ") — caller clock is off");
    return kOutOfRange;
  }
  const auto i = static_cast<std::size_t>(t / bucket_);
  return std::min(i, sums_.size() - 1);
}

void TimeSeries::add(SimTime t, double value) {
  const std::size_t i = index(t);
  if (i == kOutOfRange) {
    ++dropped_;
    return;
  }
  sums_[i] += value;
  counts_[i] += 1;
}

double TimeSeries::mean(std::size_t i) const {
  return counts_[i] == 0 ? 0.0 : sums_[i] / static_cast<double>(counts_[i]);
}

std::vector<double> TimeSeries::mean_series() const {
  std::vector<double> out(sums_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = mean(i);
  return out;
}

}  // namespace vmlp::stats
