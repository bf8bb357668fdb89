#include "cluster/resources.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace vmlp::cluster {

bool ResourceVector::is_finite() const {
  return std::isfinite(cpu) && std::isfinite(mem) && std::isfinite(io);
}

double ResourceVector::utilization_sum(const ResourceVector& capacity) const {
  double total = 0.0;
  if (capacity.cpu > 0) total += std::clamp(cpu / capacity.cpu, 0.0, 1.0);
  if (capacity.mem > 0) total += std::clamp(mem / capacity.mem, 0.0, 1.0);
  if (capacity.io > 0) total += std::clamp(io / capacity.io, 0.0, 1.0);
  return total;
}

double ResourceVector::max_ratio_over(const ResourceVector& other) const {
  double r = 0.0;
  if (other.cpu > kResourceEpsilon) r = std::max(r, cpu / other.cpu);
  else if (cpu > kResourceEpsilon) return std::numeric_limits<double>::infinity();
  if (other.mem > kResourceEpsilon) r = std::max(r, mem / other.mem);
  else if (mem > kResourceEpsilon) return std::numeric_limits<double>::infinity();
  if (other.io > kResourceEpsilon) r = std::max(r, io / other.io);
  else if (io > kResourceEpsilon) return std::numeric_limits<double>::infinity();
  return r;
}

std::string ResourceVector::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{cpu=%.1fmC mem=%.1fMB io=%.1fMB/s}", cpu, mem, io);
  return buf;
}

}  // namespace vmlp::cluster
