#include "trace/profile_store.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vmlp::trace {

ProfileStore::ProfileStore(std::size_t capacity) : capacity_(capacity) {
  VMLP_CHECK_MSG(capacity > 0, "profile store capacity must be positive");
}

void ProfileStore::record(ServiceTypeId service, RequestTypeId request_type,
                          SimDuration exec_time) {
  VMLP_CHECK_MSG(exec_time >= 0, "negative execution time");
  Ring& ring = rings_[Key{service, request_type}];
  if (ring.cases.size() < capacity_) {
    ring.cases.push_back(exec_time);
  } else {
    ring.exec_sum -= static_cast<double>(ring.cases[ring.next]);
    ring.cases[ring.next] = exec_time;
    ring.next = (ring.next + 1) % capacity_;
  }
  ring.exec_sum += static_cast<double>(exec_time);
  ++ring.revision;
}

const ProfileStore::Ring* ProfileStore::find(ServiceTypeId service,
                                             RequestTypeId request_type) const {
  auto it = rings_.find(Key{service, request_type});
  return it == rings_.end() ? nullptr : &it->second;
}

std::size_t ProfileStore::case_count(ServiceTypeId service, RequestTypeId request_type) const {
  const Ring* ring = find(service, request_type);
  return ring == nullptr ? 0 : ring->cases.size();
}

bool ProfileStore::has_history(ServiceTypeId service, RequestTypeId request_type) const {
  return case_count(service, request_type) > 0;
}

std::optional<SimDuration> ProfileStore::max_slack(ServiceTypeId service,
                                                   RequestTypeId request_type) const {
  const Ring* ring = find(service, request_type);
  if (ring == nullptr || ring->cases.empty()) return std::nullopt;
  if (ring->cached_max.revision == 0 ||
      ring->revision - ring->cached_max.revision >= kCacheStaleness) {
    SimDuration best = 0;
    for (const SimDuration c : ring->cases) best = std::max(best, c);
    ring->cached_max = CachedValue{ring->revision, best};
  }
  return ring->cached_max.value;
}

std::optional<SimDuration> ProfileStore::mean_exec(ServiceTypeId service,
                                                   RequestTypeId request_type) const {
  const Ring* ring = find(service, request_type);
  if (ring == nullptr || ring->cases.empty()) return std::nullopt;
  return static_cast<SimDuration>(
      std::llround(ring->exec_sum / static_cast<double>(ring->cases.size())));
}

std::optional<SimDuration> ProfileStore::quantile_of_recent(ServiceTypeId service,
                                                            RequestTypeId request_type, double q,
                                                            double x_percent) const {
  VMLP_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q=" << q);
  VMLP_CHECK_MSG(x_percent > 0.0 && x_percent <= 100.0, "x_percent=" << x_percent);
  const Ring* ring = find(service, request_type);
  if (ring == nullptr || ring->cases.empty()) return std::nullopt;

  const QuantileKey key{static_cast<int>(std::lround(q * 1000.0)),
                        static_cast<int>(std::lround(x_percent * 10.0))};
  auto it = ring->cached_quantiles.find(key);
  if (it != ring->cached_quantiles.end() &&
      ring->revision - it->second.revision < kCacheStaleness) {
    return it->second.value;
  }

  // The most recent `take` cases, read from the ring in place: `next` is the
  // oldest case's slot whether or not the ring has wrapped.
  const std::size_t n = ring->cases.size();
  const std::size_t take = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(static_cast<double>(n) * x_percent / 100.0)));
  std::vector<double> recent;
  recent.reserve(take);
  for (std::size_t i = n - take; i < n; ++i) {
    recent.push_back(static_cast<double>(ring->cases[(ring->next + i) % n]));
  }
  // The interpolation reads only the lo-th and (lo+1)-th order statistics:
  // select the first, and the second is the least value above it.
  const double pos = q * static_cast<double>(take - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const auto lo_it = recent.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(recent.begin(), lo_it, recent.end());
  const double lo_value = *lo_it;
  const double hi_value = lo + 1 < take ? *std::min_element(lo_it + 1, recent.end()) : lo_value;
  const double frac = pos - static_cast<double>(lo);
  const auto value =
      static_cast<SimDuration>(std::llround(lo_value * (1.0 - frac) + hi_value * frac));
  ring->cached_quantiles[key] = CachedValue{ring->revision, value};
  return value;
}

std::vector<SimDuration> ProfileStore::exec_times(ServiceTypeId service,
                                                  RequestTypeId request_type) const {
  std::vector<SimDuration> out;
  const Ring* ring = find(service, request_type);
  if (ring == nullptr) return out;
  const std::size_t n = ring->cases.size();
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring->cases[(ring->next + i) % n]);
  return out;
}

}  // namespace vmlp::trace
