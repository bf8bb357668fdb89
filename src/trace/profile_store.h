// ProfileStore: the paper's per-microservice history matrix
// s_i = [u_cpu, u_mem, u_io, l, Δt] (Section III-E) — one row per historical
// execution case, keyed by (microservice type, request type).
//
// Algorithm 1 consumes it through two queries:
//   * max_slack            — the Δt column's maximum (low-V_r requests);
//   * quantile_of_recent   — "p latency of x% executions": the p-quantile of
//                            the most recent x% of rows (mid/high V_r).
// Histories are ring buffers so long runs stay O(1) per record.
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/resources.h"
#include "common/types.h"

namespace vmlp::trace {

struct ExecutionCase {
  cluster::ResourceVector usage;  ///< resources the case executed with
  double machine_load = 0.0;      ///< the l column: host utilization in [0,1]
  SimDuration exec_time = 0;      ///< the Δt column
};

class ProfileStore {
 public:
  /// New records tolerated before a cached max/quantile refreshes.
  static constexpr std::uint64_t kCacheStaleness = 32;

  /// Keep at most `capacity` most recent cases per (service, request type).
  explicit ProfileStore(std::size_t capacity = 512);

  void record(ServiceTypeId service, RequestTypeId request_type, const ExecutionCase& c);

  [[nodiscard]] std::size_t case_count(ServiceTypeId service, RequestTypeId request_type) const;
  [[nodiscard]] bool has_history(ServiceTypeId service, RequestTypeId request_type) const;

  /// Max Δt across the whole history (the "maximum execution time slack").
  [[nodiscard]] std::optional<SimDuration> max_slack(ServiceTypeId service,
                                                     RequestTypeId request_type) const;
  /// Mean Δt across the whole history.
  [[nodiscard]] std::optional<SimDuration> mean_exec(ServiceTypeId service,
                                                     RequestTypeId request_type) const;
  /// q-quantile (q in [0,1]) of Δt over the most recent max(1, x% ) of cases.
  /// x_percent in (0, 100].
  [[nodiscard]] std::optional<SimDuration> quantile_of_recent(ServiceTypeId service,
                                                              RequestTypeId request_type, double q,
                                                              double x_percent) const;
  /// All recorded Δt values (oldest first), for characterization benches.
  [[nodiscard]] std::vector<SimDuration> exec_times(ServiceTypeId service,
                                                    RequestTypeId request_type) const;

 private:
  struct Key {
    ServiceTypeId service;
    RequestTypeId request_type;
    friend bool operator==(const Key& a, const Key& b) {
      return a.service == b.service && a.request_type == b.request_type;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<ServiceTypeId>{}(k.service) * 1000003u ^
             std::hash<RequestTypeId>{}(k.request_type);
    }
  };
  struct QuantileKey {
    int q_milli;
    int x_milli;
    friend bool operator==(const QuantileKey& a, const QuantileKey& b) {
      return a.q_milli == b.q_milli && a.x_milli == b.x_milli;
    }
  };
  struct QuantileKeyHash {
    std::size_t operator()(const QuantileKey& k) const {
      return static_cast<std::size_t>(k.q_milli) * 100003u + static_cast<std::size_t>(k.x_milli);
    }
  };
  struct CachedValue {
    std::uint64_t revision = 0;
    SimDuration value = 0;
  };
  struct Ring {
    std::vector<ExecutionCase> cases;  // capacity-bounded ring
    std::size_t next = 0;              // oldest case's slot, overwritten next once full
    std::uint64_t revision = 0;        // total records ever
    // O(1) aggregates maintained incrementally.
    double exec_sum = 0.0;
    // Hot queries are answered from these caches, refreshed after
    // kCacheStaleness new records (Algorithm 1 calls them per stage, per
    // planning attempt — recomputation each call would sort the ring).
    mutable CachedValue cached_max;
    mutable std::unordered_map<QuantileKey, CachedValue, QuantileKeyHash> cached_quantiles;
  };

  [[nodiscard]] const Ring* find(ServiceTypeId service, RequestTypeId request_type) const;

  std::size_t capacity_;
  std::unordered_map<Key, Ring, KeyHash> rings_;
};

}  // namespace vmlp::trace
