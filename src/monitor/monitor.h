// Cluster resource monitoring (the Prometheus/cAdvisor analogue).
//
// A ClusterMonitor samples every machine's usage on a fixed period driven by
// the simulation engine and accumulates the paper's overall utilization U(t)
// series (Fig. 11) and its run mean.
#pragma once

#include "cluster/cluster.h"
#include "sim/engine.h"
#include "stats/timeseries.h"

namespace vmlp::monitor {

class ClusterMonitor {
 public:
  /// Samples `clustr` every `period`, recording into buckets of `bucket`
  /// width over [0, horizon).
  ClusterMonitor(const cluster::Cluster& clustr, SimDuration period, SimDuration bucket,
                 SimTime horizon);

  /// Arm the periodic sampling on the engine (first sample at t=0).
  void attach(sim::Engine& engine);
  /// Take one sample immediately (also usable without an engine). Samples at
  /// or past the horizon are ignored: Engine::run_until(horizon) fires events
  /// with time <= horizon, so a period dividing the horizon lands one tick
  /// exactly on it — outside every bucket.
  void sample(SimTime now);

  [[nodiscard]] const stats::TimeSeries& overall_series() const { return overall_; }
  [[nodiscard]] std::size_t sample_count() const { return samples_; }

  /// Mean of U over all samples taken so far.
  [[nodiscard]] double mean_overall() const;

 private:
  const cluster::Cluster& cluster_;
  SimDuration period_;
  SimTime horizon_;
  stats::TimeSeries overall_;
  std::size_t samples_ = 0;
  double overall_sum_ = 0.0;
};

}  // namespace vmlp::monitor
