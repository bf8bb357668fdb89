#include "monitor/monitor.h"

#include "common/error.h"

namespace vmlp::monitor {

ClusterMonitor::ClusterMonitor(const cluster::Cluster& clustr, SimDuration period,
                               SimDuration bucket, SimTime horizon)
    : cluster_(clustr),
      period_(period),
      horizon_(horizon),
      overall_(bucket, horizon),
      cpu_(bucket, horizon),
      mem_(bucket, horizon) {
  VMLP_CHECK_MSG(period > 0, "monitor period must be positive");
}

void ClusterMonitor::attach(sim::Engine& engine) {
  engine.schedule_periodic(engine.now(), period_, [this, &engine] { sample(engine.now()); });
}

void ClusterMonitor::sample(SimTime now) {
  if (now < 0 || now >= horizon_) return;
  const cluster::ResourceVector usage = cluster_.total_usage();
  const cluster::ResourceVector capacity = cluster_.total_capacity();
  const double overall = cluster_.overall_utilization();

  overall_.add(now, overall);
  cpu_.add(now, capacity.cpu > 0 ? usage.cpu / capacity.cpu : 0.0);
  mem_.add(now, capacity.mem > 0 ? usage.mem / capacity.mem : 0.0);

  latest_ = UtilizationSnapshot{now, overall, usage, capacity};
  ++samples_;
  overall_sum_ += overall;
}

double ClusterMonitor::mean_overall() const {
  return samples_ == 0 ? 0.0 : overall_sum_ / static_cast<double>(samples_);
}

}  // namespace vmlp::monitor
