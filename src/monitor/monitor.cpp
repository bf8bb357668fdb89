#include "monitor/monitor.h"

#include "common/error.h"

namespace vmlp::monitor {

ClusterMonitor::ClusterMonitor(const cluster::Cluster& clustr, SimDuration period,
                               SimDuration bucket, SimTime horizon)
    : cluster_(clustr),
      period_(period),
      horizon_(horizon),
      overall_(bucket, horizon) {
  VMLP_CHECK_MSG(period > 0, "monitor period must be positive");
}

void ClusterMonitor::attach(sim::Engine& engine) {
  engine.schedule_periodic(engine.now(), period_, [this, &engine] { sample(engine.now()); });
}

void ClusterMonitor::sample(SimTime now) {
  if (now < 0 || now >= horizon_) return;
  const double overall = cluster_.overall_utilization();
  overall_.add(now, overall);
  ++samples_;
  overall_sum_ += overall;
}

double ClusterMonitor::mean_overall() const {
  return samples_ == 0 ? 0.0 : overall_sum_ / static_cast<double>(samples_);
}

}  // namespace vmlp::monitor
