#include "obs/collector.h"

#include <algorithm>
#include <string>

namespace vmlp::obs {

const char* policy_callback_name(PolicyCallback cb) {
  switch (cb) {
    case PolicyCallback::kArrival:
      return "on_request_arrival";
    case PolicyCallback::kTick:
      return "on_tick";
    case PolicyCallback::kNodeStarted:
      return "on_node_started";
    case PolicyCallback::kNodeFinished:
      return "on_node_finished";
    case PolicyCallback::kRequestFinished:
      return "on_request_finished";
    case PolicyCallback::kNodeUnblocked:
      return "on_node_unblocked";
    case PolicyCallback::kLateInvocation:
      return "on_late_invocation";
    case PolicyCallback::kNodeOrphaned:
      return "on_node_orphaned";
    case PolicyCallback::kCallbackCount:
      break;
  }
  return "unknown";
}

namespace {

/// End-to-end latency buckets in simulated microseconds: 1 ms .. 5 s in a
/// 1-2-5 decade ladder (SLOs in the reproduced workloads sit at tens to
/// hundreds of milliseconds).
std::vector<double> latency_bounds_us() {
  return {1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6};
}

}  // namespace

Collector::Collector(std::size_t topology_cells) : ring_(kRingCapacity) {
  Registry& r = registry_;

  engine_.events_scheduled =
      r.add_counter("engine.events_scheduled", "events entered into the engine queue");
  engine_.events_executed =
      r.add_counter("engine.events_executed", "events fired by the engine");
  engine_.events_cancelled =
      r.add_counter("engine.events_cancelled", "pending events cancelled");
  engine_.events_rescheduled =
      r.add_counter("engine.events_rescheduled", "decrease-key moves of pending events");
  engine_.pending_peak =
      r.add_gauge("engine.pending_peak", "high-water mark of the pending-event heap");

  driver_.requests_arrived =
      r.add_counter("driver.requests_arrived", "requests admitted from the arrival stream");
  driver_.requests_completed =
      r.add_counter("driver.requests_completed", "requests that finished every microservice");
  driver_.requests_unfinished =
      r.add_counter("driver.requests_unfinished", "requests still incomplete at the horizon");
  driver_.placements_committed =
      r.add_counter("driver.placements_committed", "successful place() admission decisions");
  driver_.starts_early =
      r.add_counter("driver.starts_early", "nodes started before their planned time");
  driver_.starts_ontime =
      r.add_counter("driver.starts_ontime", "nodes started at/after their planned time");
  driver_.starts_denied =
      r.add_counter("driver.starts_denied", "early-start attempts pushed back to plan time");
  // Zero for a scheduler that did not subscribe to sched::Hook::kLateInvocation.
  driver_.lates_fired =
      r.add_counter("driver.lates_fired", "on_late_invocation deliveries to the scheduler");
  driver_.limits_adjusted =
      r.add_counter("driver.limits_adjusted", "adjust_limit resource reallocations");
  driver_.bursts_injected =
      r.add_counter("driver.bursts_injected", "phantom co-tenant interference bursts");
  driver_.latency_us = r.add_histogram(
      "driver.latency_us", "end-to-end latency of completed requests (simulated us)",
      latency_bounds_us());

  failure_.machines_crashed =
      r.add_counter("failure.machines_crashed", "machine outage windows entered");
  failure_.machines_recovered =
      r.add_counter("failure.machines_recovered", "outage windows exited in-horizon");
  failure_.containers_faulted =
      r.add_counter("failure.containers_faulted", "mid-flight container deaths");
  failure_.invocations_timedout =
      r.add_counter("failure.invocations_timedout", "invocation-timeout watchdog kills");
  failure_.nodes_orphaned =
      r.add_counter("failure.nodes_orphaned", "executions/placements lost to failures");
  failure_.retries_scheduled =
      r.add_counter("failure.retries_scheduled", "bounded-retry re-placements armed");
  failure_.retries_dropped =
      r.add_counter("failure.retries_dropped", "nodes abandoned past the retry budget");
  failure_.windows_planned =
      r.add_gauge("failure.windows_planned", "outage windows in the run's failure schedule");

  ledger_.windows_reserved =
      r.add_counter("ledger.windows_reserved", "reservation windows booked");
  ledger_.windows_released =
      r.add_counter("ledger.windows_released", "reservation windows released");
  ledger_.fits_queried = r.add_counter("ledger.fits_queried", "point-in-time fits() queries");
  ledger_.spans_tested =
      r.add_counter("ledger.spans_tested", "span_could_fit() window floor tests");
  ledger_.hints_hit =
      r.add_counter("ledger.hints_hit", "covering-index lookups resolved from a hint");
  ledger_.hints_missed =
      r.add_counter("ledger.hints_missed", "covering-index lookups that fell back to search");
  ledger_.segments_peak =
      r.add_gauge("ledger.segments_peak", "largest per-machine segment vector seen");

  mlp_.organize_calls =
      r.add_counter("mlp.organize_calls", "self-organizing queue scans (organize passes)");
  mlp_.plans_committed =
      r.add_counter("mlp.plans_committed", "chain plans committed by organize()");
  mlp_.plans_deferred =
      r.add_counter("mlp.plans_deferred", "requests left queued after a failed plan");
  mlp_.stages_coalesced =
      r.add_counter("mlp.stages_coalesced", "stages placed by committed chain plans");
  mlp_.stages_aligned =
      r.add_counter("mlp.stages_aligned", "stage starts aligned to predecessor finishes");
  mlp_.probes_spent =
      r.add_counter("mlp.probes_spent", "(machine, start) admission probes consumed");
  mlp_.probes_pruned =
      r.add_counter("mlp.probes_pruned", "admission probes skipped after classification");
  mlp_.slots_filled =
      r.add_counter("mlp.slots_filled", "delay-slot vacancies filled with early stages");
  mlp_.requests_filled =
      r.add_counter("mlp.requests_filled", "whole queued requests planned into vacancies");
  mlp_.resources_stretched =
      r.add_counter("mlp.resources_stretched", "resource-stretch grants to running nodes");
  mlp_.orphans_relocated =
      r.add_counter("mlp.orphans_relocated", "failure orphans re-planned via organize_node");

  topology_.stages_routed =
      r.add_counter("topology.stages_routed", "admission stages routed through ranked cells");
  topology_.cells_shed =
      r.add_counter("topology.cells_shed", "cells abandoned by a stage for the next ranked cell");
  topology_.index_jumps =
      r.add_counter("topology.index_jumps", "scan bases rotated by the headroom summary index");
  topology_.cells_configured =
      r.add_gauge("topology.cells_configured", "cells in the run's cluster partition");
  topology_.cell_live_peak =
      r.add_gauge("topology.cell_live_peak", "peak live placements across the whole cluster");
  // Bounded per-cell label family; dynamic names pass the same runtime style
  // check as the literals above (Registry::check_name).
  const std::size_t cells = std::min(topology_cells, kMaxCellGauges);
  topology_.cell_live.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    topology_.cell_live.push_back(
        r.add_gauge("topology.cell" + std::to_string(c) + ".live_peak",
                    "peak live placements in cell " + std::to_string(c)));
  }

  // Latency-attribution families: one per volatility band, in
  // app::VolatilityBand declaration order. Phase suffixes follow
  // trace::Phase declaration order and trace::phase_name's spelling
  // (trace/critical_path.h); the recording site static_asserts the counts
  // match and CriticalPath.PhaseNamesCoverEnumInOrder checks the names.
  static constexpr const char* kBandNames[AttributionMetrics::kBands] = {"low", "mid", "high"};
  static constexpr const char* kPhaseSuffixes[AttributionMetrics::kPhases] = {
      "network", "queue", "exec", "lost_exec", "backoff", "heal"};
  const std::vector<double> share_bounds = {0.02, 0.05, 0.1, 0.2, 0.3,
                                            0.5,  0.7,  0.85, 0.95, 1.0};
  const std::vector<double> path_len_bounds = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32};
  for (std::size_t b = 0; b < AttributionMetrics::kBands; ++b) {
    const std::string prefix = std::string("attribution.") + kBandNames[b] + ".";
    auto& bm = attribution_.band[b];
    for (std::size_t p = 0; p < AttributionMetrics::kPhases; ++p) {
      bm.phase_share[p] = r.add_histogram(
          prefix + kPhaseSuffixes[p] + "_share",
          std::string(kPhaseSuffixes[p]) + " phase share of end-to-end latency (" +
              kBandNames[b] + "-volatility requests)",
          share_bounds);
    }
    bm.path_len = r.add_histogram(prefix + "path_len",
                                  "critical-path length in microservice nodes (" +
                                      std::string(kBandNames[b]) + "-volatility requests)",
                                  path_len_bounds);
    bm.off_path_slack_us = r.add_histogram(
        prefix + "off_path_slack_us",
        "slack of off-critical-path stages before they would delay a consumer (simulated us)",
        latency_bounds_us());
  }
}

}  // namespace vmlp::obs
