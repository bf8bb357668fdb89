// v-MLP scheduling metrics (Section III-E):
//
//  * x — the history-window metric, x ∝ SLA × V_r, clamped into [1, 100];
//  * Δt — the per-microservice execution-time slack estimate, chosen per
//    volatility band (Algorithm 1):
//        low V_r   → the historical maximum slack,
//        mid V_r   → the 50 % latency of the most recent x % executions,
//        high V_r  → the 99 % latency of the most recent x % executions;
//  * R — the waiting-queue reorder ratio. The paper's formula
//    R = α·V_r·SLA·t_arr/Δt₀ combines volatility, SLA urgency, FCFS and SJF;
//    we realize those semantics dimensionally soundly as
//        R = σ( V_r · (waited/SLO) · (ref/Δt₀) )
//    with σ(s) = s/(1+s) normalizing into (0, 1): longer waiting, tighter
//    SLA, shorter shortest-stage and higher volatility all raise priority.
#pragma once

#include <optional>

#include "common/types.h"
#include "trace/profile_store.h"

namespace vmlp::mlp {

struct VmlpParams {
  double mid_quantile = 0.50;   ///< Algorithm 1 line 13
  double high_quantile = 0.99;  ///< Algorithm 1 line 19
  std::size_t max_chain_choices = 4;      ///< m, the chain choices per request
  SimDuration plan_search_window = 50 * kMsec;  ///< how far ahead a stage may slip
  std::size_t plan_search_steps = 8;            ///< admission probes inside the window
  std::size_t max_admit_probes = 160;           ///< total (machine, start) probes per stage
  std::size_t max_failed_chains = 2;            ///< chain choices tried once one failed
  std::size_t max_defers_per_pass = 8;          ///< failed plans tolerated per queue scan;
                                                ///< the scan continues past failures
                                                ///< ("switch r_i with r_{i+1}") so smaller
                                                ///< requests behind a blocked head still admit
  std::size_t max_heal_candidates = 32;         ///< waiting-queue prefix scanned per late event
  // Ablation switches (benchmarked in bench/ablation_vmlp).
  bool volatility_aware = true;   ///< false: every request uses the mean Δt
  bool enable_delay_slot = true;
  bool enable_resource_stretch = true;
  /// Cell router: admit_stage probes machines cell by cell in the cluster
  /// topology's ranked order (least-loaded first) instead of scanning the
  /// flat machine range. Two more policies apply on a multi-cell topology:
  ///  * headroom-index jump — each cell's scan starts at the first machine
  ///    the cell's headroom summary guarantees can host the demand at every
  ///    time, not at the cell's rotating cursor;
  ///  * cell shed — a slip pass that finds no probeable machine (every up
  ///    machine classified as unable to admit the stage) leaves the cell for
  ///    the next ranked one, saving the rest of the probe budget for it.
  /// On a single-cell topology the router arithmetic degenerates to the flat
  /// scan bit-exactly; false = the pre-topology reference loop used by
  /// determinism_check claim 7.
  bool cell_router = true;
  /// Cells visited per admission stage before giving up (the shed budget).
  /// Bounds admission work by O(router_max_cells × cell size) instead of
  /// O(cluster size); ignored when the topology has one cell.
  std::size_t router_max_cells = 2;
};

/// x ∈ [1, 100]: fraction of recent history consulted, growing with SLA
/// tightness (slo relative to the application's loosest SLO) and volatility.
double x_percent(double v_r, SimDuration slo, SimDuration max_slo);

/// Reorder ratio in (0, 1); higher pops first.
double reorder_ratio(double v_r, SimDuration slo, SimDuration waited, SimDuration dt0,
                     SimDuration ref_dt);

/// Algorithm 1's Δt for one microservice of a request with volatility v_r.
/// Falls back to `fallback` when no history exists.
SimDuration estimate_slack(const trace::ProfileStore& profiles, ServiceTypeId service,
                           RequestTypeId request_type, double v_r, double x,
                           SimDuration fallback, const VmlpParams& params);

}  // namespace vmlp::mlp
