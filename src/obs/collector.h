// obs::Collector — one run's telemetry: a metrics registry, a decision-event
// ring, and a host-time policy-profiling slice buffer.
//
// The collector is the single registration site for every metric name in the
// simulator (grouped into per-subsystem handle structs below), which makes
// "register once per name" checkable both at runtime (Registry) and
// statically (tools/vmlp_lint.py).
//
// Zero-perturbation contract:
//  * Subsystems hold a `Collector*` that is null when telemetry is off; every
//    instrumentation site is `if (obs_) obs_->...`. Recording never reads
//    back into any decision, RNG draw, or simulated state, so RunResult and
//    every exported figure table are byte-identical with collection on or
//    off (determinism_check claim 6).
//  * Clock domains never mix: the registry and the event ring carry only
//    simulated-time values and are themselves deterministic; host-clock
//    policy slices live in a separate buffer that only the Perfetto exporter
//    reads and no byte-compared output ever includes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "obs/events.h"
#include "obs/registry.h"

namespace vmlp::obs {

/// The collector's one setting. Its capacities are the constants below and
/// its per-cell gauge count comes from the run's cluster (Collector's
/// constructor argument).
struct Params {
  /// Attach a Collector to the run. On a run that records spans
  /// (DriverParams::trace_spans) this also feeds the `attribution.*`
  /// histograms.
  bool enabled = false;
};

/// Decision-event ring capacity: records kept, older ones counted and
/// overwritten.
inline constexpr std::size_t kRingCapacity = 1 << 16;
/// Host-time policy profiling slices kept for Perfetto export; further
/// slices are counted as dropped.
inline constexpr std::size_t kMaxPolicySlices = 1 << 16;

/// Which scheduler policy callback a host-time profiling slice covers.
enum class PolicyCallback : std::uint8_t {
  kArrival = 0,
  kTick,
  kNodeStarted,
  kNodeFinished,
  kRequestFinished,
  kNodeUnblocked,
  kLateInvocation,
  kNodeOrphaned,
  kCallbackCount,
};

[[nodiscard]] const char* policy_callback_name(PolicyCallback cb);

/// One host-clock interval spent inside a scheduler policy callback,
/// relative to the run's start. Nondeterministic by nature — exported to the
/// Perfetto host lane only, never byte-compared.
struct PolicySlice {
  PolicyCallback kind = PolicyCallback::kArrival;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

class Collector {
 public:
  /// `topology_cells` is the cell count of the run's cluster topology: it
  /// sizes the bounded per-cell gauge family (clamped to kMaxCellGauges —
  /// per-cell labels, never per-machine cardinality).
  explicit Collector(std::size_t topology_cells);

  // ---- pre-registered handle families (all names live in collector.cpp) --
  struct EngineMetrics {
    CounterHandle events_scheduled, events_executed, events_cancelled, events_rescheduled;
    GaugeHandle pending_peak;
  };
  struct DriverMetrics {
    CounterHandle requests_arrived, requests_completed, requests_unfinished,
        placements_committed, starts_early, starts_ontime, starts_denied, lates_fired,
        limits_adjusted, bursts_injected;
    HistogramHandle latency_us;
  };
  struct FailureMetrics {
    CounterHandle machines_crashed, machines_recovered, containers_faulted,
        invocations_timedout, nodes_orphaned, retries_scheduled, retries_dropped;
    GaugeHandle windows_planned;
  };
  struct LedgerMetrics {
    CounterHandle windows_reserved, windows_released, fits_queried, spans_tested, hints_hit,
        hints_missed;
    GaugeHandle segments_peak;
  };
  struct MlpMetrics {
    CounterHandle organize_calls, plans_committed, plans_deferred, stages_coalesced,
        stages_aligned, probes_spent, probes_pruned, slots_filled, requests_filled,
        resources_stretched, orphans_relocated;
  };
  struct TopologyMetrics {
    CounterHandle stages_routed, cells_shed, index_jumps;
    GaugeHandle cells_configured, cell_live_peak;
    /// Per-cell live-placement peaks, one gauge per cell up to kMaxCellGauges
    /// (names topology.cellN.live_peak) — the per-cell label family.
    std::vector<GaugeHandle> cell_live;
  };
  /// Per-request latency attribution (fed when the run records spans): one
  /// family per volatility band (attribution.low.*, attribution.mid.*,
  /// attribution.high.*), each with a share-of-latency histogram per
  /// trace::Phase plus critical-path length and off-path slack. Fed at
  /// request completion by the driver's critical-path pass.
  struct AttributionMetrics {
    /// Mirrors trace::kPhaseCount in trace::Phase declaration order —
    /// static_assert'd at the single recording site (sched/driver.cpp).
    static constexpr std::size_t kPhases = 6;
    static constexpr std::size_t kBands = 3;  ///< app::VolatilityBand order
    struct BandMetrics {
      std::array<HistogramHandle, kPhases> phase_share;  ///< fraction of latency
      HistogramHandle path_len;                          ///< blocking-chain node count
      HistogramHandle off_path_slack_us;                 ///< slack of non-critical stages
    };
    std::array<BandMetrics, kBands> band;
  };

  /// Per-cell gauge cardinality bound: 10k machines at the auto cell target
  /// is 40 cells; anything past this exports as the aggregate peak only.
  static constexpr std::size_t kMaxCellGauges = 64;

  [[nodiscard]] const EngineMetrics& engine() const { return engine_; }
  [[nodiscard]] const DriverMetrics& driver() const { return driver_; }
  [[nodiscard]] const FailureMetrics& failure() const { return failure_; }
  [[nodiscard]] const LedgerMetrics& ledger() const { return ledger_; }
  [[nodiscard]] const MlpMetrics& mlp() const { return mlp_; }
  [[nodiscard]] const TopologyMetrics& topology() const { return topology_; }
  [[nodiscard]] const AttributionMetrics& attribution() const { return attribution_; }

  // ---- hot recording path (inline) ---------------------------------------
  void count(CounterHandle h, std::uint64_t n = 1) { registry_.count(h, n); }
  void set_counter(CounterHandle h, std::uint64_t v) { registry_.set_counter(h, v); }
  void set_gauge(GaugeHandle h, double v) { registry_.set_gauge(h, v); }
  void gauge_max(GaugeHandle h, double v) { registry_.gauge_max(h, v); }
  void observe(HistogramHandle h, double v) { registry_.observe(h, v); }
  void event(DecisionKind kind, SimTime at, std::uint64_t request = DecisionEvent::kNoRequest,
             std::uint32_t node = DecisionEvent::kNoIndex,
             std::uint32_t machine = DecisionEvent::kNoIndex, std::int64_t detail = 0) {
    ring_.push(DecisionEvent{kind, at, request, node, machine, detail});
  }
  void policy_slice(PolicyCallback kind, std::int64_t start_ns, std::int64_t dur_ns) {
    if (slices_.size() < kMaxPolicySlices) {
      slices_.push_back(PolicySlice{kind, start_ns, dur_ns});
    } else {
      ++slices_dropped_;
    }
  }

  [[nodiscard]] std::uint64_t counter_value(CounterHandle h) const {
    return registry_.counter_value(h);
  }

  [[nodiscard]] const Registry& registry() const { return registry_; }
  [[nodiscard]] const EventRing& events() const { return ring_; }
  [[nodiscard]] const std::vector<PolicySlice>& policy_slices() const { return slices_; }
  [[nodiscard]] std::uint64_t policy_slices_dropped() const { return slices_dropped_; }
  [[nodiscard]] Snapshot snapshot() const { return registry_.snapshot(); }

 private:
  Registry registry_;
  EventRing ring_;
  std::vector<PolicySlice> slices_;
  std::uint64_t slices_dropped_ = 0;

  EngineMetrics engine_;
  DriverMetrics driver_;
  FailureMetrics failure_;
  LedgerMetrics ledger_;
  MlpMetrics mlp_;
  TopologyMetrics topology_;
  AttributionMetrics attribution_;
};

}  // namespace vmlp::obs
