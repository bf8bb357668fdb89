// SimulationDriver: the trace-driven evaluation engine (Fig. 8).
//
// Wires together every substrate — event engine, cluster, network, execution
// model, tracing, profiling, monitoring, QoS accounting — and executes a
// request stream under a pluggable scheduler policy.
//
// Mechanism highlights:
//  * Work/rate execution: each running instance holds remaining work; its
//    rate derives from the *effective* allocation, which shrinks when the
//    host machine's granted limits exceed capacity (oversubscription is
//    legal and punished, never crashes). Any membership/limit change on a
//    machine re-rates every instance there and reschedules finish events.
//  * Dependency communication: a callee becomes startable only after every
//    caller's completion message arrives; message delay is sampled from the
//    CommModel using the actual (caller machine, callee machine) distance.
//  * Reservations: every placement books [planned_start, +reserve_duration)
//    on the target machine's ledger. v-MLP plans chains into the future;
//    baselines book from "now" with their own estimates.
//  * Late invocations: a placed node that has not started by its planned
//    start triggers IScheduler::on_late_invocation — the hook the paper's
//    self-healing module hangs off. Like on_node_started, on_node_finished
//    and on_request_finished it is optional: it is delivered only to a
//    scheduler that subscribed to it in attach() (subscribe()), and without
//    a subscription the driver arms no late watch at all. A forwarding
//    wrapper must forward attach() for its policy's subscription to count.
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <ranges>
#include <vector>

#include "app/application.h"
#include "app/exec_model.h"
#include "common/arena.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "loadgen/generator.h"
#include "monitor/monitor.h"
#include "net/comm_model.h"
#include "net/topology.h"
#include "obs/collector.h"
#include "sched/failure.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "stats/qos.h"
#include "trace/critical_path.h"
#include "trace/profile_store.h"
#include "trace/tracer.h"

namespace vmlp::sched {

/// Denied early-start attempts re-probe the machine at this interval.
inline constexpr SimDuration kEarlyRetryInterval = 2 * kMsec;

/// Background interference injection (Section II-B, Observation 2: resource
/// over-subscription causes "unpredictable performance interference").
/// Random machines receive phantom co-tenant load for random intervals;
/// the disturbance is invisible to every scheduler's ledger — reacting to it
/// is what the self-healing module is for.
struct InterferenceParams {
  bool enabled = false;
  double events_per_second = 2.0;          ///< cluster-wide burst arrival rate
  SimDuration duration_mean = 500 * kMsec; ///< exponential burst length
  double magnitude = 0.5;                  ///< fraction of machine capacity occupied
};

struct DriverParams {
  SimTime horizon = 100 * kSec;
  SimDuration tick = 1 * kMsec;
  InterferenceParams interference;
  FailureParams failure;
  std::size_t machines_per_rack = 20;
  cluster::ClusterParams cluster;
  net::CommModelParams comm;
  app::ExecModelParams exec;
  SimDuration monitor_period = 100 * kMsec;
  SimDuration monitor_bucket = 1 * kSec;
  std::uint64_t seed = 1;
  /// Pre-populate the profile store with this many offline execution cases
  /// per (service, request type) — the paper's historical traces.
  std::size_t profile_warmup = 64;
  /// Drop per-machine ledger history every this often (0 = never).
  SimDuration ledger_compact_period = 10 * kSec;
  /// Record a trace::Span per finished node. Spans are the Fig. 8 tracing
  /// feedback artifact but cost ~100 B per execution; a 10^6-request scale
  /// run either turns them off or sets trace_release_completed to keep RSS
  /// bounded (profiles still record — the scheduler's feedback loop does not
  /// need retained spans). Spans also carry the attribution ledger: with
  /// spans on, each completion runs the latency-attribution pass whenever
  /// something reads it (see attribute_request()).
  bool trace_spans = true;
  /// Recycle a request's tracer state (record + span slots) as soon as it
  /// completes, after the attribution pass consumed it. Bounds tracing
  /// memory by the in-flight request set, at the cost of post-run span
  /// exports (Tracer::spans() becomes unavailable) — the streamed scale
  /// bench's way of running tracing + attribution under its RSS assert.
  bool trace_release_completed = false;
  /// Telemetry (metrics registry + decision-event ring + policy profiling,
  /// plus the `attribution.*` histograms when trace_spans is on).
  /// Strictly write-only for the simulation: enabling it cannot change any
  /// RunResult byte (determinism_check claims 6 and 8).
  obs::Params obs;
};

/// One completion message from a finished DAG parent.
struct ParentMsg {
  std::uint32_t parent;  ///< parent node index (attribution: blocking-edge id)
  MachineId machine;     ///< caller machine (network distance source)
  SimTime finish;        ///< caller finish time
};

/// A DAG node's lifecycle (Section III's MLP unit). A node is waiting until
/// its last parent finishes, ready until placed, and placed until it starts;
/// a lost placement or execution sends it back to ready (dependencies met)
/// or waiting.
enum class NodeState : std::uint8_t { kWaiting, kReady, kPlaced, kRunning, kDone };

constexpr const char* node_state_name(NodeState s) {
  constexpr const char* kNames[] = {"waiting", "ready", "placed", "running", "done"};
  return kNames[static_cast<std::size_t>(s)];
}

/// Per-node driver state (mechanism-side; policy state stays in schedulers).
/// Only the driver writes it; schedulers read it through a const
/// ActiveRequest.
struct DriverNode {
  NodeState state = NodeState::kWaiting;
  std::size_t pending_parents = 0;  ///< parents not finished yet
  MachineId machine;
  cluster::ResourceVector limit;
  SimTime planned_start = -1;
  SimDuration reserve_duration = 0;
  SimTime reserved_begin = -1;
  SimTime reserved_end = -1;
  bool has_reservation = false;

  /// Completion messages from finished parents. Arena-backed: one
  /// short-lived vector per DAG node is exactly the small allocation pattern
  /// the per-shard arena exists for.
  ArenaVector<ParentMsg> parent_msgs;
  SimTime startable_at = -1;  ///< max(parent finish + comm), known once placed & unblocked
  /// Parent whose message bounded startable_at (latest arrival, ties to the
  /// lower parent index). Recorded on the span: the critical-path walk and
  /// the Zipkin parentId both follow it.
  /// trace::Span::kNoNode for roots.
  std::uint32_t blocking_parent = trace::Span::kNoNode;
  /// Failure-phase intervals accrued across lost attempts (attribution
  /// ledger; empty on the no-failure path), stamped onto the final span.
  trace::PhaseLedger phases;
  sim::EventHandle start_event;
  sim::EventHandle late_event;

  // Running state.
  InstanceId instance;
  ContainerId container;
  SimTime started_at = -1;   ///< start of the current (or last) execution
  SimTime finished_at = -1;  ///< set once done
  double remaining_work = 0.0;  ///< microseconds of work at rate 1
  double rate = 1.0;
  double jitter = 1.0;  ///< S=3 contention-dispersion multiplier, fixed per instance
  SimTime last_advance = 0;
  sim::EventHandle finish_event;
  sim::EventHandle fault_event;    ///< pending mid-flight container fault
  sim::EventHandle timeout_event;  ///< invocation-timeout watchdog
  /// Executions lost to crashes/faults/timeouts so far (bounded retry).
  int attempts = 0;
  /// Retry budget exhausted: the node is never re-placed and the request
  /// stays unfinished (accounted as a QoS violation at the horizon).
  bool abandoned = false;
  /// Consecutive denied early-start probes; at kStuckThreshold the scheduler
  /// is told the node is effectively late so it can relocate it.
  int early_denial_streak = 0;
  bool stuck_notified = false;
  static constexpr int kStuckThreshold = 3;
};

/// One in-flight request: its type, arrival, and every node's lifecycle.
struct ActiveRequest {
  /// Roots start ready; every other node waits on its parents.
  ActiveRequest(const app::RequestType& request_type, RequestId request_id, SimTime arrived_at)
      : type(request_type), id(request_id), arrival(arrived_at), nodes(request_type.size()) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].pending_parents = type.dag().parents(i).size();
      if (nodes[i].pending_parents == 0) nodes[i].state = NodeState::kReady;
    }
  }

  /// Nodes in kReady (dependencies met, not placed yet), in index order. A
  /// lazy view: it allocates nothing and reads each state as it advances.
  [[nodiscard]] auto ready_nodes() const {
    return std::views::iota(std::size_t{0}, nodes.size()) |
           std::views::filter([this](std::size_t i) { return nodes[i].state == NodeState::kReady; });
  }
  /// A node is a delay-slot candidate iff it is still waiting/ready and none
  /// of its ancestors is placed or running (Section III-F: candidates must
  /// not depend on executing or late-invoking microservices).
  [[nodiscard]] bool independent_of_active(std::size_t node) const;

  const app::RequestType& type;
  const RequestId id;
  const SimTime arrival;
  ArenaVector<DriverNode> nodes;
  std::size_t done_count = 0;
  /// At least one node lost an execution or placement to a failure.
  bool degraded = false;
};

struct RunResult {
  std::size_t arrived = 0;
  std::size_t completed = 0;
  std::size_t unfinished = 0;
  double qos_violation_rate = 0.0;
  double mean_utilization = 0.0;
  double p50_latency_us = 0.0;
  double p90_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double mean_latency_us = 0.0;
  double throughput_rps = 0.0;  ///< completions / horizon
  std::size_t placements = 0;   ///< successful place() calls (admission decisions)
  /// Wall-clock seconds spent inside scheduler policy callbacks, including
  /// driver work they invoke synchronously (place/ledger bookings). This is
  /// the denominator of the perf harness's placements-per-second metric —
  /// host timing, NOT simulated time, so it is nondeterministic and must
  /// never feed a byte-compared output.
  double policy_seconds = 0.0;

  // Failure-robustness metrics (all zero when failure injection is off).
  std::size_t machine_crashes = 0;
  std::size_t container_faults = 0;
  std::size_t invocation_timeouts = 0;
  std::size_t orphaned_nodes = 0;      ///< executions lost mid-flight
  std::size_t retries = 0;             ///< retry re-placements scheduled
  std::size_t abandoned_requests = 0;  ///< unfinished with retry budget spent
  /// End-to-end latency of *completed* requests that lost at least one
  /// execution or placement to a failure.
  double orphaned_mean_latency_us = 0.0;
  double orphaned_p99_latency_us = 0.0;
  /// SLO-meeting completions per second — throughput that actually counts.
  double goodput_rps = 0.0;
};

class SimulationDriver {
 public:
  SimulationDriver(const app::Application& application, IScheduler& scheduler,
                   DriverParams params);

  /// Queue a pre-generated arrival stream (sorted or not).
  void load_arrivals(const std::vector<loadgen::Arrival>& arrivals);
  /// Streamed arrival mode: pull arrivals from `stream` one at a time, each
  /// arrival event chaining the next pull — a 10^6-request scale run keeps
  /// O(1) arrival state instead of materializing the vector. NOT
  /// byte-identical to load_arrivals over the drained stream (engine
  /// sequence numbers interleave differently, so same-timestamp ties can
  /// order differently); a streamed run is deterministic in itself and
  /// admits exactly the arrivals the bulk path would.
  void stream_arrivals(loadgen::ArrivalStream stream);
  /// Run to the horizon and finalize accounting. Returns the result summary.
  RunResult run();

  /// Subscribe the scheduler to optional hooks (bits accumulate). Call from
  /// IScheduler::attach(); a hook nobody subscribed to is never delivered,
  /// and the driver skips the events and host-clock reads it would cost.
  void subscribe(Hook hooks) { hooks_ = hooks_ | hooks; }
  /// True once the scheduler subscribed to `hook`.
  [[nodiscard]] bool wants(Hook hook) const { return (hooks_ & hook) != Hook::kNone; }

  // ---- scheduler-facing API -------------------------------------------
  [[nodiscard]] SimTime now() const { return engine_.now(); }
  [[nodiscard]] const DriverParams& params() const { return params_; }
  [[nodiscard]] const app::Application& application() const { return app_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] trace::ProfileStore& profiles() { return profiles_; }
  [[nodiscard]] const monitor::ClusterMonitor& cluster_monitor() const { return monitor_; }
  [[nodiscard]] trace::Tracer& tracer() { return tracer_; }
  /// Telemetry collector; nullptr when DriverParams::obs.enabled is false.
  /// Subsystems and schedulers may record through it but must never read
  /// recorded values back into decisions (zero-perturbation contract).
  [[nodiscard]] obs::Collector* observer() { return obs_.get(); }
  [[nodiscard]] const obs::Collector* observer() const { return obs_.get(); }

  /// The live request `id`, or nullptr once it completed (or was never
  /// issued). Read-only: node state changes only through the driver's API.
  /// Inline: every scheduler calls it per event.
  [[nodiscard]] const ActiveRequest* find_request(RequestId id) const {
    // Ids below the window wrap to a huge offset and miss the bounds check.
    const std::uint64_t slot = id.value() - first_live_id_;
    return slot < live_.size() ? live_[slot].get() : nullptr;
  }
  /// Running (request, node) pairs currently executing on a machine. Throws
  /// InvariantError for a machine id outside the cluster.
  [[nodiscard]] std::vector<std::pair<RequestId, std::size_t>> running_on(MachineId machine) const;

  /// Place node `node` of request `id` on `machine` with resource `limit`,
  /// planned to start at `planned_start` (>= now) and reserving
  /// `reserve_duration` of ledger time. The node starts at
  /// max(planned_start, dependency messages' arrival).
  void place(RequestId id, std::size_t node, MachineId machine,
             const cluster::ResourceVector& limit, SimTime planned_start,
             SimDuration reserve_duration);

  /// Change a *running* node's resource limit (the Table III controllers /
  /// resource-stretch actuation). Re-rates the host machine.
  void adjust_limit(RequestId id, std::size_t node, const cluster::ResourceVector& new_limit);

  /// Release a placed-but-not-running node's remaining ledger reservation
  /// (the delay-slot mechanism frees a late node's vacancy for candidates;
  /// the node re-books automatically when it actually starts).
  void release_reservation(RequestId id, std::size_t node);

  /// Undo a placement that has not started (the self-healing module's
  /// "relocation of late-invoking" microservices): the reservation is
  /// released, pending events cancelled, and the node returns to the
  /// ready/waiting state for re-placement.
  void unplace(RequestId id, std::size_t node);

  /// Mean communication delay estimate between two machines (planning aid).
  [[nodiscard]] SimDuration expected_comm(MachineId a, MachineId b) const {
    const auto& p = params_.comm;
    switch (topology_.distance(a, b)) {
      case net::Distance::kSameMachine:
        return static_cast<SimDuration>(p.same_machine_mean_us);
      case net::Distance::kSameRack:
        return static_cast<SimDuration>(p.same_rack_mean_us);
      case net::Distance::kCrossRack:
      default:
        return static_cast<SimDuration>(p.cross_rack_mean_us);
    }
  }
  /// Mean ingress delay (request handler -> first microservice).
  [[nodiscard]] SimDuration expected_ingress() const {
    return static_cast<SimDuration>(params_.comm.same_rack_mean_us);
  }

  /// Volatility of a request type (cached).
  [[nodiscard]] double volatility(RequestTypeId type) const;

  [[nodiscard]] std::size_t completed_count() const { return completed_; }

  /// Mechanism counters (observability for tests and ablations).
  struct Counters {
    std::size_t placements = 0;       ///< successful place() calls
    std::size_t early_starts = 0;     ///< nodes started before their planned time
    std::size_t early_denials = 0;    ///< early attempts pushed back to plan time
    std::size_t on_time_starts = 0;   ///< started at/after planned time
    /// on_late_invocation deliveries: 0 unless the scheduler subscribed to
    /// Hook::kLateInvocation (no watch is armed otherwise).
    std::size_t late_events = 0;
    std::size_t reallocations = 0;    ///< adjust_limit calls
    std::size_t interference_bursts = 0;  ///< injected co-tenant bursts
    std::size_t machine_crashes = 0;      ///< crash windows entered
    std::size_t machine_recoveries = 0;   ///< crash windows exited in-horizon
    std::size_t container_faults = 0;     ///< mid-flight container deaths
    std::size_t invocation_timeouts = 0;  ///< watchdog kills
    std::size_t orphaned_running = 0;     ///< executions lost mid-flight
    std::size_t orphaned_pending = 0;     ///< placements voided by a crash
    std::size_t retries_scheduled = 0;    ///< backoff retries armed
    std::size_t retries_dropped = 0;      ///< nodes past the retry budget
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// The run's machine outage windows (pure function of the seed).
  [[nodiscard]] const std::vector<FailureWindow>& failure_schedule() const {
    return failure_schedule_;
  }

 private:
  /// find_request() for the driver's own transitions (live_ owns mutable
  /// requests; only the public lookup hands them out const).
  [[nodiscard]] ActiveRequest* live_request(RequestId id) {
    return const_cast<ActiveRequest*>(find_request(id));
  }
  void warmup_profiles();
  void on_arrival(RequestTypeId type);
  /// Pull the next arrival from arrival_stream_ and schedule it (chained).
  void schedule_next_stream_arrival();
  void schedule_next_interference();
  void inject_interference();
  void schedule_failures();
  /// Machine outage: orphan running executions, void pending placements,
  /// release every reservation — then hand the lost work back to the
  /// scheduler via bounded retry / on_node_orphaned.
  void crash_machine(MachineId machine);
  void recover_machine(MachineId machine);
  /// Kill one running execution (crash/fault/timeout): container destroyed,
  /// reservation released, node back to ready, retry scheduled.
  void fail_running_node(ActiveRequest& ar, std::size_t node);
  void schedule_retry(ActiveRequest& ar, std::size_t node);
  /// A container-fault or timeout event fired for (id, node): if the node is
  /// still running, bump `counter` and fail the execution.
  void kill_running(RequestId id, std::size_t node, std::size_t& counter);
  /// The node loses its placement (unplace, crash void, or a lost
  /// execution): reservation tail released, pending start and late watch
  /// cancelled, placement fields cleared, cell placement dropped, and the
  /// node back to ready (dependencies met) or waiting. Ending a running
  /// execution is the caller's (end_execution).
  void lose_placement(ActiveRequest& ar, std::size_t node);
  /// Cancel `handle` if still pending and clear it.
  void cancel_event(sim::EventHandle& handle);
  /// Deliver one scheduler callback (`call`) inside a PolicyScope, the one
  /// place policy host time is measured.
  template <typename Call>
  void deliver(obs::PolicyCallback kind, Call&& call);
  void schedule_start_attempt(ActiveRequest& ar, std::size_t node);
  /// Arm (or move) the node's late watch at its planned start, if the
  /// scheduler subscribed to Hook::kLateInvocation and that time has not
  /// passed.
  void arm_late_watch(ActiveRequest& ar, std::size_t node);
  void start_node(RequestId id, std::size_t node);
  void finish_node(RequestId id, std::size_t node);
  void handle_parent_finished(ActiveRequest& ar, std::size_t child);
  /// Resolve a placed, unblocked node's startable time from its parents'
  /// completion messages (one comm-delay draw per message, in message
  /// order) and the blocking parent that bounded it.
  void resolve_startable(DriverNode& dn);
  /// A running node's execution ends (finish or failure): pending finish,
  /// fault and timeout events cancelled, dropped from its machine's running
  /// list, container destroyed.
  void end_execution(ActiveRequest& ar, std::size_t node);
  /// Re-rate all running instances on a machine and reschedule their finishes.
  void recompute_machine(MachineId machine);
  void advance_instance(DriverNode& dn, SimTime to);
  void release_reservation_tail(ActiveRequest& ar, std::size_t node, SimTime from);
  /// Audit tier: the machine's ledger at every future probe time must equal
  /// the sum of the live node reservations the driver tracks for it —
  /// capacity conservation across place/heal/release (no double-booked and
  /// no leaked reservations). No-op unless vmlp::audit::enabled().
  void audit_machine_conservation(MachineId machine) const;
  /// Copy the mechanism counters (driver, failure, engine-executed) into the
  /// telemetry registry at end of run — zero per-event cost for values the
  /// driver already tracks. No-op when telemetry is off.
  void sync_observability(const RunResult& result);
  /// Attribution pass at request completion, run when spans are recorded and
  /// a reader exists (a collector, or the audit tier): extract the critical
  /// path from the recorded spans, observe the per-band `attribution.*`
  /// histograms, and (audit tier) assert the exact phase-sum identity.
  /// Write-only: never touches simulated state.
  void attribute_request(const ActiveRequest& ar, SimTime completion);
  [[nodiscard]] double instance_rate(const app::MicroserviceType& type, const DriverNode& dn,
                                     const cluster::ResourceVector& effective) const;

  const app::Application& app_;
  IScheduler& scheduler_;
  DriverParams params_;

  sim::Engine engine_;
  cluster::Cluster cluster_;
  net::Topology topology_;
  net::CommModel comm_;
  app::ExecModel exec_;
  trace::Tracer tracer_;
  trace::ProfileStore profiles_;
  monitor::ClusterMonitor monitor_;
  stats::QosTracker qos_;

  /// One running instance on a machine. Caches the ActiveRequest pointer so
  /// the per-firing re-rate loop in recompute_machine() skips the request
  /// lookup; the pointer is stable (live_ holds unique_ptrs) and the entry
  /// is removed in finish_node() before the request itself is released.
  struct RunningRef {
    RequestId id;
    std::size_t node;
    ActiveRequest* ar;
  };

  Rng rng_;               // execution sampling
  Rng rng_interference_;  // interference injection stream
  Rng rng_failure_;       // per-invocation fault draws (schedule has its own)
  std::vector<FailureWindow> failure_schedule_;
  stats::SampleSet orphaned_latencies_;
  /// The request table: live requests in arrival order, slot i holding
  /// request first_live_id_ + i. Ids are issued only by on_arrival, so id
  /// order is arrival order and the next id is first_live_id_ +
  /// live_.size(). A completed request nulls its slot; null slots are popped
  /// off the front, so an unfinished (e.g. abandoned) request pins the
  /// window's front until the horizon.
  std::deque<std::unique_ptr<ActiveRequest>> live_;
  std::uint64_t first_live_id_ = 0;
  /// Running instances per machine, indexed by machine id (sized once).
  std::vector<std::vector<RunningRef>> running_on_;
  /// V_r per request type id, precomputed once: the lookup is hot in the
  /// self-organizing module's per-placement scoring and was previously
  /// recomputed from the service classes on every call.
  std::vector<double> volatility_cache_;
  std::uint64_t next_instance_ = 0;
  std::uint64_t next_container_ = 0;
  std::size_t arrived_ = 0;
  std::size_t completed_ = 0;
  Counters counters_;
  Hook hooks_ = Hook::kNone;  ///< optional hooks the scheduler subscribed to
  /// Accumulated host-clock nanoseconds inside scheduler callbacks (see
  /// RunResult::policy_seconds). The depth counter keeps re-entrant
  /// callback chains from double-counting the nested interval.
  std::int64_t policy_ns_ = 0;
  int policy_depth_ = 0;
  /// Host-clock origin for policy-profiling slices (set when run() starts).
  std::chrono::steady_clock::time_point policy_epoch_;
  std::unique_ptr<obs::Collector> obs_;  ///< null when telemetry is off
  /// Live arrival source in streamed mode (empty in bulk mode).
  std::optional<loadgen::ArrivalStream> arrival_stream_;
  bool ran_ = false;
};

}  // namespace vmlp::sched
