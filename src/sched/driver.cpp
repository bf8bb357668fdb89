#include "sched/driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/audit.h"
#include "common/error.h"

namespace vmlp::sched {

namespace {
/// Scoped host-clock accumulator around a scheduler callback. Only the
/// outermost scope on a callback chain accumulates, so a policy that
/// synchronously triggers another callback (place -> immediate start ->
/// on_node_started) is not double-counted. Host time never influences
/// simulation decisions — it only feeds RunResult::policy_seconds and, when
/// telemetry is on, the collector's host-clock profiling slices (which only
/// the Perfetto exporter reads; no byte-compared output includes them).
class PolicyScope {
 public:
  PolicyScope(std::int64_t& acc, int& depth, obs::Collector* obs, obs::PolicyCallback kind,
              std::chrono::steady_clock::time_point epoch)
      : acc_(acc), depth_(depth), obs_(obs), kind_(kind), epoch_(epoch) {
    if (depth_++ == 0) start_ = std::chrono::steady_clock::now();
  }
  ~PolicyScope() {
    if (--depth_ == 0) {
      const auto ns = [](std::chrono::steady_clock::duration d) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
      };
      const auto end = std::chrono::steady_clock::now();
      const std::int64_t dur = ns(end - start_);
      acc_ += dur;
      if (obs_ != nullptr) obs_->policy_slice(kind_, ns(start_ - epoch_), dur);
    }
  }
  PolicyScope(const PolicyScope&) = delete;
  PolicyScope& operator=(const PolicyScope&) = delete;

 private:
  std::int64_t& acc_;
  int& depth_;
  obs::Collector* obs_;
  obs::PolicyCallback kind_;
  std::chrono::steady_clock::time_point epoch_;
  std::chrono::steady_clock::time_point start_;
};
}  // namespace

template <typename Call>
void SimulationDriver::deliver(obs::PolicyCallback kind, Call&& call) {
  PolicyScope scope(policy_ns_, policy_depth_, obs_.get(), kind, policy_epoch_);
  call();
}

bool ActiveRequest::independent_of_active(std::size_t node) const {
  VMLP_CHECK(node < nodes.size());
  if (nodes[node].state > NodeState::kReady) return false;
  for (std::size_t other = 0; other < nodes.size(); ++other) {
    const NodeState s = nodes[other].state;
    const bool active = s == NodeState::kPlaced || s == NodeState::kRunning;
    if (other != node && active && type.dag().reaches(other, node)) return false;
  }
  return true;
}

void SimulationDriver::cancel_event(sim::EventHandle& handle) {
  engine_.cancel(handle);
  handle = {};
}

SimulationDriver::SimulationDriver(const app::Application& application, IScheduler& scheduler,
                                   DriverParams params)
    : app_(application),
      scheduler_(scheduler),
      params_(params),
      cluster_(params.cluster),
      topology_(params.cluster.machine_count, params.machines_per_rack),
      comm_(topology_, params.comm, Rng(params.seed).fork("comm")),
      exec_(params.exec),
      monitor_(cluster_, params.monitor_period, params.monitor_bucket, params.horizon),
      rng_(Rng(params.seed).fork("exec")),
      rng_interference_(Rng(params.seed).fork("interference")),
      rng_failure_(Rng(params.seed).fork("failure-exec")),
      failure_schedule_(build_failure_schedule(params.failure, params.seed, params.horizon,
                                               params.cluster.machine_count)) {
  VMLP_CHECK_MSG(params.horizon > 0 && params.tick > 0, "bad driver timing params");
  if (params_.obs.enabled) {
    // Telemetry is strictly write-only: the collector never feeds a decision,
    // an RNG draw, or any simulated state, so attaching it cannot perturb the
    // run (determinism_check claim 6 pins this byte-for-byte).
    obs_ = std::make_unique<obs::Collector>(cluster_.cells().cell_count());
    engine_.set_observer(obs_.get());
    for (std::size_t m = 0; m < cluster_.machine_count(); ++m) {
      cluster_.machine(MachineId(static_cast<std::uint32_t>(m))).ledger().set_observer(obs_.get());
    }
  }
  running_on_.resize(cluster_.machine_count());
  volatility_cache_.resize(app_.request_count(), 0.0);
  for (const auto& rt : app_.requests()) {
    qos_.set_slo(rt.id(), rt.slo());
    volatility_cache_[rt.id().value()] = app_.volatility(rt.id());
  }
  if (params_.profile_warmup > 0) warmup_profiles();
}

void SimulationDriver::warmup_profiles() {
  // Offline characterization runs (the paper's historical traces): each
  // (service, request type) pair executed with abundant resources under a
  // random background load — exactly what the workload-characterization
  // cluster of Table IV.A produced.
  Rng rng = Rng(params_.seed).fork("warmup");
  for (const auto& rt : app_.requests()) {
    for (const auto& node : rt.nodes()) {
      const auto& type = app_.service(node.service);
      for (std::size_t i = 0; i < params_.profile_warmup; ++i) {
        // The case's background-load draw is unused but kept: GoldenOutcome.*
        // and the perfbench outcome digests pin this stream.
        (void)rng.uniform(0.05, 0.35);
        profiles_.record(node.service, rt.id(),
                         exec_.sample_duration(type, node.time_scale, type.demand, rng));
      }
    }
  }
}

void SimulationDriver::load_arrivals(const std::vector<loadgen::Arrival>& arrivals) {
  // Arrival events dominate the initial pending set; pre-sizing the pool puts
  // the growth doublings up front (and inside the shard arena when bound)
  // instead of spread across the first half of the run.
  engine_.reserve(arrivals.size() + arrivals.size() / 4 + 64);
  if (params_.trace_spans && !params_.trace_release_completed) {
    // Same idea for span slots: one span per executed node, estimated from
    // the suite's mean DAG width. Release mode stays small by recycling.
    std::size_t node_sum = 0;
    for (const auto& rt : app_.requests()) node_sum += rt.size();
    if (app_.request_count() > 0) {
      tracer_.reserve(arrivals.size() * (node_sum / app_.request_count() + 1));
    }
  }
  for (const auto& a : arrivals) {
    VMLP_CHECK_MSG(a.time >= 0 && a.time < params_.horizon, "arrival outside horizon");
    engine_.schedule_at(a.time, [this, type = a.type] { on_arrival(type); });
  }
}

void SimulationDriver::stream_arrivals(loadgen::ArrivalStream stream) {
  VMLP_CHECK_MSG(!arrival_stream_.has_value(), "stream_arrivals() called twice");
  VMLP_CHECK_MSG(!ran_, "stream_arrivals() after run()");
  arrival_stream_.emplace(std::move(stream));
  schedule_next_stream_arrival();
}

void SimulationDriver::schedule_next_stream_arrival() {
  const auto next = arrival_stream_->next();
  if (!next.has_value()) return;  // stream drained; no more arrival events
  VMLP_CHECK_MSG(next->time >= 0 && next->time < params_.horizon, "arrival outside horizon");
  // Chain: pull the successor from inside this arrival's event, so exactly
  // one un-fired arrival is pending at any moment (O(1) arrival state).
  engine_.schedule_at(next->time, [this, type = next->type] {
    schedule_next_stream_arrival();
    on_arrival(type);
  });
}

void SimulationDriver::on_arrival(RequestTypeId type) {
  const RequestId rid(first_live_id_ + live_.size());
  live_.push_back(std::make_unique<ActiveRequest>(app_.request(type), rid, engine_.now()));
  tracer_.on_request_arrival(rid, type, engine_.now());
  ++arrived_;
  deliver(obs::PolicyCallback::kArrival, [&] { scheduler_.on_request_arrival(rid); });
}

std::vector<std::pair<RequestId, std::size_t>> SimulationDriver::running_on(
    MachineId machine) const {
  VMLP_CHECK_MSG(machine.value() < running_on_.size(),
                 "running_on() of unknown machine " << machine.value());
  const std::vector<RunningRef>& refs = running_on_[machine.value()];
  std::vector<std::pair<RequestId, std::size_t>> out;
  out.reserve(refs.size());
  for (const RunningRef& r : refs) out.emplace_back(r.id, r.node);
  return out;
}

double SimulationDriver::volatility(RequestTypeId type) const {
  VMLP_CHECK_MSG(type.value() < volatility_cache_.size(), "unknown request type");
  return volatility_cache_[type.value()];
}

void SimulationDriver::audit_machine_conservation(MachineId machine) const {
  if (!audit::enabled()) return;
  // Collect the live reservation windows the driver believes exist on this
  // machine, clipped to the future (past segments are historical record).
  const SimTime now = engine_.now();
  struct Window {
    SimTime begin;
    SimTime end;
    cluster::ResourceVector res;
  };
  std::vector<Window> windows;
  std::vector<SimTime> probes{now};
  // The window is in id order, so the float sum below accumulates in a
  // deterministic order.
  for (const auto& ar : live_) {
    if (ar == nullptr) continue;
    for (const DriverNode& dn : ar->nodes) {
      if (!dn.has_reservation || !(dn.machine == machine)) continue;
      const SimTime lo = std::max(dn.reserved_begin, now);
      if (lo >= dn.reserved_end) continue;
      windows.push_back(Window{lo, dn.reserved_end, dn.limit});
      probes.push_back(lo);
    }
  }
  const auto& ledger = cluster_.machine(machine).ledger();
  for (const SimTime t : probes) {
    cluster::ResourceVector expected;
    for (const Window& w : windows) {
      if (w.begin <= t && t < w.end) expected += w.res;
    }
    const cluster::ResourceVector actual = ledger.usage_at(t);
    const cluster::ResourceVector diff = actual - expected;
    // Tolerance absorbs float residue from repeated reserve/release cycles.
    constexpr double kTol = 1e-3;
    VMLP_AUDIT_ASSERT(std::abs(diff.cpu) <= kTol && std::abs(diff.mem) <= kTol &&
                          std::abs(diff.io) <= kTol,
                      "capacity conservation violated on machine "
                          << machine.value() << " at t=" << t << ": ledger "
                          << actual.to_string() << " != tracked " << expected.to_string());
  }
}

void SimulationDriver::place(RequestId id, std::size_t node, MachineId machine,
                             const cluster::ResourceVector& limit, SimTime planned_start,
                             SimDuration reserve_duration) {
  ActiveRequest* ar = live_request(id);
  VMLP_CHECK_MSG(ar != nullptr, "place() on unknown request " << id.value());
  VMLP_CHECK_MSG(node < ar->nodes.size(), "node index out of range");
  DriverNode& dn = ar->nodes[node];
  VMLP_CHECK_MSG(dn.state <= NodeState::kReady, "node already placed");
  VMLP_CHECK_MSG(planned_start >= engine_.now(), "planned start in the past");
  VMLP_CHECK_MSG(reserve_duration > 0, "reserve_duration must be positive");

  cluster::Machine& m = cluster_.machine(machine);
  VMLP_CHECK_MSG(m.up(), "place() on down machine " << machine.value()
                                                    << " — schedulers must skip crash windows");
  dn.state = NodeState::kPlaced;
  dn.machine = machine;
  dn.limit = limit.clamp_to(m.capacity());
  VMLP_CHECK_MSG(!dn.limit.near_zero(), "placement with a zero resource limit");
  dn.planned_start = planned_start;
  dn.reserve_duration = reserve_duration;
  VMLP_AUDIT_ASSERT(!dn.has_reservation,
                    "placing node " << node << " of request " << id.value()
                                    << " that already holds a reservation (double-booking)");
  dn.reserved_begin = planned_start;
  dn.reserved_end = planned_start + reserve_duration;
  dn.has_reservation = true;
  m.ledger().reserve(dn.reserved_begin, dn.reserved_end, dn.limit);
  cluster_.cells().note_mutation(machine, m);
  audit_machine_conservation(machine);
  ++counters_.placements;
  cluster_.cells().add_placement(machine);

  dn.instance = InstanceId(next_instance_++);

  dn.phases.close_heal(engine_.now());  // time since the placement was lost

  if (ar->type.dag().parents(node).empty()) {
    // Ingress hop: request handler -> first microservice.
    dn.startable_at = ar->arrival + comm_.sample_delay(net::Distance::kSameRack);
    dn.blocking_parent = trace::Span::kNoNode;
  } else if (dn.pending_parents == 0) {
    resolve_startable(dn);
  }

  schedule_start_attempt(*ar, node);
}

void SimulationDriver::schedule_start_attempt(ActiveRequest& ar, std::size_t node) {
  DriverNode& dn = ar.nodes[node];
  VMLP_CHECK(dn.state == NodeState::kPlaced);
  const RequestId rid = ar.id;

  if (dn.startable_at >= 0) {
    // Work conservation: a node whose dependencies completed ahead of the
    // conservative plan may start early — start_node() admits the early
    // start only if the machine has the spare budget right then.
    const SimTime start_at = std::max(engine_.now(), dn.startable_at);
    // Fast path: move the pending start event instead of cancel+recreate —
    // the stored callback is identical, only the key changes.
    if (!engine_.reschedule(dn.start_event, start_at)) {
      dn.start_event = engine_.schedule_at(start_at, [this, rid, node] { start_node(rid, node); });
    }
    // Starting later than planned leaves a resource vacancy: self-healing
    // territory.
    if (start_at > dn.planned_start) arm_late_watch(ar, node);
  } else if (!dn.late_event.valid()) {
    // Dependencies still executing; watch for lateness at the planned start.
    arm_late_watch(ar, node);
  }
}

void SimulationDriver::arm_late_watch(ActiveRequest& ar, std::size_t node) {
  DriverNode& dn = ar.nodes[node];
  // Nobody reads the watch without a subscription: arm no event at all.
  // Note for scheduler authors: planned_start == now() arms the watch at the
  // current timestamp, so on_late_invocation must never respond by
  // re-placing with planned_start = now() again — that closes a zero-delay
  // event cycle where simulated time never advances (see the backoff in
  // VmlpScheduler::on_late_invocation).
  if (!wants(Hook::kLateInvocation) || dn.planned_start < engine_.now()) return;
  if (engine_.reschedule(dn.late_event, dn.planned_start)) return;
  const RequestId rid = ar.id;
  dn.late_event = engine_.schedule_at(dn.planned_start, [this, rid, node] {
    const ActiveRequest* r = find_request(rid);
    if (r == nullptr || r->nodes[node].state >= NodeState::kRunning) return;
    ++counters_.late_events;
    deliver(obs::PolicyCallback::kLateInvocation,
            [&] { scheduler_.on_late_invocation(rid, node); });
  });
}

void SimulationDriver::release_reservation_tail(ActiveRequest& ar, std::size_t node,
                                                SimTime from) {
  DriverNode& dn = ar.nodes[node];
  if (!dn.has_reservation) return;
  const SimTime lo = std::max(from, dn.reserved_begin);
  if (lo < dn.reserved_end) {
    cluster::Machine& m = cluster_.machine(dn.machine);
    m.ledger().release(lo, dn.reserved_end, dn.limit);
    cluster_.cells().note_mutation(dn.machine, m);
  }
  dn.has_reservation = false;
}

void SimulationDriver::start_node(RequestId id, std::size_t node) {
  ActiveRequest* ar = live_request(id);
  if (ar == nullptr) return;
  DriverNode& dn = ar->nodes[node];
  if (dn.state >= NodeState::kRunning) return;
  VMLP_CHECK_MSG(dn.state == NodeState::kPlaced, "starting unplaced node");
  VMLP_CHECK_MSG(dn.pending_parents == 0, "starting node with unmet dependencies");
  const SimTime t = engine_.now();

  if (t < dn.planned_start) {
    // Early-start attempt: admit when the machine's *actual* occupancy (the
    // limits of containers running right now) leaves room. Future ledger
    // bookings must not block this — holding a machine idle until a planned
    // start while its resources sit free is exactly the waste the paper's
    // self-healing module exists to eliminate; momentary overlap with a
    // later booking is absorbed by the contention model.
    cluster::Machine& m = cluster_.machine(dn.machine);
    if (!(m.allocated() + dn.limit).fits_within(m.capacity())) {
      ++counters_.early_denials;
      ++dn.early_denial_streak;
      // Poll for freed capacity instead of idling until the planned start.
      const SimTime retry = std::min(dn.planned_start, t + kEarlyRetryInterval);
      dn.start_event = engine_.schedule_at(retry, [this, id, node] { start_node(id, node); });
      // The planned machine keeps refusing while the node is ready to go:
      // treat it as a (pre-)late invocation so the scheduler may relocate it.
      if (dn.early_denial_streak >= DriverNode::kStuckThreshold && !dn.stuck_notified &&
          wants(Hook::kLateInvocation)) {
        dn.stuck_notified = true;
        ++counters_.late_events;
        deliver(obs::PolicyCallback::kLateInvocation,
                [&] { scheduler_.on_late_invocation(id, node); });
      }
      return;
    }
    dn.early_denial_streak = 0;
    ++counters_.early_starts;
  } else {
    ++counters_.on_time_starts;
  }

  // Re-book the reservation to the actual execution window if it drifted.
  if (t != dn.reserved_begin) {
    release_reservation_tail(*ar, node, t);
    dn.reserved_begin = t;
    dn.reserved_end = t + dn.reserve_duration;
    cluster::Machine& m = cluster_.machine(dn.machine);
    m.ledger().reserve(dn.reserved_begin, dn.reserved_end, dn.limit);
    dn.has_reservation = true;
    cluster_.cells().note_mutation(dn.machine, m);
    audit_machine_conservation(dn.machine);
  }

  const auto& req_node = ar->type.nodes()[node];
  const auto& type = app_.service(req_node.service);

  dn.container = ContainerId(next_container_++);
  cluster_.machine(dn.machine).add_container(dn.container, dn.instance, type.demand, dn.limit);
  dn.state = NodeState::kRunning;
  dn.started_at = t;

  dn.remaining_work = static_cast<double>(exec_.sample_work(type, req_node.time_scale, rng_));
  dn.jitter = type.cls.resource_sensitivity == 3
                  ? rng_.lognormal_mean_cv(1.0, exec_.params().high_sensitivity_extra_cv)
                  : 1.0;
  dn.last_advance = t;
  cancel_event(dn.late_event);

  if (params_.failure.enabled) {
    if (params_.failure.container_fault_prob > 0.0 &&
        rng_failure_.bernoulli(params_.failure.container_fault_prob)) {
      // The container dies somewhere inside its expected execution window.
      const double frac = rng_failure_.uniform(0.05, 0.95);
      const auto fault_delay = std::max<SimDuration>(
          1, static_cast<SimDuration>(static_cast<double>(dn.reserve_duration) * frac));
      dn.fault_event = engine_.schedule_after(
          fault_delay, [this, id, node] { kill_running(id, node, counters_.container_faults); });
    }
    if (const SimDuration limit = params_.failure.invocation_timeout; limit > 0) {
      dn.timeout_event = engine_.schedule_after(
          limit, [this, id, node] { kill_running(id, node, counters_.invocation_timeouts); });
    }
  }

  running_on_[dn.machine.value()].push_back(RunningRef{id, node, ar});
  recompute_machine(dn.machine);
  if (wants(Hook::kNodeStarted)) {
    deliver(obs::PolicyCallback::kNodeStarted, [&] { scheduler_.on_node_started(id, node); });
  }
}

void SimulationDriver::advance_instance(DriverNode& dn, SimTime to) {
  VMLP_CHECK(dn.state == NodeState::kRunning);
  if (to > dn.last_advance) {
    dn.remaining_work -= dn.rate * static_cast<double>(to - dn.last_advance);
    if (dn.remaining_work < 0.0) dn.remaining_work = 0.0;
  }
  dn.last_advance = to;
}

double SimulationDriver::instance_rate(const app::MicroserviceType& type, const DriverNode& dn,
                                       const cluster::ResourceVector& effective) const {
  double rate = exec_.rate(type, effective);
  if (type.cls.resource_sensitivity == 3) {
    const double f = exec_.bottleneck(type, effective);
    if (f > 1.0) {
      // The per-instance dispersion multiplier bites only under contention —
      // Fig. 3(c)'s variance inflation.
      rate /= 1.0 + (dn.jitter - 1.0) * std::min(f - 1.0, 1.0);
    }
  }
  return std::max(rate, 1e-6);
}

void SimulationDriver::recompute_machine(MachineId machine) {
  const std::vector<RunningRef>& refs = running_on_[machine.value()];
  if (refs.empty()) return;
  cluster::Machine& m = cluster_.machine(machine);
  const SimTime t = engine_.now();

  // Oversubscription: effective allocation shrinks proportionally per
  // dimension when granted limits exceed capacity. Sum over *all* containers
  // on the machine — including injected interference phantoms.
  const cluster::ResourceVector total = m.allocated();
  const auto& cap = m.capacity();
  const cluster::ResourceVector scale{
      total.cpu > cap.cpu ? cap.cpu / total.cpu : 1.0,
      total.mem > cap.mem ? cap.mem / total.mem : 1.0,
      total.io > cap.io ? cap.io / total.io : 1.0,
  };

  for (const RunningRef& ref : refs) {
    DriverNode& dn = ref.ar->nodes[ref.node];
    advance_instance(dn, t);
    const auto& req_node = ref.ar->type.nodes()[ref.node];
    const auto& type = app_.service(req_node.service);
    const cluster::ResourceVector effective{dn.limit.cpu * scale.cpu, dn.limit.mem * scale.mem,
                                            dn.limit.io * scale.io};
    dn.rate = instance_rate(type, dn, effective);
    const auto remaining_time = static_cast<SimDuration>(
        std::ceil(dn.remaining_work / dn.rate));
    const auto delay = std::max<SimDuration>(remaining_time, dn.remaining_work > 0 ? 1 : 0);
    // Decrease-key fast path: the finish callback is invariant per node, so
    // a re-rate only moves the already-queued event.
    if (!engine_.reschedule_after(dn.finish_event, delay)) {
      const RequestId rid = ref.id;
      const std::size_t node = ref.node;
      dn.finish_event =
          engine_.schedule_after(delay, [this, rid, node] { finish_node(rid, node); });
    }
  }
}

void SimulationDriver::finish_node(RequestId id, std::size_t node) {
  ActiveRequest* ar = live_request(id);
  if (ar == nullptr) return;
  DriverNode& dn = ar->nodes[node];
  if (dn.state != NodeState::kRunning) return;
  const SimTime t = engine_.now();
  advance_instance(dn, t);
  // Rounding can leave sub-microsecond residue; treat as finished.
  VMLP_CHECK_MSG(dn.remaining_work <= 1.0 + 1e-6,
                 "finish event fired with " << dn.remaining_work << "us of work left");

  dn.state = NodeState::kDone;
  dn.finished_at = t;
  ++ar->done_count;
  cluster_.cells().remove_placement(dn.machine);
  // Tear down the container and the remaining reservation window.
  end_execution(*ar, node);
  release_reservation_tail(*ar, node, t);
  audit_machine_conservation(dn.machine);
  recompute_machine(dn.machine);

  const auto& req_node = ar->type.nodes()[node];

  // Tracing + profiling (Fig. 8's feedback loop). Span retention is optional
  // (DriverParams::trace_spans) — scale runs shed the per-execution memory.
  if (params_.trace_spans) {
    trace::Span span{id, ar->type.id(), req_node.service, dn.instance,
                     dn.machine, dn.started_at, t};
    span.node = static_cast<std::uint32_t>(node);
    // Attribution ledger: the final wait window is [startable_at, started];
    // failure intervals from earlier attempts are clipped into it so the
    // span's phases telescope exactly (queue time is the residual — see
    // trace/critical_path.h for the identity this preserves).
    span.startable_at = dn.startable_at;
    span.blocking_parent = dn.blocking_parent;
    dn.phases.stamp(span);
    tracer_.record_span(span);
  }
  profiles_.record(req_node.service, ar->type.id(), t - dn.started_at);

  // Message every child first; then each child this finish unblocked (its
  // last pending parent) moves on, in child order.
  const auto& children = ar->type.dag().children(node);
  for (std::size_t child : children) {
    DriverNode& c = ar->nodes[child];
    c.parent_msgs.push_back(ParentMsg{static_cast<std::uint32_t>(node), dn.machine, t});
    VMLP_CHECK(c.pending_parents > 0);
    --c.pending_parents;
  }
  for (std::size_t child : children) {
    if (ar->nodes[child].pending_parents == 0) handle_parent_finished(*ar, child);
  }
  if (wants(Hook::kNodeFinished)) {
    deliver(obs::PolicyCallback::kNodeFinished, [&] { scheduler_.on_node_finished(id, node); });
  }

  if (ar->done_count == ar->nodes.size()) {
    tracer_.on_request_completion(id, t);
    qos_.record_completion(ar->type.id(), t - ar->arrival);
    if (obs_ != nullptr) {
      obs_->observe(obs_->driver().latency_us, static_cast<double>(t - ar->arrival));
    }
    // Attribution's only outputs are the collector's histograms and the
    // audit-tier identity check: run it when spans exist and one of them
    // reads it.
    if (params_.trace_spans && (obs_ != nullptr || audit::enabled())) {
      attribute_request(*ar, id);
    }
    if (ar->degraded) orphaned_latencies_.add(static_cast<double>(t - ar->arrival));
    ++completed_;
    if (wants(Hook::kRequestFinished)) {
      deliver(obs::PolicyCallback::kRequestFinished, [&] { scheduler_.on_request_finished(id); });
    }
    live_[id.value() - first_live_id_].reset();
    while (!live_.empty() && live_.front() == nullptr) {
      live_.pop_front();
      ++first_live_id_;
    }
    if (params_.trace_release_completed) tracer_.release_request(id);
  }
}

void SimulationDriver::attribute_request(const ActiveRequest& ar, RequestId id) {
  // Write-only analysis over the already-recorded spans: nothing below may
  // touch simulated state, RNG streams, or scheduler-visible data — that is
  // what keeps attribution on/off byte-identical (determinism_check claim 8).
  const trace::RequestRecord* rec = tracer_.find_request(id);
  VMLP_CHECK_MSG(rec != nullptr && rec->finished(), "attribution before completion");
  const app::Dag& dag = ar.type.dag();
  const auto path = trace::extract_critical_path(*rec, tracer_.spans_of(id), &dag);
  // The acceptance identity: phases along the blocking chain telescope to
  // the end-to-end latency, exactly, in simulated time.
  VMLP_AUDIT_ASSERT(path.phase_sum() == rec->latency(),
                    "critical-path phases sum to " << path.phase_sum() << "us but request "
                                                   << id.value() << " took " << rec->latency()
                                                   << "us end to end");
  if (obs_ == nullptr) return;
  static_assert(trace::kPhaseCount == obs::Collector::AttributionMetrics::kPhases,
                "attribution metric families must cover every trace::Phase");
  const auto band = app_.band(ar.type.id());
  const auto& bm = obs_->attribution().band[static_cast<std::size_t>(band)];
  const auto latency = static_cast<double>(rec->latency());
  if (latency > 0.0) {
    for (std::size_t p = 0; p < trace::kPhaseCount; ++p) {
      obs_->observe(bm.phase_share[p], static_cast<double>(path.totals[p]) / latency);
    }
  }
  obs_->observe(bm.path_len, static_cast<double>(path.steps.size()));
  for (const auto& off : path.off_path) {
    obs_->observe(bm.off_path_slack_us, static_cast<double>(off.slack));
  }
}

void SimulationDriver::resolve_startable(DriverNode& dn) {
  SimTime startable = 0;
  std::uint32_t blocking = trace::Span::kNoNode;
  for (const auto& msg : dn.parent_msgs) {
    const SimTime arrived = msg.finish + comm_.sample_delay(msg.machine, dn.machine);
    // Blocking edge: latest message arrival, ties to the lower parent
    // index (the deterministic convention shared with trace/export).
    if (arrived > startable || (arrived == startable && msg.parent < blocking)) {
      startable = arrived;
      blocking = msg.parent;
    }
  }
  dn.startable_at = startable;
  dn.blocking_parent = blocking;
}

void SimulationDriver::end_execution(ActiveRequest& ar, std::size_t node) {
  DriverNode& dn = ar.nodes[node];
  for (sim::EventHandle* ev : {&dn.finish_event, &dn.fault_event, &dn.timeout_event}) {
    cancel_event(*ev);
  }
  const RequestId id = ar.id;
  auto& refs = running_on_[dn.machine.value()];
  refs.erase(std::remove_if(refs.begin(), refs.end(),
                            [&](const RunningRef& r) { return r.id == id && r.node == node; }),
             refs.end());
  cluster_.machine(dn.machine).remove_container(dn.container);
}

void SimulationDriver::handle_parent_finished(ActiveRequest& ar, std::size_t child) {
  DriverNode& dn = ar.nodes[child];
  VMLP_CHECK(dn.pending_parents == 0);
  if (dn.state == NodeState::kPlaced) {
    resolve_startable(dn);
    schedule_start_attempt(ar, child);
  } else {
    VMLP_CHECK_MSG(dn.state == NodeState::kWaiting,
                   "node " << child << " not waiting: " << node_state_name(dn.state));
    dn.state = NodeState::kReady;
    deliver(obs::PolicyCallback::kNodeUnblocked,
            [&] { scheduler_.on_node_unblocked(ar.id, child); });
  }
}

void SimulationDriver::adjust_limit(RequestId id, std::size_t node,
                                    const cluster::ResourceVector& new_limit) {
  ActiveRequest* ar = live_request(id);
  VMLP_CHECK_MSG(ar != nullptr, "adjust_limit on unknown request");
  DriverNode& dn = ar->nodes[node];
  VMLP_CHECK_MSG(dn.state == NodeState::kRunning, "adjust_limit on a non-running node");
  cluster::Machine& m = cluster_.machine(dn.machine);
  const cluster::ResourceVector clamped = new_limit.clamp_to(m.capacity());
  VMLP_CHECK_MSG(!clamped.near_zero(), "adjust_limit to zero");

  // Update the ledger's future view: swap the remaining reservation.
  const SimTime t = engine_.now();
  if (dn.has_reservation && t < dn.reserved_end) {
    m.ledger().release(std::max(t, dn.reserved_begin), dn.reserved_end, dn.limit);
    m.ledger().reserve(std::max(t, dn.reserved_begin), dn.reserved_end, clamped);
    cluster_.cells().note_mutation(dn.machine, m);
  }
  dn.limit = clamped;
  cluster::Container* c = m.find_container(dn.container);
  VMLP_CHECK(c != nullptr);
  c->set_limit(clamped);
  ++counters_.reallocations;
  audit_machine_conservation(dn.machine);
  recompute_machine(dn.machine);
}

void SimulationDriver::unplace(RequestId id, std::size_t node) {
  ActiveRequest* ar = live_request(id);
  VMLP_CHECK_MSG(ar != nullptr, "unplace on unknown request");
  DriverNode& dn = ar->nodes[node];
  VMLP_CHECK_MSG(dn.state == NodeState::kPlaced, "unplace on a node that is not pending");
  lose_placement(*ar, node);
  // Relocation time runs from here to the re-placement (clipped to the final
  // wait window, so pre-startable relocations vanish).
  dn.phases.open_heal(engine_.now());
  audit_machine_conservation(dn.machine);
}

void SimulationDriver::lose_placement(ActiveRequest& ar, std::size_t node) {
  DriverNode& dn = ar.nodes[node];
  release_reservation_tail(ar, node, engine_.now());
  cancel_event(dn.start_event);
  cancel_event(dn.late_event);
  dn.state = dn.pending_parents == 0 ? NodeState::kReady : NodeState::kWaiting;
  cluster_.cells().remove_placement(dn.machine);
  dn.planned_start = -1;
  dn.startable_at = -1;
  dn.reserved_begin = -1;
  dn.reserved_end = -1;
  dn.reserve_duration = 0;
  dn.early_denial_streak = 0;
  dn.stuck_notified = false;
}

void SimulationDriver::release_reservation(RequestId id, std::size_t node) {
  ActiveRequest* ar = live_request(id);
  VMLP_CHECK_MSG(ar != nullptr, "release_reservation on unknown request");
  DriverNode& dn = ar->nodes[node];
  VMLP_CHECK_MSG(dn.state == NodeState::kPlaced,
                 "release_reservation on a node that is not pending");
  release_reservation_tail(*ar, node, engine_.now());
  audit_machine_conservation(dn.machine);
}

void SimulationDriver::schedule_next_interference() {
  const auto& p = params_.interference;
  if (!p.enabled || p.events_per_second <= 0.0) return;
  const double gap_sec = rng_interference_.exponential_mean(1.0 / p.events_per_second);
  const auto delay = std::max<SimDuration>(1, static_cast<SimDuration>(gap_sec * kSec));
  engine_.schedule_after(delay, [this] {
    inject_interference();
    schedule_next_interference();
  });
}

void SimulationDriver::inject_interference() {
  const auto& p = params_.interference;
  const MachineId machine(static_cast<std::uint32_t>(rng_interference_.uniform_int(
      0, static_cast<std::int64_t>(cluster_.machine_count()) - 1)));
  cluster::Machine& m = cluster_.machine(machine);
  if (!m.up()) return;  // nobody co-tenants a dead machine; skip this burst
  const cluster::ResourceVector burst = m.capacity() * p.magnitude;

  const ContainerId cid(next_container_++);
  m.add_container(cid, InstanceId(), burst, burst);
  ++counters_.interference_bursts;
  recompute_machine(machine);

  const double len_sec =
      rng_interference_.exponential_mean(static_cast<double>(p.duration_mean) / kSec);
  const auto len = std::max<SimDuration>(kMsec, static_cast<SimDuration>(len_sec * kSec));
  engine_.schedule_after(len, [this, machine, cid] {
    cluster_.machine(machine).remove_container(cid);
    recompute_machine(machine);
  });
}

void SimulationDriver::schedule_failures() {
  for (const FailureWindow& w : failure_schedule_) {
    engine_.schedule_at(w.down_at, [this, m = w.machine] { crash_machine(m); });
    if (w.up_at < params_.horizon) {
      engine_.schedule_at(w.up_at, [this, m = w.machine] { recover_machine(m); });
    }
  }
}

void SimulationDriver::crash_machine(MachineId machine) {
  cluster::Machine& m = cluster_.machine(machine);
  VMLP_CHECK_MSG(m.up(), "crash on already-down machine " << machine.value());
  m.set_up(false);
  ++counters_.machine_crashes;
  if (obs_ != nullptr) {
    obs_->count(obs_->failure().machines_crashed);
    obs_->event(obs::DecisionKind::kCrash, engine_.now(), obs::DecisionEvent::kNoRequest,
                obs::DecisionEvent::kNoIndex, machine.value());
  }

  // Orphan every running execution here. Copy the refs: the fail path edits
  // running_on_ and may trigger scheduler callbacks that place elsewhere.
  const std::vector<RunningRef> victims = running_on_[machine.value()];
  for (const RunningRef& ref : victims) {
    ActiveRequest* ar = live_request(ref.id);
    if (ar == nullptr || ar->nodes[ref.node].state != NodeState::kRunning) continue;
    fail_running_node(*ar, ref.node);
  }

  // Void placements waiting to start here, walking the live window in
  // arrival order. Callbacks below may place but never complete a request,
  // so the window keeps its slots during the walk.
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    ActiveRequest* ar = live_[slot].get();
    if (ar == nullptr) continue;
    const RequestId id = ar->id;
    for (std::size_t node = 0; node < ar->nodes.size(); ++node) {
      DriverNode& dn = ar->nodes[node];
      if (dn.state != NodeState::kPlaced || !(dn.machine == machine)) continue;
      unplace(id, node);
      ar->degraded = true;
      ++counters_.orphaned_pending;
      if (obs_ != nullptr) {
        obs_->event(obs::DecisionKind::kOrphan, engine_.now(), id.value(),
                    static_cast<std::uint32_t>(node), machine.value());
      }
      // Nothing executed, so no retry is charged: deps-met nodes go straight
      // back to the scheduler; the rest re-enter via handle_parent_finished.
      if (dn.pending_parents == 0) {
        deliver(obs::PolicyCallback::kNodeOrphaned, [&] { scheduler_.on_node_orphaned(id, node); });
      }
    }
  }
  // Interference phantoms stay: their removal events are already queued and
  // remove_container would throw on a second removal.

  // Audit tier: the purge must leave the dead machine with zero live driver
  // reservations and a ledger that agrees (capacity conservation through a
  // crash).
  if (audit::enabled()) {
    VMLP_AUDIT_ASSERT(running_on_[machine.value()].empty(),
                      "crash purge left executions on machine " << machine.value());
    for (const auto& ar : live_) {
      if (ar == nullptr) continue;
      for (const DriverNode& dn : ar->nodes) {
        VMLP_AUDIT_ASSERT(!(dn.has_reservation && dn.machine == machine),
                          "crash purge left a live reservation on machine " << machine.value());
      }
    }
    audit_machine_conservation(machine);
  }
}

void SimulationDriver::recover_machine(MachineId machine) {
  cluster::Machine& m = cluster_.machine(machine);
  VMLP_CHECK_MSG(!m.up(), "recovery on up machine " << machine.value());
  m.set_up(true);
  ++counters_.machine_recoveries;
  if (obs_ != nullptr) {
    obs_->count(obs_->failure().machines_recovered);
    obs_->event(obs::DecisionKind::kRecover, engine_.now(), obs::DecisionEvent::kNoRequest,
                obs::DecisionEvent::kNoIndex, machine.value());
  }
}

void SimulationDriver::fail_running_node(ActiveRequest& ar, std::size_t node) {
  DriverNode& dn = ar.nodes[node];
  VMLP_CHECK_MSG(dn.state == NodeState::kRunning, "failing a node that is not executing");
  const RequestId id = ar.id;
  const SimTime t = engine_.now();
  const MachineId machine = dn.machine;

  end_execution(ar, node);
  lose_placement(ar, node);
  dn.phases.lost_exec(dn.started_at, t);  // the voided attempt
  dn.remaining_work = 0.0;  // completed work is lost; retries restart cold
  ++dn.attempts;
  ar.degraded = true;
  ++counters_.orphaned_running;
  if (obs_ != nullptr) {
    obs_->event(obs::DecisionKind::kOrphan, t, id.value(), static_cast<std::uint32_t>(node),
                machine.value());
  }
  audit_machine_conservation(machine);
  if (cluster_.machine(machine).up()) {
    recompute_machine(machine);  // survivors re-rate on the freed capacity
  }

  schedule_retry(ar, node);
}

void SimulationDriver::schedule_retry(ActiveRequest& ar, std::size_t node) {
  DriverNode& dn = ar.nodes[node];
  if (dn.attempts > params_.failure.max_retries) {
    dn.abandoned = true;
    ++counters_.retries_dropped;
    return;  // the request stays unfinished; horizon accounting charges it
  }
  ++counters_.retries_scheduled;
  if (obs_ != nullptr) {
    obs_->event(obs::DecisionKind::kRetry, engine_.now(), ar.id.value(),
                static_cast<std::uint32_t>(node), obs::DecisionEvent::kNoIndex,
                static_cast<std::int64_t>(dn.attempts));
  }
  const double factor = std::pow(std::max(1.0, params_.failure.retry_backoff_factor),
                                 static_cast<double>(dn.attempts - 1));
  const auto backoff = std::max<SimDuration>(
      1, static_cast<SimDuration>(
             std::llround(static_cast<double>(params_.failure.retry_backoff_base) * factor)));
  dn.phases.backoff(engine_.now(), engine_.now() + backoff);
  const RequestId id = ar.id;
  engine_.schedule_after(backoff, [this, id, node] {
    const ActiveRequest* r = find_request(id);
    if (r == nullptr) return;
    const DriverNode& n = r->nodes[node];
    if (n.state >= NodeState::kPlaced || n.abandoned) return;
    if (n.pending_parents != 0) return;  // re-enters via parents
    deliver(obs::PolicyCallback::kNodeOrphaned, [&] { scheduler_.on_node_orphaned(id, node); });
  });
}

void SimulationDriver::kill_running(RequestId id, std::size_t node, std::size_t& counter) {
  ActiveRequest* ar = live_request(id);
  if (ar == nullptr || ar->nodes[node].state != NodeState::kRunning) return;
  ++counter;
  fail_running_node(*ar, node);  // the fired event's stale handle cancels as a no-op
}

RunResult SimulationDriver::run() {
  VMLP_CHECK_MSG(!ran_, "run() called twice");
  ran_ = true;
  // analyze: allow(host-clock): epoch for obs policy-profiling slices only;
  // host time never feeds a simulation decision (zero-perturbation contract).
  policy_epoch_ = std::chrono::steady_clock::now();
  if (obs_ != nullptr) {
    obs_->set_gauge(obs_->failure().windows_planned,
                    static_cast<double>(failure_schedule_.size()));
  }
  scheduler_.attach(*this);
  monitor_.attach(engine_);
  schedule_next_interference();
  schedule_failures();
  engine_.schedule_periodic(params_.tick, params_.tick, [this] {
    deliver(obs::PolicyCallback::kTick, [&] { scheduler_.on_tick(); });
  });
  if (params_.ledger_compact_period > 0) {
    engine_.schedule_periodic(params_.ledger_compact_period, params_.ledger_compact_period,
                              [this] {
                                if (engine_.now() > kSec) {
                                  cluster_.compact_ledgers_before(engine_.now() - kSec);
                                }
                              });
  }
  engine_.run_until(params_.horizon);

  RunResult result;
  result.arrived = arrived_;
  result.completed = completed_;
  for (const auto& ar : live_) {
    if (ar == nullptr) continue;
    qos_.record_unfinished(ar->type.id());
    ++result.unfinished;
    bool abandoned = false;
    for (const DriverNode& dn : ar->nodes) abandoned = abandoned || dn.abandoned;
    if (abandoned) ++result.abandoned_requests;
  }
  result.qos_violation_rate = qos_.violation_rate();
  result.mean_utilization = monitor_.mean_overall();
  const auto& lat = qos_.latencies();
  if (!lat.empty()) {
    result.p50_latency_us = lat.quantile(0.50);
    result.p90_latency_us = lat.quantile(0.90);
    result.p99_latency_us = lat.quantile(0.99);
    result.mean_latency_us = lat.mean();
  }
  result.throughput_rps =
      static_cast<double>(completed_) / (static_cast<double>(params_.horizon) / kSec);
  result.placements = counters_.placements;
  result.policy_seconds = static_cast<double>(policy_ns_) * 1e-9;

  result.machine_crashes = counters_.machine_crashes;
  result.container_faults = counters_.container_faults;
  result.invocation_timeouts = counters_.invocation_timeouts;
  result.orphaned_nodes = counters_.orphaned_running;
  result.retries = counters_.retries_scheduled;
  if (!orphaned_latencies_.empty()) {
    result.orphaned_mean_latency_us = orphaned_latencies_.mean();
    result.orphaned_p99_latency_us = orphaned_latencies_.quantile(0.99);
  }
  const std::size_t met_slo = qos_.total() - qos_.violations();
  result.goodput_rps =
      static_cast<double>(met_slo) / (static_cast<double>(params_.horizon) / kSec);
  sync_observability(result);
  return result;
}

void SimulationDriver::sync_observability(const RunResult& result) {
  if (obs_ == nullptr) return;
  // Counters the driver already maintains are copied into the registry once,
  // at end of run, rather than double-counted on the hot path. The registry
  // is the export surface; Counters stays the source of truth.
  obs::Collector& c = *obs_;
  const auto& d = c.driver();
  c.set_counter(d.requests_arrived, arrived_);
  c.set_counter(d.requests_completed, completed_);
  c.set_counter(d.requests_unfinished, result.unfinished);
  c.set_counter(d.placements_committed, counters_.placements);
  c.set_counter(d.starts_early, counters_.early_starts);
  c.set_counter(d.starts_ontime, counters_.on_time_starts);
  c.set_counter(d.starts_denied, counters_.early_denials);
  c.set_counter(d.lates_fired, counters_.late_events);
  c.set_counter(d.limits_adjusted, counters_.reallocations);
  c.set_counter(d.bursts_injected, counters_.interference_bursts);
  const auto& f = c.failure();
  c.set_counter(f.containers_faulted, counters_.container_faults);
  c.set_counter(f.invocations_timedout, counters_.invocation_timeouts);
  c.set_counter(f.nodes_orphaned, counters_.orphaned_running + counters_.orphaned_pending);
  c.set_counter(f.retries_scheduled, counters_.retries_scheduled);
  c.set_counter(f.retries_dropped, counters_.retries_dropped);
  // Topology gauges come from the cell counters the driver maintains at the
  // placed-node transitions; per-cell labels are bounded (kMaxCellGauges).
  const auto& topo = c.topology();
  const cluster::CellTopology& cells = cluster_.cells();
  c.set_gauge(topo.cells_configured, static_cast<double>(cells.cell_count()));
  c.set_gauge(topo.cell_live_peak, static_cast<double>(cells.live_peak()));
  for (std::size_t i = 0; i < topo.cell_live.size(); ++i) {
    c.set_gauge(topo.cell_live[i], static_cast<double>(cells.cell_live_peak(i)));
  }
  // The engine keeps its own tallies (plain members on the hot paths);
  // publish them into the registry in the same end-of-run sync.
  engine_.flush_observability();
}

}  // namespace vmlp::sched
