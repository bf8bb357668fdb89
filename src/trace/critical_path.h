// Per-request latency attribution: phase decomposition along the DAG
// critical path.
//
// The driver stamps every recorded span with an attribution ledger (see
// trace/span.h): the moment the invocation became startable, the dependency
// edge that bounded it, and the failure time (lost executions, retry
// backoff, relocation/heal) absorbed while it waited. This module walks that
// record backwards from the finishing node to recover the *blocking chain* —
// the one path through the DAG whose phases sum, exactly in simulated time,
// to the request's end-to-end latency:
//
//   latency = Σ over chain spans of
//             (network + queue + lost_exec + backoff + heal + exec)
//
// where per span, with pred_end = blocking parent's finish (request arrival
// for the root):
//   network   = startable_at - pred_end         (message transfer delay)
//   exec      = end - start                     (final attempt's execution)
//   lost_exec / backoff / heal                  (failure phases, recorded)
//   queue     = (start - startable_at) - failure phases   (admission wait)
//
// The telescoping is exact because each link's network phase starts exactly
// where the previous span's `end` left off, and the chain's last span ends
// at the completion timestamp. Asserted in tests and, per completed request,
// under VMLP_AUDIT=1.
//
// Deterministic tie-breaking: the finishing node is the latest-ending span
// (ties to the lower node index), and `blocking_parent` was chosen by the
// driver as the parent whose message arrived last (ties to the lower parent
// index) — so the extracted path is a pure function of the recorded spans,
// byte-stable across runs.
//
// This walk is the only rule that picks a request's chain: the attribution
// histograms, the blame report, the Perfetto/Zipkin `critical` tags and
// bench/breakdown_analysis all read it, and the Zipkin `parentId` is the
// same recorded `blocking_parent` edge.
//
// Everything here is read-only analysis over already-recorded data; it never
// feeds back into scheduling (zero-perturbation contract).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "app/dag.h"
#include "common/arena.h"
#include "trace/span.h"

namespace vmlp::trace {

/// Causal phases a request spends its end-to-end latency in. Order matters:
/// report tables and the obs `attribution.<band>.*` histogram families index
/// by it. Report columns are built from phase_name(), whose switch -Wswitch
/// checks for a missing member.
enum class Phase : std::uint8_t {
  kNetwork = 0,  ///< dependency/ingress message transfer
  kQueue,        ///< admission wait: startable but not yet executing
  kExec,         ///< the successful attempt's execution
  kLostExec,     ///< execution voided by crashes/faults/timeouts
  kBackoff,      ///< retry backoff after a lost execution
  kHeal,         ///< relocation/heal wait for a replacement placement
};
inline constexpr std::size_t kPhaseCount = 6;
static_assert(kPhaseCount == static_cast<std::size_t>(Phase::kHeal) + 1,
              "kPhaseCount must count every Phase member (kHeal is the last)");

/// Stable snake_case name ("network", "queue", "exec", "lost_exec",
/// "backoff", "heal") — used for report columns and metric-name suffixes.
[[nodiscard]] const char* phase_name(Phase p);

/// One invocation's failure-phase record, kept while it waits: the disjoint
/// intervals it lost to voided executions, retry backoff and heal (waiting
/// for a replacement placement) across attempts. When the final attempt
/// starts, stamp() clips them to the span's wait window [startable_at,
/// start] — in lost_exec, backoff, heal order — so the span's phases
/// telescope exactly; queue time is the residual. Every write is O(1) and
/// happens only on a failure or relocation path; empty on the no-failure
/// path.
class PhaseLedger {
 public:
  /// The invocation lost its placement at `now`: heal time runs from here
  /// until the next close_heal() (an already-open interval keeps its start).
  void open_heal(SimTime now) {
    if (heal_from_ < 0) heal_from_ = now;
  }
  /// A placement committed at `now`: close the open heal interval, if any.
  void close_heal(SimTime now) {
    if (heal_from_ < 0) return;
    add(Phase::kHeal, heal_from_, now);
    heal_from_ = -1;
  }
  /// An attempt that started at `started` (-1: never started) was voided at
  /// `now`: its execution is lost time.
  void lost_exec(SimTime started, SimTime now) {
    if (started >= 0) add(Phase::kLostExec, started, now);
  }
  /// A retry waits out [now, until); heal time then runs from `until` until
  /// the next placement.
  void backoff(SimTime now, SimTime until) {
    add(Phase::kBackoff, now, until);
    heal_from_ = until;
  }
  /// Fill `span`'s lost_exec_us / backoff_us / heal_us from the recorded
  /// intervals, clipped to [span.startable_at, span.start].
  void stamp(Span& span) const;

 private:
  struct Segment {
    Phase kind;
    SimTime begin;
    SimTime end;
  };
  void add(Phase kind, SimTime begin, SimTime end) {
    if (end > begin) segments_.push_back(Segment{kind, begin, end});
  }

  /// Arena-backed: one short-lived vector per failed DAG node.
  ArenaVector<Segment> segments_;
  SimTime heal_from_ = -1;  ///< start of the open heal interval, -1 when closed
};

/// One span on the blocking chain with its phase decomposition. The phase
/// durations sum to `span->end - pred_end` (pred_end = the previous step's
/// span end, or the request arrival for the first step).
struct CriticalStep {
  const Span* span = nullptr;
  std::array<SimDuration, kPhaseCount> phase{};
};

/// A recorded span that was NOT on the blocking chain, with its slack: how
/// long after it finished until the earliest dependent became startable (or
/// until request completion when no dependent span is recorded). Off-path
/// stages with large slack are where the DAG's parallelism absorbed latency.
struct OffPathSlack {
  const Span* span = nullptr;
  SimDuration slack = 0;
};

struct CriticalPathResult {
  /// Blocking chain in execution order (root first, finishing node last).
  std::vector<CriticalStep> steps;
  /// Per-phase totals over the chain, indexed by Phase.
  std::array<SimDuration, kPhaseCount> totals{};
  /// completion - arrival, as passed in.
  SimDuration latency = 0;
  /// Spans off the chain, in recorded order.
  std::vector<OffPathSlack> off_path;

  /// Σ totals — equals `latency` exactly for driver-recorded requests.
  [[nodiscard]] SimDuration phase_sum() const;
};

/// Extract the blocking chain from one request's recorded spans (one span
/// per DAG node; spans without a node index are ignored). `dag`, when given,
/// refines off-path slack using real child edges; without it slack falls
/// back to (completion - span end). Returns an empty result for span-less
/// requests.
[[nodiscard]] CriticalPathResult extract_critical_path(SimTime arrival, SimTime completion,
                                                       const std::vector<const Span*>& spans,
                                                       const app::Dag* dag = nullptr);

/// Each request's spans, grouped from a flat span list (Tracer::spans() or a
/// capture's copy of it), in recorded order within a request.
[[nodiscard]] std::unordered_map<RequestId, std::vector<const Span*>> group_by_request(
    const std::vector<Span>& spans);

}  // namespace vmlp::trace
