#include "trace/critical_path.h"

#include <algorithm>

namespace vmlp::trace {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kNetwork: return "network";
    case Phase::kQueue: return "queue";
    case Phase::kExec: return "exec";
    case Phase::kLostExec: return "lost_exec";
    case Phase::kBackoff: return "backoff";
    case Phase::kHeal: return "heal";
  }
  return "?";
}

SimDuration CriticalPathResult::phase_sum() const {
  SimDuration sum = 0;
  for (const SimDuration d : totals) sum += d;
  return sum;
}

void PhaseLedger::stamp(Span& span) const {
  for (const Segment& seg : segments_) {
    const SimTime lo = std::max(seg.begin, span.startable_at);
    const SimTime hi = std::min(seg.end, span.start);
    if (hi <= lo) continue;
    switch (seg.kind) {
      case Phase::kLostExec: span.lost_exec_us += hi - lo; break;
      case Phase::kBackoff: span.backoff_us += hi - lo; break;
      case Phase::kHeal: span.heal_us += hi - lo; break;
      default: break;
    }
  }
}

namespace {

/// Decompose one chain step given the end of its predecessor on the chain.
/// Clamps defensively (synthetic spans may carry the -1 "unknown" sentinel
/// or a startable_at outside [pred_end, start]); driver-recorded spans hit
/// none of the clamps and the result telescopes exactly.
CriticalStep decompose(const Span& span, SimTime pred_end) {
  CriticalStep step;
  step.span = &span;
  SimTime startable = span.startable_at;
  if (startable < pred_end) startable = pred_end;
  if (startable > span.start) startable = span.start;
  const SimDuration network = startable - pred_end;
  SimDuration wait = span.start - startable;
  const SimDuration lost = std::min(span.lost_exec_us, wait);
  wait -= lost;
  const SimDuration backoff = std::min(span.backoff_us, wait);
  wait -= backoff;
  const SimDuration heal = std::min(span.heal_us, wait);
  wait -= heal;
  step.phase[static_cast<std::size_t>(Phase::kNetwork)] = network;
  step.phase[static_cast<std::size_t>(Phase::kQueue)] = wait;
  step.phase[static_cast<std::size_t>(Phase::kExec)] = span.duration();
  step.phase[static_cast<std::size_t>(Phase::kLostExec)] = lost;
  step.phase[static_cast<std::size_t>(Phase::kBackoff)] = backoff;
  step.phase[static_cast<std::size_t>(Phase::kHeal)] = heal;
  return step;
}

}  // namespace

CriticalPathResult extract_critical_path(SimTime arrival, SimTime completion,
                                         const std::vector<const Span*>& spans,
                                         const app::Dag* dag) {
  CriticalPathResult result;
  result.latency = completion - arrival;

  // Index spans by DAG node. The driver records exactly one span per node
  // (the successful attempt); keep the later-recorded one on duplicates so
  // hand-built test inputs behave predictably.
  std::uint32_t max_node = 0;
  for (const Span* s : spans) {
    if (s->node != Span::kNoNode) max_node = std::max(max_node, s->node);
  }
  std::vector<const Span*> by_node(static_cast<std::size_t>(max_node) + 1, nullptr);
  const Span* sink = nullptr;
  for (const Span* s : spans) {
    if (s->node == Span::kNoNode) continue;
    by_node[s->node] = s;
    // Finishing node: latest end, ties to the lower node index.
    if (sink == nullptr || s->end > sink->end ||
        (s->end == sink->end && s->node < sink->node)) {
      sink = s;
    }
  }
  if (sink == nullptr) return result;  // no attributable spans recorded

  // Walk the blocking chain backwards. The visited guard bounds the walk on
  // malformed input (a blocking_parent cycle cannot happen in driver data).
  std::vector<const Span*> chain;
  std::vector<bool> visited(by_node.size(), false);
  const Span* cur = sink;
  while (cur != nullptr && !visited[cur->node]) {
    visited[cur->node] = true;
    chain.push_back(cur);
    if (cur->blocking_parent == Span::kNoNode || cur->blocking_parent >= by_node.size()) break;
    cur = by_node[cur->blocking_parent];
  }
  std::reverse(chain.begin(), chain.end());

  result.steps.reserve(chain.size());
  SimTime pred_end = arrival;
  for (const Span* s : chain) {
    result.steps.push_back(decompose(*s, pred_end));
    pred_end = s->end;
  }
  for (const CriticalStep& step : result.steps) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) result.totals[p] += step.phase[p];
  }

  // Off-path slack: finish-to-unblock gap towards the earliest dependent.
  // `visited` marks exactly the chain's nodes.
  for (const Span* s : spans) {
    if (s->node == Span::kNoNode || visited[s->node]) continue;
    SimDuration slack = completion - s->end;
    if (dag != nullptr && s->node < dag->node_count()) {
      for (const std::size_t child : dag->children(s->node)) {
        const Span* c = child < by_node.size() ? by_node[child] : nullptr;
        if (c == nullptr) continue;
        const SimTime unblocked = c->startable_at >= 0 ? c->startable_at : c->start;
        slack = std::min(slack, unblocked - s->end);
      }
    }
    result.off_path.push_back(OffPathSlack{s, std::max<SimDuration>(slack, 0)});
  }
  return result;
}

std::unordered_map<RequestId, std::vector<const Span*>> group_by_request(
    const std::vector<Span>& spans) {
  std::unordered_map<RequestId, std::vector<const Span*>> by_request;
  for (const Span& s : spans) by_request[s.request].push_back(&s);
  return by_request;
}

}  // namespace vmlp::trace
