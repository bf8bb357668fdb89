// Span: one microservice invocation as observed by distributed tracing
// (the Zipkin/Jaeger analogue).
#pragma once

#include <cstdint>

#include "common/types.h"

namespace vmlp::trace {

struct Span {
  /// "DAG position unknown" — spans recorded by code paths that do not know
  /// the node index (e.g. synthetic test spans) keep this sentinel and export
  /// without a parent link.
  static constexpr std::uint32_t kNoNode = static_cast<std::uint32_t>(-1);

  RequestId request;
  RequestTypeId request_type;
  ServiceTypeId service;
  InstanceId instance;
  MachineId machine;
  SimTime start = 0;
  SimTime end = 0;
  /// Index of this invocation's node in the request DAG (appended after the
  /// original members so the existing positional aggregate initializers stay
  /// valid — every later field below keeps the same convention).
  std::uint32_t node = kNoNode;

  // --- attribution ledger (filled by the driver; see trace/critical_path.h).
  /// Earliest moment the final (successful) attempt could have started: the
  /// last dependency message's arrival including its sampled network delay,
  /// or arrival + ingress delay for DAG roots. -1 when unknown (synthetic
  /// spans) — the extractor then collapses the wait phases into queue time.
  SimTime startable_at = -1;
  /// DAG parent whose completion message arrived last and therefore bounded
  /// `startable_at` (ties break to the lower parent node index). The
  /// critical-path walk follows it and the Zipkin parentId names its span.
  /// kNoNode for roots.
  std::uint32_t blocking_parent = kNoNode;
  /// Execution time of earlier attempts voided by crashes/faults/timeouts,
  /// clipped to the final wait window [startable_at, start].
  SimDuration lost_exec_us = 0;
  /// Retry backoff waited inside the final wait window.
  SimDuration backoff_us = 0;
  /// Relocation/heal time (unplaced or post-backoff, waiting for a new
  /// placement) inside the final wait window.
  SimDuration heal_us = 0;

  [[nodiscard]] SimDuration duration() const { return end - start; }
};

}  // namespace vmlp::trace
