// Tracer: collects spans and request lifecycles. The information feeds the
// profile store ("stored as historical traces for future scheduling",
// Section III-D) and the evaluation metrics.
//
// Span storage is a flat slot vector threaded with an intrusive per-request
// chain (next_[i] = the request's next span slot), so recording is one
// amortized append with zero per-request containers — the allocation profile
// a streamed 10^6-request run needs. reserve() moves the growth doublings up
// front; release_request() recycles a completed request's slots through a
// free list so scale runs with tracing on keep RSS proportional to the
// in-flight set instead of the whole stream (see bench/perf_harness's traced
// scale leg).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "trace/span.h"

namespace vmlp::trace {

struct RequestRecord {
  RequestId id;
  RequestTypeId type;
  SimTime arrival = 0;
  std::optional<SimTime> completion;

  [[nodiscard]] bool finished() const { return completion.has_value(); }
  /// End-to-end latency. Only meaningful for finished requests — calling it
  /// on an in-flight record used to dereference an empty optional (UB);
  /// callers must check finished() first.
  [[nodiscard]] SimDuration latency() const {
    VMLP_CHECK_MSG(finished(), "latency() on unfinished request " << id.value());
    return *completion - arrival;
  }
};

class Tracer {
 public:
  /// Record a request's arrival. Throws on duplicate ids.
  void on_request_arrival(RequestId id, RequestTypeId type, SimTime t);
  /// Record a request's completion (all sink microservices done).
  void on_request_completion(RequestId id, SimTime t);
  /// Record a finished microservice span.
  void record_span(const Span& span);

  /// Pre-size span storage (slots + chain links) for an expected span count.
  void reserve(std::size_t spans);

  /// Forget one request entirely: its record and all its spans. Span slots
  /// go to the free list for reuse by later requests, which bounds a
  /// streamed run's tracing memory by the in-flight request set. After any
  /// release the flat spans() view is invalid (slots recycle in place);
  /// spans_of()/requests() remain correct for the surviving requests.
  void release_request(RequestId id);

  /// Flat view of every recorded span. Unavailable once release_request()
  /// has recycled slots (throws InvariantError) — streamed runs that release
  /// completed requests consume spans per request before releasing.
  [[nodiscard]] const std::vector<Span>& spans() const {
    VMLP_CHECK_MSG(!released_any_, "spans() after release_request() — slots were recycled");
    return spans_;
  }
  /// Span slots allocated so far, live or on the free list. With completed
  /// requests released, this stays at the in-flight set's peak span count.
  [[nodiscard]] std::size_t span_slots() const { return spans_.size(); }

  /// All live (non-released) request records, in (arrival, id) order.
  [[nodiscard]] std::vector<const RequestRecord*> requests() const;

  /// Spans of one request, in start-time order.
  [[nodiscard]] std::vector<const Span*> spans_of(RequestId id) const;

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// Intrusive chain head/tail for one request's spans.
  struct SpanChain {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };

  std::vector<Span> spans_;
  std::vector<std::uint32_t> next_;  ///< per-slot: next span in chain / next free slot
  std::uint32_t free_head_ = kNone;
  bool released_any_ = false;
  std::unordered_map<RequestId, RequestRecord> records_;
  std::unordered_map<RequestId, SpanChain> chains_;
};

}  // namespace vmlp::trace
