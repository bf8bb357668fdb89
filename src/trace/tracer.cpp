#include "trace/tracer.h"

#include <algorithm>

#include "common/error.h"

namespace vmlp::trace {

void Tracer::on_request_arrival(RequestId id, RequestTypeId type, SimTime t) {
  auto [it, inserted] = records_.emplace(id, RequestRecord{id, type, t, std::nullopt});
  VMLP_CHECK_MSG(inserted, "duplicate request id " << id.value());
  (void)it;
}

void Tracer::on_request_completion(RequestId id, SimTime t) {
  auto it = records_.find(id);
  VMLP_CHECK_MSG(it != records_.end(), "completion of unknown request " << id.value());
  VMLP_CHECK_MSG(!it->second.completion.has_value(), "request " << id.value() << " completed twice");
  VMLP_CHECK_MSG(t >= it->second.arrival, "completion precedes arrival");
  it->second.completion = t;
}

void Tracer::record_span(const Span& span) {
  VMLP_CHECK_MSG(span.end >= span.start, "span ends before it starts");
  std::uint32_t slot;
  if (free_head_ != kNone) {
    // Reuse a released slot: steady-state streamed runs stop growing here.
    slot = free_head_;
    free_head_ = next_[slot];
    spans_[slot] = span;
  } else {
    VMLP_CHECK_MSG(spans_.size() < kNone, "span slot index overflow");
    slot = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(span);
    next_.push_back(kNone);
  }
  next_[slot] = kNone;
  SpanChain& chain = chains_[span.request];
  if (chain.head == kNone) {
    chain.head = slot;
  } else {
    next_[chain.tail] = slot;
  }
  chain.tail = slot;
}

void Tracer::reserve(std::size_t spans) {
  spans_.reserve(spans);
  next_.reserve(spans);
}

void Tracer::release_request(RequestId id) {
  if (auto it = chains_.find(id); it != chains_.end()) {
    released_any_ = true;
    std::uint32_t slot = it->second.head;
    while (slot != kNone) {
      const std::uint32_t next = next_[slot];
      next_[slot] = free_head_;
      free_head_ = slot;
      slot = next;
    }
    chains_.erase(it);
  }
  records_.erase(id);
}

std::vector<const RequestRecord*> Tracer::requests() const {
  std::vector<const RequestRecord*> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(&rec);
  // Sorting by the unique (arrival, id) key makes the order independent of
  // the hash map's iteration order.
  std::sort(out.begin(), out.end(), [](const RequestRecord* a, const RequestRecord* b) {
    return a->arrival != b->arrival ? a->arrival < b->arrival : a->id < b->id;
  });
  return out;
}

std::vector<const Span*> Tracer::spans_of(RequestId id) const {
  std::vector<const Span*> out;
  auto it = chains_.find(id);
  if (it == chains_.end()) return out;
  for (std::uint32_t slot = it->second.head; slot != kNone; slot = next_[slot]) {
    out.push_back(&spans_[slot]);
  }
  std::sort(out.begin(), out.end(),
            [](const Span* a, const Span* b) { return a->start < b->start; });
  return out;
}

}  // namespace vmlp::trace
