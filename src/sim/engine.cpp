#include "sim/engine.h"

#include <utility>

#include "common/audit.h"
#include "common/error.h"
#include "obs/collector.h"

namespace vmlp::sim {

namespace {

/// Handle ids pack (generation << 32) | slot. Generations cycle through
/// [1, 2^31-1]: never zero (0 marks a free slot / invalid handle) and never
/// touching bit 63 (the periodic-series tag bit).
std::uint64_t pack_id(std::uint64_t generation, std::uint32_t slot) {
  const std::uint64_t gen = (generation % 0x7fffffffULL) + 1;
  return (gen << 32) | slot;
}

}  // namespace

void Engine::reserve(std::size_t events) {
  pool_.reserve(events);
  heap_.reserve(events);
  free_slots_.reserve(events);
}

std::uint32_t Engine::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  pool_.emplace_back();
  // Slots are 32-bit (packed into the low half of the event id); the pool
  // only grows to the peak pending-event count, but a bulk-loaded 10^9-event
  // run would silently wrap the cast without this guard.
  VMLP_CHECK_MSG(pool_.size() < kNoHeapPos, "event pool exceeds 32-bit slot space");
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  Event& e = pool_[slot];
  e.id = 0;
  e.heap_pos = kNoHeapPos;
  e.fn = nullptr;  // release closure resources; inline storage stays pooled
  free_slots_.push_back(slot);
}

void Engine::sift_up(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!before(slot, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pool_[heap_[pos]].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = slot;
  pool_[slot].heap_pos = pos;
}

void Engine::sift_down(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], slot)) break;
    heap_[pos] = heap_[child];
    pool_[heap_[pos]].heap_pos = pos;
    pos = child;
  }
  heap_[pos] = slot;
  pool_[slot].heap_pos = pos;
}

void Engine::heap_insert(std::uint32_t slot) {
  heap_.push_back(slot);
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
}

void Engine::heap_remove(std::uint32_t slot) {
  const std::uint32_t pos = pool_[slot].heap_pos;
  VMLP_AUDIT_ASSERT(pos < heap_.size() && heap_[pos] == slot,
                    "indexed heap position out of sync for slot " << slot);
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (last != slot) {
    heap_[pos] = last;
    pool_[last].heap_pos = pos;
    // The replacement may need to move either direction relative to pos.
    sift_up(pos);
    sift_down(pool_[last].heap_pos);
  }
  pool_[slot].heap_pos = kNoHeapPos;
}

void Engine::flush_observability() {
  if (obs_ == nullptr) return;
  const auto& handles = obs_->engine();
  obs_->set_counter(handles.events_scheduled, obs_scheduled_);
  obs_->set_counter(handles.events_cancelled, obs_cancelled_);
  obs_->set_counter(handles.events_rescheduled, obs_rescheduled_);
  obs_->set_counter(handles.events_executed, executed_);
  obs_->gauge_max(handles.pending_peak, static_cast<double>(obs_pending_peak_));
}

EventHandle Engine::schedule_at(SimTime t, Callback fn) {
  VMLP_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t << " now=" << now_);
  VMLP_CHECK_MSG(static_cast<bool>(fn), "null event callback");
  // A plan that propagated kTimeInfinity (an unresolved "no fit" time)
  // must never reach the event queue — it would freeze simulated time at the
  // horizon with the event perpetually pending.
  VMLP_AUDIT_ASSERT(t < kTimeInfinity, "event scheduled at infinity (unresolved plan time)");
  const std::uint32_t slot = acquire_slot();
  Event& e = pool_[slot];
  e.time = t;
  e.seq = next_seq_++;
  e.id = pack_id(next_generation_++, slot);
  e.fn = std::move(fn);
  heap_insert(slot);
  if (obs_ != nullptr) {
    ++obs_scheduled_;
    if (heap_.size() > obs_pending_peak_) obs_pending_peak_ = heap_.size();
  }
  return EventHandle{e.id};
}

EventHandle Engine::schedule_after(SimDuration delay, Callback fn) {
  VMLP_CHECK_MSG(delay >= 0, "negative delay " << delay);
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Engine::schedule_periodic(SimTime start, SimDuration period, Callback fn) {
  VMLP_CHECK_MSG(period > 0, "periodic period must be positive");
  VMLP_CHECK_MSG(static_cast<bool>(fn), "null periodic callback");
  const std::uint64_t series_id = kPeriodicBit | ++next_series_;
  auto shared = std::make_shared<Callback>(std::move(fn));
  periodics_.emplace(series_id,
                     PeriodicState{period, [shared] { (*shared)(); }, EventHandle{}});
  arm_periodic(series_id, start);
  return EventHandle{series_id};
}

void Engine::arm_periodic(std::uint64_t series_id, SimTime t) {
  auto it = periodics_.find(series_id);
  VMLP_CHECK(it != periodics_.end());
  it->second.occurrence = schedule_at(t, [this, series_id] {
    auto sit = periodics_.find(series_id);
    if (sit == periodics_.end()) return;
    // Re-arm before running the body so the body may cancel the series.
    const SimTime next = now_ + sit->second.period;
    std::function<void()> body = sit->second.fn;  // copy: body may cancel and erase state
    arm_periodic(series_id, next);
    body();
  });
}

bool Engine::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  if ((handle.id & kPeriodicBit) != 0) {
    auto it = periodics_.find(handle.id);
    if (it == periodics_.end()) return false;
    const EventHandle occurrence = it->second.occurrence;
    periodics_.erase(it);
    return cancel(occurrence);
  }
  if (!live(handle)) return false;
  const std::uint32_t slot = slot_of(handle.id);
  heap_remove(slot);
  release_slot(slot);
  if (obs_ != nullptr) ++obs_cancelled_;
  return true;
}

bool Engine::pending(EventHandle handle) const {
  if (!handle.valid()) return false;
  if ((handle.id & kPeriodicBit) != 0) return periodics_.count(handle.id) > 0;
  return live(handle);
}

bool Engine::reschedule(EventHandle handle, SimTime t) {
  if (!handle.valid() || (handle.id & kPeriodicBit) != 0 || !live(handle)) return false;
  VMLP_CHECK_MSG(t >= now_, "rescheduling into the past: t=" << t << " now=" << now_);
  VMLP_AUDIT_ASSERT(t < kTimeInfinity, "event rescheduled to infinity (unresolved plan time)");
  const std::uint32_t slot = slot_of(handle.id);
  Event& e = pool_[slot];
  e.time = t;
  // Fresh sequence number: the rescheduled event fires after events already
  // queued at the same timestamp, matching cancel+schedule_at semantics.
  e.seq = next_seq_++;
  // The key can move either direction (earlier or later time).
  sift_up(e.heap_pos);
  sift_down(pool_[slot].heap_pos);
  if (obs_ != nullptr) ++obs_rescheduled_;
  return true;
}

bool Engine::reschedule_after(EventHandle handle, SimDuration delay) {
  VMLP_CHECK_MSG(delay >= 0, "negative delay " << delay);
  return reschedule(handle, now_ + delay);
}

bool Engine::step() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_[0];
  Event& e = pool_[slot];
  VMLP_CHECK_MSG(e.time >= now_, "event queue time went backwards");
  VMLP_AUDIT_ASSERT(e.time >= last_fired_, "event firing order not monotonic: t="
                                               << e.time << " after " << last_fired_);
  last_fired_ = e.time;
  now_ = e.time;
  // Detach the callback and free the slot *before* invoking: the callback may
  // schedule new events, reusing this slot or growing the pool (which would
  // invalidate references into pool_).
  Callback fn = std::move(e.fn);
  heap_remove(slot);
  release_slot(slot);
  ++executed_;
  fn();
  return true;
}

void Engine::run_until(SimTime horizon) {
  VMLP_CHECK_MSG(horizon >= now_, "horizon in the past");
  while (!heap_.empty() && pool_[heap_[0]].time <= horizon) {
    step();
  }
  now_ = horizon;
}

void Engine::run_all() {
  while (step()) {
  }
}

}  // namespace vmlp::sim
