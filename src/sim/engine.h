// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// scheduling order (a monotonically increasing sequence number breaks ties).
// Events are cancellable and *reschedulable* — the self-healing module's
// resource stretch and the driver's re-rating move in-flight completion
// events instead of cancelling and re-creating them.
//
// Fast path (the simulator's hottest structure):
//  * Indexed binary heap: every pending event knows its heap position, so
//    cancel() and reschedule() are O(log n) sift operations instead of the
//    classic lazy-delete scheme that leaves tombstones in the queue and
//    re-heapifies them on every pop.
//  * Pooled event slots: fired/cancelled events return their slot (including
//    the callback's inline storage) to a free list, so steady-state
//    scheduling performs no allocation for closures up to the
//    InlineFunction buffer size.
//  * Handles encode (slot, generation): validity checks are two array reads,
//    no hashing. Stale handles (fired/cancelled) are detected by generation
//    mismatch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/inline_function.h"
#include "common/types.h"

namespace vmlp::obs {
class Collector;
}

namespace vmlp::sim {

/// Opaque handle to a scheduled event; value 0 is "no event".
struct EventHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
};

class Engine {
 public:
  using Callback = InlineFunction<void(), 48>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now). Returns a handle
  /// usable with cancel() / reschedule().
  EventHandle schedule_at(SimTime t, Callback fn);
  /// Schedule `fn` after `delay` from now.
  EventHandle schedule_after(SimDuration delay, Callback fn);
  /// Schedule `fn` every `period`, first firing at `start`. Returns the handle
  /// of the series; cancelling it stops the whole series.
  EventHandle schedule_periodic(SimTime start, SimDuration period, Callback fn);

  /// Cancel a pending event. Returns false if it already fired/was cancelled.
  bool cancel(EventHandle handle);
  /// True if the handle refers to a still-pending event.
  [[nodiscard]] bool pending(EventHandle handle) const;

  /// Move a pending event to absolute time `t` (>= now), keeping its stored
  /// callback and handle — the decrease-key path for the driver's frequent
  /// re-rating reschedules. The event is re-sequenced as if freshly
  /// scheduled: among events at equal `t` it fires after those already
  /// queued, exactly matching the cancel+schedule_at idiom it replaces.
  /// Returns false (no-op) if the handle is not pending; periodic series
  /// handles cannot be rescheduled.
  bool reschedule(EventHandle handle, SimTime t);
  /// reschedule() at now + delay.
  bool reschedule_after(EventHandle handle, SimDuration delay);

  /// Run events until the queue drains or simulated time would exceed
  /// `horizon`. Time stops at `horizon` if the queue drained earlier / the
  /// next event lies beyond it.
  void run_until(SimTime horizon);
  /// Run until the queue drains completely.
  void run_all();
  /// Execute at most one event; returns false if the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Pre-size the event pool/heap for `events` concurrently-pending events.
  /// Callers that know the arrival-table size (the driver) reserve up front
  /// so the growth doublings — the engine's only steady-state allocations —
  /// happen once, inside the shard arena when one is bound.
  void reserve(std::size_t events);

  /// Attach (or detach with nullptr) a telemetry collector. Recording is
  /// strictly write-only — the engine never reads it back — so attaching one
  /// cannot change event order (the zero-perturbation contract).
  void set_observer(obs::Collector* obs) { obs_ = obs; }
  /// Publish the accumulated engine tallies into the collector's registry.
  /// The hot paths only bump plain members (schedule/cancel/reschedule run
  /// ~once per executed event — registry indirections there cost real
  /// throughput, see the bench obs.* family); the driver calls this once at
  /// end of run. Idempotent: tallies are written as absolute values.
  void flush_observability();

 private:
  static constexpr std::uint32_t kNoHeapPos = 0xffffffffu;
  /// Tag bit distinguishing periodic-series handles from event handles.
  static constexpr std::uint64_t kPeriodicBit = 1ULL << 63;

  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint64_t id = 0;  ///< full handle id; 0 = free slot
    std::uint32_t heap_pos = kNoHeapPos;
    Callback fn;
  };

  struct PeriodicState {
    SimDuration period;
    // std::function (copyable): the occurrence body is copied before each
    // call so the body may cancel — and thereby destroy — the series state.
    std::function<void()> fn;
    EventHandle occurrence;  ///< the currently queued occurrence event
  };

  static std::uint32_t slot_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }

  [[nodiscard]] bool live(EventHandle handle) const {
    const std::uint32_t slot = slot_of(handle.id);
    return (handle.id & kPeriodicBit) == 0 && slot < pool_.size() &&
           pool_[slot].id == handle.id && handle.id != 0;
  }

  /// True when the event in `a` fires before the event in `b`.
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Event& ea = pool_[a];
    const Event& eb = pool_[b];
    if (ea.time != eb.time) return ea.time < eb.time;
    return ea.seq < eb.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_insert(std::uint32_t slot);
  void heap_remove(std::uint32_t slot);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  void arm_periodic(std::uint64_t series_id, SimTime t);

  SimTime now_ = 0;
  SimTime last_fired_ = 0;  // audit bookkeeping: firing-order monotonicity
  std::uint64_t next_generation_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_series_ = 0;
  std::uint64_t executed_ = 0;
  obs::Collector* obs_ = nullptr;           ///< optional telemetry sink (write-only)
  // Telemetry tallies, flushed by flush_observability(); only tracked while
  // an observer is attached.
  std::uint64_t obs_scheduled_ = 0;
  std::uint64_t obs_cancelled_ = 0;
  std::uint64_t obs_rescheduled_ = 0;
  std::size_t obs_pending_peak_ = 0;
  // The three hot arrays are arena-backed: an Engine constructed inside a
  // shard's ShardArena::Scope grows them from the lane-local arena instead of
  // the (contended) global allocator. Outside a scope they are plain heap
  // vectors. The Engine must not outlive the arena it was constructed under —
  // the trial runner guarantees this by scoping both to one trial.
  ArenaVector<Event> pool_;                 ///< slot-indexed event storage
  ArenaVector<std::uint32_t> free_slots_;   ///< reusable pool slots
  ArenaVector<std::uint32_t> heap_;         ///< binary min-heap of slot indices
  /// Periodic series: series handle id -> state; occurrence events re-arm
  /// themselves under fresh event ids while the series id stays stable so one
  /// cancel() stops the series. Cold path: a handful per simulation.
  std::unordered_map<std::uint64_t, PeriodicState> periodics_;
};

}  // namespace vmlp::sim
