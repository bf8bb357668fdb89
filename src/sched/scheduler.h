// Scheduler policy interface.
//
// The SimulationDriver owns all mechanism (containers, reservations, events,
// communication, metrics); a scheduler is a pure policy object that reacts to
// driver callbacks and issues placements through the driver's API. All five
// evaluated schemes (Table VI) implement this interface.
//
// Four hooks are optional (see Hook): the driver delivers one only after the
// scheduler subscribed to it in attach(), and for the rest it arms no event
// and pays no callback. A forwarding wrapper must forward attach() to the
// policy it wraps, so that the policy's subscription reaches the driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace vmlp::sched {

class SimulationDriver;

/// The optional IScheduler hooks, as subscription bits for
/// SimulationDriver::subscribe(). on_request_arrival, on_node_unblocked,
/// on_tick and on_node_orphaned are always delivered.
enum class Hook : std::uint8_t {
  kNone = 0,
  kLateInvocation = 1U << 0,   ///< on_late_invocation (late watches, stuck nodes)
  kNodeStarted = 1U << 1,      ///< on_node_started
  kNodeFinished = 1U << 2,     ///< on_node_finished
  kRequestFinished = 1U << 3,  ///< on_request_finished
};

constexpr Hook operator|(Hook a, Hook b) {
  return static_cast<Hook>(static_cast<std::uint8_t>(a) | static_cast<std::uint8_t>(b));
}
constexpr Hook operator&(Hook a, Hook b) {
  return static_cast<Hook>(static_cast<std::uint8_t>(a) & static_cast<std::uint8_t>(b));
}

class IScheduler {
 public:
  virtual ~IScheduler() = default;

  /// Scheme name as printed in result tables ("FairSched", "v-MLP", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the run starts; keep the driver pointer. A scheduler
  /// that overrides an optional hook subscribes to it here, through
  /// driver.subscribe(); the default subscribes to none.
  virtual void attach(SimulationDriver& driver) { driver_ = &driver; }

  /// A new request arrived (its root nodes are ready).
  virtual void on_request_arrival(RequestId id) = 0;
  /// A node's dependencies completed and it is not placed yet.
  virtual void on_node_unblocked(RequestId id, std::size_t node) = 0;
  /// Periodic scheduling tick.
  virtual void on_tick() = 0;
  /// Optional (Hook::kLateInvocation). A planned node failed to start by its
  /// planned time, or its machine keeps denying an early start (v-MLP's
  /// self-healing trigger). Default: ignore.
  virtual void on_late_invocation(RequestId id, std::size_t node) {
    (void)id;
    (void)node;
  }
  /// A node lost an execution or placement to a failure (machine crash,
  /// container fault, invocation timeout) and its dependencies are met; the
  /// driver's bounded-retry policy wants it re-placed. Default: blind retry —
  /// treat it exactly like a freshly unblocked node. v-MLP overrides this to
  /// route orphans through its relocation path.
  virtual void on_node_orphaned(RequestId id, std::size_t node) {
    on_node_unblocked(id, node);
  }
  /// Optional (Hook::kNodeStarted). A node started executing. Default: ignore.
  virtual void on_node_started(RequestId id, std::size_t node) {
    (void)id;
    (void)node;
  }
  /// Optional (Hook::kNodeFinished). A node finished. Default: ignore.
  virtual void on_node_finished(RequestId id, std::size_t node) {
    (void)id;
    (void)node;
  }
  /// Optional (Hook::kRequestFinished). The whole request completed.
  /// Default: ignore.
  virtual void on_request_finished(RequestId id) { (void)id; }

 protected:
  SimulationDriver* driver_ = nullptr;
};

}  // namespace vmlp::sched
