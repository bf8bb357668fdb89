// Cluster network topology: machines grouped into racks. Placement distance
// (same machine / same rack / cross rack) selects the communication-delay
// distribution in CommModel.
#pragma once

#include <cstddef>

#include "common/error.h"
#include "common/types.h"

namespace vmlp::net {

enum class Distance { kSameMachine, kSameRack, kCrossRack };

class Topology {
 public:
  Topology(std::size_t machines, std::size_t machines_per_rack);

  [[nodiscard]] std::size_t machine_count() const { return machines_; }
  // rack_of/distance are defined in the header: the admission planner's
  // desired-start estimation calls them per (parent, candidate machine)
  // probe — tens of millions of times on a contended cell. The range check
  // stays; it inlines because a failed VMLP_CHECK_MSG calls a cold,
  // out-of-line function and builds no message at the call site.
  [[nodiscard]] std::size_t rack_of(MachineId m) const {
    VMLP_CHECK_MSG(m.valid() && m.value() < machines_, "machine id out of range");
    return m.value() / per_rack_;
  }
  [[nodiscard]] Distance distance(MachineId a, MachineId b) const {
    if (a == b) return Distance::kSameMachine;
    return rack_of(a) == rack_of(b) ? Distance::kSameRack : Distance::kCrossRack;
  }

 private:
  std::size_t machines_;
  std::size_t per_rack_;
};

}  // namespace vmlp::net
