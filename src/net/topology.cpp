#include "net/topology.h"

#include "common/error.h"

namespace vmlp::net {

Topology::Topology(std::size_t machines, std::size_t machines_per_rack)
    : machines_(machines), per_rack_(machines_per_rack) {
  VMLP_CHECK_MSG(machines > 0, "topology needs at least one machine");
  VMLP_CHECK_MSG(machines_per_rack > 0, "machines_per_rack must be positive");
}

}  // namespace vmlp::net
