#include "common/types.h"

#include <cstdio>

namespace vmlp {

std::string format_time(SimTime t) {
  char buf[64];
  if (t == kTimeInfinity) return "+inf";
  if (t < 0) {
    std::string out = "-";
    out += format_time(-t);
    return out;
  }
  if (t >= kSec) {
    std::snprintf(buf, sizeof(buf), "%.3fs", static_cast<double>(t) / kSec);
  } else if (t >= kMsec) {
    std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(t) / kMsec);
  } else {
    std::snprintf(buf, sizeof(buf), "%ldus", static_cast<long>(t));
  }
  return buf;
}

}  // namespace vmlp
