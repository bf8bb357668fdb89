// Error handling helpers: checked invariants that throw, debug assertions.
//
// A check's condition is evaluated exactly once, at the call site; only the
// failure path is out of line. The message operands of VMLP_CHECK_MSG are
// wrapped in a lambda handed to a cold, non-inlined function, so a passing
// check costs one predictable branch and no stream construction. That keeps
// checked accessors (Cluster::machine, Topology::rack_of, ...) small enough
// for the compiler to inline on the admission probe path.
#pragma once

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace vmlp {

/// Thrown when a VMLP_CHECK invariant fails.
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown on malformed user-facing configuration.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] inline void throw_invariant(
    const char* expr, const char* file, int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantError(os.str());
}

/// Failure path of VMLP_CHECK.
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] inline void check_failed(const char* expr,
                                                                     const char* file,
                                                                     int line) {
  throw_invariant(expr, file, line, std::string());
}

/// Failure path of VMLP_CHECK_MSG: `stream` writes the message operands.
template <class Stream>
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void check_failed(const char* expr,
                                                              const char* file, int line,
                                                              const Stream& stream) {
  std::ostringstream os;
  stream(os);
  throw_invariant(expr, file, line, os.str());
}
}  // namespace detail

}  // namespace vmlp

/// Always-on invariant check; throws InvariantError on failure.
#define VMLP_CHECK(expr)                                                   \
  do {                                                                     \
    if (!(expr)) [[unlikely]]                                              \
      ::vmlp::detail::check_failed(#expr, __FILE__, __LINE__);             \
  } while (0)

/// Always-on invariant check with a streamed message. The message operands
/// are evaluated only when the check fails.
#define VMLP_CHECK_MSG(expr, msg)                                          \
  do {                                                                     \
    if (!(expr)) [[unlikely]]                                              \
      ::vmlp::detail::check_failed(#expr, __FILE__, __LINE__,              \
                                   [&](std::ostream& vmlp_os_) { vmlp_os_ << msg; }); \
  } while (0)
