// Runtime invariant auditor.
//
// VMLP_AUDIT_ASSERT guards the simulator's deep structural invariants —
// checks that are too expensive (cluster-wide conservation scans) or too
// paranoid (monotonicity the type system already suggests) for the always-on
// VMLP_CHECK tier. The condition expression is *not evaluated* unless
// auditing is enabled, so hot paths pay one predictable branch.
//
// Enablement, in precedence order:
//   1. vmlp::audit::set_enabled(bool)     — tests flip this directly;
//   2. environment VMLP_AUDIT             — read once at first query; `0`,
//      `off`, `false`, `no` (any case) and the empty string mean off, any
//      other value means on;
//   3. compile default: on when built with -DVMLP_AUDIT=1 (the `audit` and
//      `asan-ubsan` CMake presets), off otherwise.
//
// A failed audit throws vmlp::InvariantError (via VMLP_CHECK_MSG), so tests
// can assert that a deliberately corrupted state is caught.
#pragma once

#include <atomic>
#include <optional>

#include "common/error.h"

namespace vmlp::audit {

namespace detail {

inline constexpr int kUnset = -1;

// not guarded: atomic single word; relaxed ordering is sufficient — the flag
// is a hint read at check sites, not a synchronization point. kUnset until
// the first query or set_enabled(); then 0 (off) or 1 (on).
inline std::atomic<int> g_state{kUnset};

/// Meaning of a VMLP_AUDIT environment value: nullopt when unset (nullptr),
/// false for `0`, `off`, `false`, `no` (case-insensitive) or the empty
/// string, true otherwise.
[[nodiscard]] std::optional<bool> parse_env(const char* value) noexcept;

/// Resolves the default from the environment or the compile-time setting,
/// stores it in g_state and returns it. Runs once per process.
[[nodiscard]] bool resolve_default() noexcept;

}  // namespace detail

/// True when audit assertions are live. After the first query this is a
/// single relaxed load.
[[nodiscard]] inline bool enabled() noexcept {
  const int s = detail::g_state.load(std::memory_order_relaxed);
  if (s == detail::kUnset) [[unlikely]] return detail::resolve_default();
  return s != 0;
}

/// Force auditing on/off for this process (overrides env and compile default).
void set_enabled(bool on) noexcept;

}  // namespace vmlp::audit

/// Deep invariant check: evaluated only when vmlp::audit::enabled().
/// Throws InvariantError on failure.
#define VMLP_AUDIT_ASSERT(expr, msg)                \
  do {                                              \
    if (::vmlp::audit::enabled()) {                 \
      VMLP_CHECK_MSG(expr, msg);                    \
    }                                               \
  } while (0)
