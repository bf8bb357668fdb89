#include "common/audit.h"

#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <string_view>

namespace vmlp::audit {
namespace detail {

std::optional<bool> parse_env(const char* value) noexcept {
  if (value == nullptr) return std::nullopt;
  const std::string_view v(value);
  auto equals_ci = [&v](std::string_view word) {
    if (v.size() != word.size()) return false;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(v[i])) != word[i]) return false;
    }
    return true;
  };
  for (std::string_view off : {"", "0", "off", "false", "no"}) {
    if (equals_ci(off)) return false;
  }
  return true;
}

bool resolve_default() noexcept {
#if defined(VMLP_AUDIT) && VMLP_AUDIT
  constexpr bool kCompiledOn = true;
#else
  constexpr bool kCompiledOn = false;
#endif
  const bool on = parse_env(std::getenv("VMLP_AUDIT")).value_or(kCompiledOn);
  g_state.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace vmlp::audit
