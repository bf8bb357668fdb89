// Typed key/value configuration with INI-style parsing.
//
// Sections flatten into dotted keys ("[cluster]\nmachines = 100" becomes
// "cluster.machines"). examples/vmlp_sim_cli reads its run settings this way.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace vmlp {

class Config {
 public:
  Config() = default;

  /// Parse INI-ish text: `key = value`, `# comment`, `; comment`, `[section]`.
  /// Throws ConfigError on malformed lines.
  static Config parse(const std::string& text);
  /// Parse a file from disk. Throws ConfigError if unreadable.
  static Config parse_file(const std::string& path);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Typed getters with defaults. Throw ConfigError if present but unparsable.
  [[nodiscard]] std::string get_string(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace vmlp
