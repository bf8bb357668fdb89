#include "common/config.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace vmlp {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#' || t[0] == ';') continue;
    if (t.front() == '[') {
      if (t.back() != ']') {
        throw ConfigError("config line " + std::to_string(lineno) + ": unterminated section");
      }
      section = trim(t.substr(1, t.size() - 2));
      if (section.empty()) {
        throw ConfigError("config line " + std::to_string(lineno) + ": empty section name");
      }
      continue;
    }
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("config line " + std::to_string(lineno) + ": expected key = value");
    }
    std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    if (key.empty()) {
      throw ConfigError("config line " + std::to_string(lineno) + ": empty key");
    }
    if (!section.empty()) key = section + "." + key;
    cfg.values_[key] = value;
  }
  return cfg;
}

Config Config::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

std::optional<std::string> Config::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  auto v = get(key);
  return v ? *v : fallback;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    throw ConfigError("config key '" + key + "': not an integer: " + *v);
  }
  return parsed;
}

double Config::get_double(const std::string& key, double fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    throw ConfigError("config key '" + key + "': not a number: " + *v);
  }
  return parsed;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw ConfigError("config key '" + key + "': not a boolean: " + *v);
}

}  // namespace vmlp
