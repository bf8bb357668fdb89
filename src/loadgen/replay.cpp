#include "loadgen/replay.h"

#include <fstream>
#include <ostream>

#include "common/error.h"

namespace vmlp::loadgen {

void save_arrivals_csv(const std::vector<Arrival>& arrivals, const app::Application& application,
                       std::ostream& out) {
  out << "time_us,request_type\n";
  for (const auto& a : arrivals) {
    out << a.time << "," << application.request(a.type).name() << "\n";
  }
}

void save_arrivals_csv_file(const std::vector<Arrival>& arrivals,
                            const app::Application& application, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot open for writing: " + path);
  save_arrivals_csv(arrivals, application, out);
  if (!out) throw ConfigError("write failed: " + path);
}

}  // namespace vmlp::loadgen
