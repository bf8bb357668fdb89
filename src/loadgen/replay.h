// Arrival-trace export: save a generated request stream to CSV (the
// `export.arrivals_csv` output of examples/vmlp_sim_cli).
//
// Format: header `time_us,request_type` followed by one row per arrival,
// request types by *name* so traces survive application re-ordering.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "app/application.h"
#include "loadgen/generator.h"

namespace vmlp::loadgen {

/// Write arrivals as CSV (types by name).
void save_arrivals_csv(const std::vector<Arrival>& arrivals, const app::Application& application,
                       std::ostream& out);
void save_arrivals_csv_file(const std::vector<Arrival>& arrivals,
                            const app::Application& application, const std::string& path);

}  // namespace vmlp::loadgen
