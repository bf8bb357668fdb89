// Extension bench — latency decomposition per scheme.
//
// For the mixed stream at the full workload level, decompose every completed
// request's end-to-end time along its critical path — the blocking chain
// trace::extract_critical_path follows, the same one the attribution report
// blames — into
//   exec    — Σ exec phase over the chain's steps,
//   ingress — the first step's other phases (arrival → root start),
//   handoff — the later steps' other phases (communication + scheduling wait
//             + misalignment + failure time between stages),
// so total = ingress + exec + handoff exactly. MLP's thesis is that aligned
// chains shrink the handoff share — this makes the mechanism visible directly
// instead of only through tail latencies.
#include <algorithm>
#include <array>
#include <iostream>
#include <map>

#include "bench_common.h"
#include "stats/summary.h"
#include "workloads/suite.h"

int main() {
  using namespace vmlp;
  exp::print_section("Latency decomposition — mixed stream, L2, full load, 100 machines");

  exp::Table table({"scheme", "request", "n", "mean total", "exec", "handoff", "ingress",
                    "handoff share", "dominant stage"});
  // Names only: run_experiment builds the same suite, so the ids agree.
  const auto application = workloads::make_benchmark_suite();
  constexpr auto kExec = static_cast<std::size_t>(trace::Phase::kExec);
  auto non_exec = [](const std::array<SimDuration, trace::kPhaseCount>& phase) {
    SimDuration sum = 0;
    for (std::size_t p = 0; p < trace::kPhaseCount; ++p) {
      if (p != kExec) sum += phase[p];
    }
    return sum;
  };

  for (auto scheme : exp::all_schemes()) {
    auto config = bench::eval_config(scheme, loadgen::PatternKind::kL2Fluctuating,
                                     exp::StreamKind::kMixed);
    config.driver.obs.enabled = true;  // the capture keeps spans and request records
    const auto result = bench::run_with_progress(config, "mixed");

    struct TypeAgg {
      std::size_t requests = 0;
      stats::Summary total, exec, handoff, ingress;
      std::map<std::uint32_t, std::size_t> dominant;  ///< service id → count
    };
    std::map<std::uint32_t, TypeAgg> by_type;  // ordered by request-type id
    for (const exp::RequestPath& rp : exp::critical_paths(result.obs)) {
      const auto& steps = rp.path.steps;
      const SimDuration ingress = non_exec(steps.front().phase);
      // Longest exec; max_element keeps the earlier step on ties.
      const auto dominant =
          std::max_element(steps.begin(), steps.end(), [](const auto& a, const auto& b) {
            return a.phase[kExec] < b.phase[kExec];
          });
      TypeAgg& agg = by_type[rp.record->type.value()];
      ++agg.requests;
      agg.total.add(static_cast<double>(rp.path.latency));
      agg.exec.add(static_cast<double>(rp.path.totals[kExec]));
      agg.handoff.add(static_cast<double>(non_exec(rp.path.totals) - ingress));
      agg.ingress.add(static_cast<double>(ingress));
      ++agg.dominant[dominant->span->service.value()];
    }

    for (const auto& [type, agg] : by_type) {
      // Most frequent dominant service; ties to the lower service id.
      std::uint32_t best = 0;
      std::size_t best_count = 0;
      for (const auto& [service, count] : agg.dominant) {
        if (count > best_count) {
          best = service;
          best_count = count;
        }
      }
      table.row({exp::scheme_name(scheme), application->request(RequestTypeId(type)).name(),
                 std::to_string(agg.requests), exp::fmt_ms(agg.total.mean()),
                 exp::fmt_ms(agg.exec.mean()), exp::fmt_ms(agg.handoff.mean()),
                 exp::fmt_ms(agg.ingress.mean()),
                 exp::fmt_percent(agg.handoff.mean() / agg.total.mean()),
                 application->service(ServiceTypeId(best)).name});
    }
  }
  table.print();

  std::cout << "\nReading: execution time is scheduler-independent to first order; the\n"
               "schedulers differ in the handoff share — the misalignment waste MLP\n"
               "coalescing removes.\n";
  return 0;
}
