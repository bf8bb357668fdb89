// Microbenchmarks (google-benchmark): hot-path substrate costs — the event
// engine, the reservation ledger, RNG, quantiles, chain-choice sampling, and a
// full v-MLP planning round.
#include <benchmark/benchmark.h>

#include <vector>

#include "app/dag.h"
#include "cluster/reservation.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "stats/percentile.h"
#include "trace/profile_store.h"

namespace {

using namespace vmlp;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(static_cast<SimTime>((i * 2654435761u) % 1000000), [] {});
    }
    engine.run_all();
    benchmark::DoNotOptimize(engine.executed_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000);

void BM_EngineCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) handles.push_back(engine.schedule_at(i, [] {}));
    for (auto& h : handles) engine.cancel(h);
    engine.run_all();
    benchmark::DoNotOptimize(engine.pending_events());
  }
}
BENCHMARK(BM_EngineCancel);

void BM_LedgerReserveRelease(benchmark::State& state) {
  cluster::ReservationLedger ledger({4000, 16384, 1000});
  Rng rng(1);
  SimTime t = 0;
  for (auto _ : state) {
    const SimTime t0 = t + rng.uniform_int(0, 10000);
    const SimTime t1 = t0 + rng.uniform_int(1000, 30000);
    const cluster::ResourceVector r{static_cast<double>(rng.uniform_int(100, 2000)), 256, 50};
    ledger.reserve(t0, t1, r);
    ledger.release(t0, t1, r);
    t += 10;
    if (t > 1000000) {
      ledger.compact_before(t - 1000);
    }
  }
}
BENCHMARK(BM_LedgerReserveRelease);

void BM_LedgerFits(benchmark::State& state) {
  cluster::ReservationLedger ledger({4000, 16384, 1000});
  Rng rng(2);
  // Pre-populate a realistic profile: ~64 overlapping reservations.
  for (int i = 0; i < 64; ++i) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    ledger.reserve(t0, t0 + rng.uniform_int(1000, 30000), {500, 256, 50});
  }
  for (auto _ : state) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    benchmark::DoNotOptimize(ledger.fits(t0, t0 + 10000, {1500, 512, 100}));
  }
}
BENCHMARK(BM_LedgerFits);

void BM_LedgerFitsContended(benchmark::State& state) {
  // A saturated profile (~512 overlapping reservations) where most probes
  // fail — the admission-storm regime the block index exists for.
  cluster::ReservationLedger ledger({4000, 16384, 1000});
  Rng rng(7);
  for (int i = 0; i < 512; ++i) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    ledger.reserve(t0, t0 + rng.uniform_int(1000, 30000), {600, 256, 50});
  }
  for (auto _ : state) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    benchmark::DoNotOptimize(ledger.fits(t0, t0 + 10000, {1500, 512, 100}));
  }
}
BENCHMARK(BM_LedgerFitsContended);

void BM_LedgerChurn(benchmark::State& state) {
  // Admission-like interleaving: one reserve + one release, then a burst of
  // queries — the regime where the lazy index rebuild cost actually shows. Queries-only benchmarks above hide
  // it: their profiles go quiescent after warm-up.
  cluster::ReservationLedger ledger({4000, 16384, 1000});
  Rng rng(11);
  struct Win {
    SimTime t0, t1;
    cluster::ResourceVector r;
  };
  std::vector<Win> active;
  SimTime t = 0;
  for (int i = 0; i < 256; ++i) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    const Win w{t0, t0 + rng.uniform_int(1000, 30000), {500, 256, 50}};
    ledger.reserve(w.t0, w.t1, w.r);
    active.push_back(w);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    Win& w = active[next];
    ledger.release(w.t0, w.t1, w.r);
    w.t0 = t + rng.uniform_int(0, 100000);
    w.t1 = w.t0 + rng.uniform_int(1000, 30000);
    ledger.reserve(w.t0, w.t1, w.r);
    next = (next + 1) % active.size();
    for (int q = 0; q < 8; ++q) {
      const SimTime q0 = t + rng.uniform_int(0, 100000);
      benchmark::DoNotOptimize(ledger.fits(q0, q0 + 10000, {1500, 512, 100}));
    }
    const SimTime s0 = t + rng.uniform_int(0, 100000);
    benchmark::DoNotOptimize(ledger.span_could_fit(s0, s0 + 20000, {1500, 512, 100}));
    ++t;
  }
}
BENCHMARK(BM_LedgerChurn);

void BM_RngLognormal(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_mean_cv(10000.0, 0.3));
  }
}
BENCHMARK(BM_RngLognormal);

void BM_QuantileOfRecent(benchmark::State& state) {
  trace::ProfileStore store;
  Rng rng(4);
  for (int i = 0; i < 512; ++i) {
    store.record(ServiceTypeId(0), RequestTypeId(0), rng.uniform_int(1000, 50000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.quantile_of_recent(ServiceTypeId(0), RequestTypeId(0), 0.99, 50.0));
  }
}
BENCHMARK(BM_QuantileOfRecent);

void BM_SampleSetQuantile(benchmark::State& state) {
  stats::SampleSet samples;
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) samples.add(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(samples.quantile(0.99));  // sorted-cache hit path
  }
}
BENCHMARK(BM_SampleSetQuantile);

void BM_ChainChoices(benchmark::State& state) {
  // compose-post-like DAG: fan-out of 4 with a text sub-fan and a join.
  app::Dag dag(9);
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(0, 3);
  dag.add_edge(0, 4);
  dag.add_edge(1, 5);
  dag.add_edge(1, 6);
  dag.add_edge(2, 7);
  dag.add_edge(3, 7);
  dag.add_edge(4, 7);
  dag.add_edge(5, 7);
  dag.add_edge(6, 7);
  dag.add_edge(7, 8);
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag.chain_choices(4, rng));
  }
}
BENCHMARK(BM_ChainChoices);

}  // namespace
