// CellTopology: partition math, router ranking, live counters, the headroom
// summary index, and the scale-out determinism claims — a single-cell
// topology run is byte-identical to the flat cluster (determinism_check
// claim 7 pins the full export; these tests keep the core guarantee inside
// ctest), and multi-cell routing is deterministic and actually routes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/cell_topology.h"
#include "cluster/cluster.h"
#include "common/audit.h"
#include "common/error.h"
#include "common/rng.h"
#include "exp/experiment.h"

namespace vmlp::cluster {
namespace {

CellTopology make_topology(std::size_t machines, std::size_t cells) {
  CellTopologyParams p;
  p.cells = cells;
  return CellTopology(machines, p);
}

TEST(CellTopology, PartitionIsContiguousAndBalanced) {
  const auto topo = make_topology(10, 3);  // 4 + 3 + 3
  EXPECT_EQ(topo.cell_count(), 3u);
  EXPECT_EQ(topo.machine_count(), 10u);
  EXPECT_EQ(topo.cell_begin(0), 0u);
  EXPECT_EQ(topo.cell_size(0), 4u);
  EXPECT_EQ(topo.cell_begin(1), 4u);
  EXPECT_EQ(topo.cell_size(1), 3u);
  EXPECT_EQ(topo.cell_begin(2), 7u);
  EXPECT_EQ(topo.cell_size(2), 3u);
  std::size_t covered = 0;
  for (std::size_t c = 0; c < topo.cell_count(); ++c) {
    for (std::size_t i = topo.cell_begin(c); i < topo.cell_begin(c) + topo.cell_size(c); ++i) {
      EXPECT_EQ(topo.cell_of(MachineId(static_cast<std::uint32_t>(i))), c);
      ++covered;
    }
  }
  EXPECT_EQ(covered, 10u);
}

TEST(CellTopology, DegenerateSingleCellSingleMachine) {
  const auto topo = make_topology(1, 1);
  EXPECT_EQ(topo.cell_count(), 1u);
  EXPECT_EQ(topo.cell_begin(0), 0u);
  EXPECT_EQ(topo.cell_size(0), 1u);
  EXPECT_EQ(topo.cell_of(MachineId(0)), 0u);
}

TEST(CellTopology, AutoSizeAndClamp) {
  // cells == 0 auto-sizes to ceil(n / 256).
  EXPECT_EQ(make_topology(100, 0).cell_count(), 1u);
  EXPECT_EQ(make_topology(1000, 0).cell_count(), 4u);
  EXPECT_EQ(make_topology(10000, 0).cell_count(), 40u);
  // More cells than machines clamps (no empty cells).
  EXPECT_EQ(make_topology(3, 8).cell_count(), 3u);
  // Zero machines is invalid.
  EXPECT_THROW(make_topology(0, 1), InvariantError);
}

TEST(CellTopology, RankingIsLoadDensityWithIdTieBreak) {
  auto topo = make_topology(9, 3);  // three equal cells of 3
  std::vector<std::size_t> ranked;
  topo.ranked_cells(ranked);
  // All empty: ascending id (the deterministic tie-break).
  EXPECT_EQ(ranked, (std::vector<std::size_t>{0, 1, 2}));

  // Load cell 0 with 2 placements and cell 1 with 1.
  topo.add_placement(MachineId(0));
  topo.add_placement(MachineId(1));
  topo.add_placement(MachineId(3));
  topo.ranked_cells(ranked);
  EXPECT_EQ(ranked, (std::vector<std::size_t>{2, 1, 0}));

  // Equal live counts on cells 0 and 1 again: lower id first.
  topo.add_placement(MachineId(4));
  topo.ranked_cells(ranked);
  EXPECT_EQ(ranked, (std::vector<std::size_t>{2, 0, 1}));
}

TEST(CellTopology, RankingComparesDensityAcrossUnequalCellSizes) {
  auto topo = make_topology(10, 3);  // sizes 4, 3, 3
  // 1 placement in the size-4 cell (density 1/4) vs 1 in a size-3 cell
  // (density 1/3): the bigger cell is less dense and ranks first.
  topo.add_placement(MachineId(0));
  topo.add_placement(MachineId(4));
  std::vector<std::size_t> ranked;
  topo.ranked_cells(ranked);
  EXPECT_EQ(ranked, (std::vector<std::size_t>{2, 0, 1}));
}

TEST(CellTopology, LiveCountersTrackPeaksAndUnderflowThrows) {
  auto topo = make_topology(6, 2);
  topo.add_placement(MachineId(0));
  topo.add_placement(MachineId(1));
  topo.add_placement(MachineId(3));
  EXPECT_EQ(topo.live_placements(0), 2u);
  EXPECT_EQ(topo.live_placements(1), 1u);
  EXPECT_EQ(topo.live_total(), 3u);
  topo.remove_placement(MachineId(0));
  topo.remove_placement(MachineId(1));
  EXPECT_EQ(topo.live_placements(0), 0u);
  EXPECT_EQ(topo.live_total(), 1u);
  // Peaks are high-water marks, not current values.
  EXPECT_EQ(topo.cell_live_peak(0), 2u);
  EXPECT_EQ(topo.cell_live_peak(1), 1u);
  EXPECT_EQ(topo.live_peak(), 3u);
  EXPECT_THROW(topo.remove_placement(MachineId(0)), InvariantError);
}

class HeadroomIndexTest : public ::testing::Test {
 protected:
  HeadroomIndexTest() {
    ClusterParams p;
    p.machine_count = 8;
    p.topology.cells = 2;  // cells of 4
    cluster_ = std::make_unique<Cluster>(p);
  }

  /// Reserve `frac` of machine i's capacity over a long window, following
  /// the driver's discipline: every ledger mutation notifies the headroom
  /// index, which is push-maintained and trusts the notifications.
  void occupy(std::size_t i, double frac) {
    Machine& m = cluster_->machine(MachineId(static_cast<std::uint32_t>(i)));
    m.ledger().reserve(0, 1000 * kSec, m.capacity() * frac);
    cluster_->cells().note_mutation(MachineId(static_cast<std::uint32_t>(i)), m);
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(HeadroomIndexTest, CandidateAdmitsDemandAndRespectsCellBounds) {
  // Cell 0 machines at 90% occupancy except machine 2 at 10%.
  for (std::size_t i : {0u, 1u, 3u}) occupy(i, 0.9);
  occupy(2, 0.1);
  const auto& topo = cluster_->cells();
  const std::size_t cand = topo.first_fit_candidate(*cluster_, 0, 0, 0.5);
  ASSERT_NE(cand, CellTopology::kNoMachine);
  EXPECT_EQ(cand, 2u);
  // The candidate provably fits: guaranteed free fraction admits the demand.
  const auto& led = cluster_->machine(MachineId(static_cast<std::uint32_t>(cand))).ledger();
  EXPECT_GE(led.free_fraction(), 0.5);
}

TEST_F(HeadroomIndexTest, FullCellReturnsNoMachineOtherCellStillFits) {
  for (std::size_t i = 0; i < 4; ++i) occupy(i, 0.95);  // cell 0 exactly full for 0.5
  const auto& topo = cluster_->cells();
  EXPECT_EQ(topo.first_fit_candidate(*cluster_, 0, 0, 0.5), CellTopology::kNoMachine);
  const std::size_t cand = topo.first_fit_candidate(*cluster_, 1, 0, 0.5);
  ASSERT_NE(cand, CellTopology::kNoMachine);
  EXPECT_GE(cand, 4u);  // cell 1's id range
  EXPECT_LT(cand, 8u);
}

TEST_F(HeadroomIndexTest, CacheInvalidatesOnLedgerMutation) {
  const auto& topo = cluster_->cells();
  // Everything free: machine 0 is the first candidate.
  EXPECT_EQ(topo.first_fit_candidate(*cluster_, 0, 0, 0.5), 0u);
  // Saturate machine 0 *after* the index cached it; occupy() notifies the
  // index (the driver's discipline) and the re-query must not return the
  // stale entry.
  occupy(0, 0.95);
  EXPECT_EQ(topo.first_fit_candidate(*cluster_, 0, 0, 0.5), 1u);
  // Brute-force agreement: the candidate is the first admissible machine in
  // block order, and every machine before it in the cell is inadmissible.
  for (std::size_t i = 0; i < 1; ++i) {
    EXPECT_LT(cluster_->machine(MachineId(static_cast<std::uint32_t>(i))).ledger().free_fraction(),
              0.5);
  }
}

TEST_F(HeadroomIndexTest, RefreshIsGatedOnMutationNotification) {
  const bool audits_were_on = vmlp::audit::enabled();
  vmlp::audit::set_enabled(false);  // the audit tier would (rightly) throw below
  auto& topo = cluster_->cells();
  EXPECT_EQ(topo.first_fit_candidate(*cluster_, 0, 0, 0.5), 0u);
  // A ledger mutated without note_mutation is NOT re-folded: the index is
  // push-maintained and serves the cached summary (advisory-only staleness —
  // admission re-validates candidates against the exact ledger, and the
  // audit tier flags the missed notification). Every real mutation path
  // goes through the driver, which always notifies.
  Machine& m0 = cluster_->machine(MachineId(0));
  m0.ledger().reserve(0, 1000 * kSec, m0.capacity() * 0.95);
  EXPECT_EQ(topo.first_fit_candidate(*cluster_, 0, 0, 0.5), 0u);
  // The notification restores exactness.
  topo.note_mutation(MachineId(0), m0);
  EXPECT_EQ(topo.first_fit_candidate(*cluster_, 0, 0, 0.5), 1u);
  vmlp::audit::set_enabled(audits_were_on);
}

TEST_F(HeadroomIndexTest, AuditCatchesMissedNotification) {
  const bool audits_were_on = vmlp::audit::enabled();
  auto& topo = cluster_->cells();
  EXPECT_EQ(topo.first_fit_candidate(*cluster_, 0, 0, 0.5), 0u);  // folds block 0
  Machine& m0 = cluster_->machine(MachineId(0));
  m0.ledger().reserve(0, 1000 * kSec, m0.capacity() * 0.95);  // no notification
  vmlp::audit::set_enabled(true);
  EXPECT_THROW(static_cast<void>(topo.first_fit_candidate(*cluster_, 0, 0, 0.5)),
               InvariantError);
  vmlp::audit::set_enabled(audits_were_on);
}

TEST_F(HeadroomIndexTest, DownMachinesAreSkipped) {
  cluster_->machine(MachineId(0)).set_up(false);
  const auto& topo = cluster_->cells();
  EXPECT_EQ(topo.first_fit_candidate(*cluster_, 0, 0, 0.5), 1u);
}

TEST(HeadroomIndex, BlockMaxMatchesAFreshFoldThroughRisesAndFalls) {
  // 100 machines in 2 cells: four 32-machine blocks, one straddling the
  // cell boundary. Reserves lower a machine's free fraction; a release
  // followed by a refreshing query raises it. The incremental block max must
  // equal a fresh fold after every notification (checked by the audit tier
  // on each visited block), and candidates must match a brute-force scan.
  const bool audits_were_on = vmlp::audit::enabled();
  ClusterParams p;
  p.machine_count = 100;
  p.topology.cells = 2;
  Cluster cluster(p);
  auto& topo = cluster.cells();
  Rng rng(4242);
  struct Booking {
    std::size_t machine;
    SimTime t0;
    SimTime t1;
    ResourceVector res;
  };
  std::vector<Booking> live;
  int rises = 0;
  int falls = 0;
  for (int op = 0; op < 3000; ++op) {
    vmlp::audit::set_enabled(false);
    std::size_t i = 0;
    double before = 0.0;
    if (live.empty() || rng.uniform() < 0.55) {
      i = static_cast<std::size_t>(rng.uniform_int(0, 99));
      Machine& m = cluster.machine(MachineId(static_cast<std::uint32_t>(i)));
      before = m.ledger().free_fraction();
      const SimTime t0 = rng.uniform_int(0, 50) * kMsec;
      const SimTime t1 = t0 + rng.uniform_int(1, 50) * kMsec;
      const ResourceVector res = m.capacity() * (0.01 * static_cast<double>(rng.uniform_int(1, 12)));
      m.ledger().reserve(t0, t1, res);
      live.push_back(Booking{i, t0, t1, res});
    } else {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const Booking b = live[k];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      i = b.machine;
      Machine& m = cluster.machine(MachineId(static_cast<std::uint32_t>(i)));
      before = m.ledger().free_fraction();
      m.ledger().release(b.t0, b.t1, b.res);
      static_cast<void>(m.ledger().max_usage(0, 1));  // re-tightens the peak
    }
    const Machine& m = cluster.machine(MachineId(static_cast<std::uint32_t>(i)));
    topo.note_mutation(MachineId(static_cast<std::uint32_t>(i)), m);
    const double after = m.ledger().free_fraction();
    rises += after > before ? 1 : 0;
    falls += after < before ? 1 : 0;

    vmlp::audit::set_enabled(true);
    const double demand = 0.01 * static_cast<double>(rng.uniform_int(0, 100));
    for (std::size_t c = 0; c < topo.cell_count(); ++c) {
      // An unsatisfiable demand visits, and so audits, every block of the cell.
      EXPECT_EQ(topo.first_fit_candidate(cluster, c, 0, 2.0), CellTopology::kNoMachine);
      std::size_t want = CellTopology::kNoMachine;
      for (std::size_t j = topo.cell_begin(c); j < topo.cell_begin(c) + topo.cell_size(c); ++j) {
        if (cluster.machine(MachineId(static_cast<std::uint32_t>(j))).ledger().free_fraction() >=
            demand + 1e-9) {
          want = j;
          break;
        }
      }
      EXPECT_EQ(topo.first_fit_candidate(cluster, c, 0, demand), want) << "op " << op;
    }
  }
  vmlp::audit::set_enabled(audits_were_on);
  EXPECT_GT(rises, 100);
  EXPECT_GT(falls, 100);
}

TEST(ClusterTopology, MachineCountOverflowGuard) {
  // The uint32 MachineId narrowing guard fires before any allocation.
  ClusterParams p;
  p.machine_count = static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max());
  EXPECT_THROW(Cluster{p}, InvariantError);
}

}  // namespace
}  // namespace vmlp::cluster

namespace vmlp::exp {
namespace {

ExperimentConfig scale_config(std::size_t machines, std::size_t cells, std::uint64_t seed) {
  ExperimentConfig c;
  c.scheme = SchemeKind::kVmlp;
  c.pattern = loadgen::PatternKind::kL1Pulse;
  c.stream = StreamKind::kMixed;
  c.seed = seed;
  c.driver.horizon = 3 * kSec;
  c.driver.cluster.machine_count = machines;
  c.driver.cluster.topology.cells = cells;
  c.pattern_params.horizon = c.driver.horizon;
  c.pattern_params.base_rate = 16.0;
  c.pattern_params.max_rate = 48.0;
  c.pattern_params.peak_time = c.driver.horizon / 2;
  return c;
}

void expect_identical(const sched::RunResult& a, const sched::RunResult& b) {
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.unfinished, b.unfinished);
  EXPECT_EQ(a.placements, b.placements);
  // Bit-exact: any drift means the router path perturbed a decision.
  EXPECT_EQ(a.qos_violation_rate, b.qos_violation_rate);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(a.p50_latency_us, b.p50_latency_us);
  EXPECT_EQ(a.p90_latency_us, b.p90_latency_us);
  EXPECT_EQ(a.p99_latency_us, b.p99_latency_us);
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
}

TEST(TopologyDeterminism, SingleCellRouterIsByteIdenticalToFlatScan) {
  // The claim-7 hinge: cell_router on a 1-cell topology must reproduce the
  // pre-topology flat scan bit-for-bit (cursor trajectories coincide).
  auto with_router = scale_config(8, 1, 11);
  with_router.vmlp.cell_router = true;
  auto flat = scale_config(8, 1, 11);
  flat.vmlp.cell_router = false;
  const auto a = run_experiment(with_router);
  const auto b = run_experiment(flat);
  expect_identical(a.run, b.run);
  EXPECT_EQ(a.utilization_series, b.utilization_series);
}

TEST(TopologyDeterminism, MultiCellRunIsDeterministicAndCompletes) {
  auto c = scale_config(8, 2, 11);
  c.driver.obs.enabled = true;
  const auto a = run_experiment(c);
  const auto b = run_experiment(c);
  expect_identical(a.run, b.run);
  EXPECT_GT(a.run.completed, 0u);
  // Vacuity guard: the router actually routed (stages went through ranked
  // cells), so the byte-identity test above is not comparing two flat scans.
  const obs::MetricSnapshot* routed = a.obs.snapshot.find("topology.stages_routed");
  ASSERT_NE(routed, nullptr);
  EXPECT_GT(routed->counter, 0u);
  const obs::MetricSnapshot* cells = a.obs.snapshot.find("topology.cells_configured");
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells->gauge, 2.0);
}

TEST(TopologyDeterminism, MultiCellDiffersFromFlatOrMatchesHarmlessly) {
  // Not a byte claim — a 2-cell router probes in a different order, so the
  // run is *expected* to diverge from flat. Assert both runs are healthy;
  // the placements-per-cell gauges prove both cells were used.
  auto c = scale_config(8, 2, 11);
  c.driver.obs.enabled = true;
  const auto r = run_experiment(c);
  EXPECT_GT(r.run.completed, 0u);
  const obs::MetricSnapshot* c0 = r.obs.snapshot.find("topology.cell0.live_peak");
  const obs::MetricSnapshot* c1 = r.obs.snapshot.find("topology.cell1.live_peak");
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  EXPECT_GT(c0->gauge, 0.0);
  EXPECT_GT(c1->gauge, 0.0);
}

TEST(TopologyHealing, CrashedCellReplacesAcrossCells) {
  // Orphaned-node healing when the crashed machine's cell is saturated:
  // machines crash under failure injection on a 2-cell cluster and the
  // self-healing module must be able to re-place across cells. The run must
  // stay healthy (no stuck orphans beyond the retry budget accounting).
  auto c = scale_config(6, 2, 13);
  c.driver.horizon = 4 * kSec;
  c.pattern_params.horizon = c.driver.horizon;
  c.pattern_params.peak_time = c.driver.horizon / 2;
  c.driver.failure.enabled = true;
  c.driver.failure.crashes_per_second = 0.5;
  c.driver.failure.recovery_mean = 800 * kMsec;
  c.driver.obs.enabled = true;
  const auto r = run_experiment(c);
  EXPECT_GT(r.run.machine_crashes, 0u);
  EXPECT_GT(r.run.completed, 0u);
  // Both cells saw placements: cross-cell placement is live.
  const obs::MetricSnapshot* c0 = r.obs.snapshot.find("topology.cell0.live_peak");
  const obs::MetricSnapshot* c1 = r.obs.snapshot.find("topology.cell1.live_peak");
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  EXPECT_GT(c0->gauge, 0.0);
  EXPECT_GT(c1->gauge, 0.0);
  // Determinism under failures + multi-cell routing.
  const auto again = run_experiment(c);
  expect_identical(r.run, again.run);
}

TEST(TopologyStreamed, StreamedArrivalsMatchBulkCount) {
  // Streamed mode is its own determinism domain (event interleaving differs
  // from bulk) but must admit exactly the same arrivals.
  auto bulk = scale_config(6, 2, 17);
  auto streamed = bulk;
  streamed.stream_arrivals = true;
  const auto a = run_experiment(bulk);
  const auto b = run_experiment(streamed);
  EXPECT_EQ(a.run.arrived, b.run.arrived);
  EXPECT_GT(b.run.completed, 0u);
  // Streamed self-determinism.
  const auto b2 = run_experiment(streamed);
  expect_identical(b.run, b2.run);
}

}  // namespace
}  // namespace vmlp::exp
