// Differential fuzz for ReservationLedger: random interleavings of
// reserve/release/fits/max_usage/min_usage/compact_before are checked two
// ways —
//
//   * against a brute-force dense timeline (one slot per time unit), the
//     ground truth for every aggregate query;
//   * against the std::map oracle (tests/map_ledger.h), bit-exact: the two
//     representations share their arithmetic order, so every query must
//     agree to the last ulp (this is what makes the indexed block walks
//     decision-invisible);
//
// with the audit layer's structural invariants (canonical form, cached
// headroom freshness) checked on every mutation when auditing is enabled.
//
// Runs under the asan-ubsan preset like every other test binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "cluster/reservation.h"
#include "cluster/resources.h"
#include "common/rng.h"
#include "map_ledger.h"

namespace vmlp::cluster {
namespace {

using oracle::MapLedger;

constexpr SimTime kHorizon = 512;
/// The flat ledger's coarse-index block length. A window spanning at least
/// 2 * kIndexBlock - 1 segments contains a whole aligned block whatever its
/// first segment's index, so queries over it exercise the block-max/min
/// shortcuts rather than only the per-segment walk.
constexpr std::size_t kIndexBlock = 32;
const ResourceVector kCapacity{100.0, 400.0, 50.0};

struct ActiveWindow {
  SimTime t0;
  SimTime t1;
  ResourceVector res;
};

/// Dense ground-truth timeline: usage per unit-time slot.
struct DenseModel {
  std::vector<ResourceVector> slots{static_cast<std::size_t>(kHorizon)};

  void apply(SimTime t0, SimTime t1, const ResourceVector& res, double sign) {
    for (SimTime t = t0; t < t1; ++t) {
      auto& s = slots[static_cast<std::size_t>(t)];
      s = sign > 0 ? s + res : s - res;
    }
  }
  [[nodiscard]] ResourceVector max_over(SimTime t0, SimTime t1) const {
    ResourceVector m = slots[static_cast<std::size_t>(t0)];
    for (SimTime t = t0; t < t1; ++t) m = m.max(slots[static_cast<std::size_t>(t)]);
    return m;
  }
  [[nodiscard]] ResourceVector min_over(SimTime t0, SimTime t1) const {
    ResourceVector m = slots[static_cast<std::size_t>(t0)];
    for (SimTime t = t0; t < t1; ++t) m = m.min(slots[static_cast<std::size_t>(t)]);
    return m;
  }
};

ResourceVector random_res(Rng& rng) {
  // Quarter-unit granularity stresses float accumulation without drifting so
  // far that the brute-force comparison needs a loose tolerance.
  return ResourceVector{static_cast<double>(rng.uniform_int(1, 160)) * 0.25,
                        static_cast<double>(rng.uniform_int(0, 256)),
                        static_cast<double>(rng.uniform_int(0, 80)) * 0.25};
}

void expect_bitwise_equal(const ResourceVector& a, const ResourceVector& b, const char* what,
                          int trial, int op) {
  EXPECT_EQ(a.cpu, b.cpu) << what << " cpu diverged (trial " << trial << " op " << op << ")";
  EXPECT_EQ(a.mem, b.mem) << what << " mem diverged (trial " << trial << " op " << op << ")";
  EXPECT_EQ(a.io, b.io) << what << " io diverged (trial " << trial << " op " << op << ")";
}

TEST(LedgerFuzz, BackendsMatchEachOtherAndBruteForce) {
  Rng rng(987654321);
  // Vacuity guard: queries whose window spans a whole index block.
  int block_spanning_queries = 0;
  for (int trial = 0; trial < 30; ++trial) {
    ReservationLedger flat(kCapacity);
    MapLedger ref(kCapacity);
    DenseModel model;
    std::vector<ActiveWindow> active;
    SimTime origin = 0;  // times below this are compacted away
    // Covering-index hint carried across queries AND mutations — stale hints
    // must be validated away, never change a verdict.
    std::size_t hint = kNoCoverHint;

    // 400 ops per trial: with far fewer the profile stays too short for any
    // query window to span a whole index block (the vacuity guard below).
    for (int op = 0; op < 400; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.40 || active.empty()) {
        // reserve
        const SimTime t0 = rng.uniform_int(origin, kHorizon - 2);
        const SimTime t1 = rng.uniform_int(t0 + 1, kHorizon - 1);
        const ResourceVector res = random_res(rng);
        flat.reserve(t0, t1, res);
        ref.reserve(t0, t1, res);
        model.apply(t0, t1, res, +1.0);
        active.push_back(ActiveWindow{t0, t1, res});
      } else if (dice < 0.60) {
        // release a random active window
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
        const ActiveWindow w = active[idx];
        flat.release(w.t0, w.t1, w.res);
        ref.release(w.t0, w.t1, w.res);
        model.apply(w.t0, w.t1, w.res, -1.0);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
      } else if (dice < 0.68) {
        // compact: the anchor must not strand a pending release, so it may
        // advance at most to the earliest still-active window start.
        SimTime limit = kHorizon - 2;
        for (const ActiveWindow& w : active) limit = std::min(limit, w.t0);
        if (limit > origin) {
          const SimTime cp = rng.uniform_int(origin, limit);
          flat.compact_before(cp);
          ref.compact_before(cp);
          origin = std::max(origin, cp);
        }
      } else {
        // queries: brute-force truth + bit-exact oracle agreement
        const SimTime t0 = rng.uniform_int(origin, kHorizon - 2);
        const SimTime t1 = rng.uniform_int(t0 + 1, kHorizon - 1);
        if (ref.segments_in(t0, t1) >= 2 * kIndexBlock - 1) ++block_spanning_queries;

        const ResourceVector fmax = flat.max_usage(t0, t1);
        expect_bitwise_equal(fmax, ref.max_usage(t0, t1), "max_usage", trial, op);
        const ResourceVector truth_max = model.max_over(t0, t1);
        EXPECT_NEAR(fmax.cpu, truth_max.cpu, 1e-6) << "trial " << trial << " op " << op;
        EXPECT_NEAR(fmax.mem, truth_max.mem, 1e-6) << "trial " << trial << " op " << op;
        EXPECT_NEAR(fmax.io, truth_max.io, 1e-6) << "trial " << trial << " op " << op;

        const ResourceVector fmin = flat.min_usage(t0, t1);
        expect_bitwise_equal(fmin, ref.min_usage(t0, t1), "min_usage", trial, op);
        const ResourceVector truth_min = model.min_over(t0, t1);
        EXPECT_NEAR(fmin.cpu, truth_min.cpu, 1e-6) << "trial " << trial << " op " << op;

        expect_bitwise_equal(flat.usage_at(t0), ref.usage_at(t0), "usage_at", trial, op);
        expect_bitwise_equal(flat.available(t0, t1), ref.available(t0, t1), "available",
                             trial, op);

        const ResourceVector demand = random_res(rng);
        EXPECT_EQ(flat.fits(t0, t1, demand), ref.fits(t0, t1, demand))
            << "fits diverged (trial " << trial << " op " << op << ")";
        // fits truth: per-component, the window max is achieved bit-exactly
        // by some segment, so the per-segment test is equivalent to testing
        // the max itself.
        EXPECT_EQ(flat.fits(t0, t1, demand), (fmax + demand).fits_within(kCapacity))
            << "fits contradicts the window max (trial " << trial << " op " << op << ")";

        // span_could_fit is defined as the min-usage verdict, both ledgers.
        const bool span_flat = flat.span_could_fit(t0, t1, demand);
        EXPECT_EQ(span_flat, ref.span_could_fit(t0, t1, demand))
            << "span_could_fit diverged (trial " << trial << " op " << op << ")";
        EXPECT_EQ(span_flat, (fmin + demand).fits_within(kCapacity))
            << "span_could_fit contradicts the window min (trial " << trial << " op " << op
            << ")";

        // Hinted queries agree with hint-free ones regardless of how stale
        // the carried hint is.
        const bool fits_plain = flat.fits(t0, t1, demand);
        EXPECT_EQ(fits_plain, flat.fits(t0, t1, demand, &hint))
            << "cover hint changed a fits verdict (trial " << trial << " op " << op << ")";
        EXPECT_EQ(span_flat, flat.span_could_fit(t0, t1, demand, &hint))
            << "cover hint changed a span verdict (trial " << trial << " op " << op << ")";

        // Refit bound soundness: when fits fails, every same-duration window
        // starting at or after t0 but before the bound must also fail.
        if (!fits_plain) {
          SimTime bound = std::numeric_limits<SimTime>::min();
          std::size_t fresh = kNoCoverHint;
          EXPECT_FALSE(flat.fits(t0, t1, demand, &fresh, &bound));
          EXPECT_GT(bound, t0) << "trial " << trial << " op " << op;
          const SimDuration wdur = t1 - t0;
          const SimTime cap = std::min(bound, kHorizon - 1);
          const SimTime stride = std::max<SimTime>(1, (cap - t0) / 7);
          for (SimTime s = t0; s < cap; s += stride) {
            EXPECT_FALSE(flat.fits(s, s + wdur, demand))
                << "refit bound pruned a fitting window (trial " << trial << " op " << op
                << " start " << s << ")";
            EXPECT_FALSE(ref.fits(s, s + wdur, demand))
                << "refit bound disagrees with the reference (trial " << trial << " op " << op
                << " start " << s << ")";
          }
        }

        const SimDuration dur = rng.uniform_int(1, 64);
        std::size_t flat_probes = 0;
        std::size_t ref_probes = 0;
        const SimTime ef_flat = flat.earliest_fit(t0, dur, demand, kHorizon, &flat_probes);
        const SimTime ef_ref = ref.earliest_fit(t0, dur, demand, kHorizon, &ref_probes);
        EXPECT_EQ(ef_flat, ef_ref)
            << "earliest_fit diverged (trial " << trial << " op " << op << ")";
        EXPECT_LE(flat_probes, ref_probes)
            << "flat earliest_fit probed more than the reference (trial " << trial << " op "
            << op << ")";
      }
    }
  }
  EXPECT_GT(block_spanning_queries, 0)
      << "no query window spanned a whole " << kIndexBlock
      << "-segment index block — the block shortcuts went untested";
}

/// Run-skipping regression (the earliest_fit fast path): a long consecutive
/// run of blocking segments must be jumped in one probe, not walked
/// boundary-by-boundary like the map oracle.
TEST(LedgerFuzz, EarliestFitSkipsBlockingRunInOneProbe) {
  ReservationLedger flat({4, 4, 4});
  MapLedger ref({4, 4, 4});
  // 40 adjacent blocking segments at distinct levels (no coalescing).
  for (int i = 0; i < 40; ++i) {
    const ResourceVector res{3.5 + 0.01 * static_cast<double>(i), 0, 0};
    flat.reserve(i * 10, (i + 1) * 10, res);
    ref.reserve(i * 10, (i + 1) * 10, res);
  }
  const ResourceVector demand{1, 0, 0};
  std::size_t flat_probes = 0;
  std::size_t ref_probes = 0;
  EXPECT_EQ(flat.earliest_fit(0, 20, demand, 10000, &flat_probes), 400);
  EXPECT_EQ(ref.earliest_fit(0, 20, demand, 10000, &ref_probes), 400);
  // One probe finds the run, the second lands past it; the reference steps
  // through every one of the 40 boundaries first.
  EXPECT_LE(flat_probes, 3u);
  EXPECT_GE(ref_probes, 40u);
}

/// The refit bound a failed fits() reports is the end of the *maximal*
/// blocking run, so one failure prunes every later probe that still overlaps
/// the run.
TEST(LedgerFuzz, FitsRefitBoundCoversTheWholeBlockingRun) {
  ReservationLedger flat({4, 4, 4});
  for (int i = 0; i < 40; ++i) {
    flat.reserve(100 + i * 10, 100 + (i + 1) * 10, {3.5 + 0.01 * static_cast<double>(i), 0, 0});
  }
  const ResourceVector demand{1, 0, 0};
  SimTime bound = std::numeric_limits<SimTime>::min();
  // Window [90, 110) clips the first blocking segment; the bound must jump
  // past all 40, not just the one that failed the walk.
  EXPECT_FALSE(flat.fits(90, 110, demand, nullptr, &bound));
  EXPECT_EQ(bound, 500);
  // Success leaves the bound untouched.
  bound = -1;
  EXPECT_TRUE(flat.fits(0, 50, demand, nullptr, &bound));
  EXPECT_EQ(bound, -1);
  // A run followed by a quiet tail reports the exact run end.
  ReservationLedger tail({4, 4, 4});
  tail.reserve(0, 100, {4, 0, 0});
  tail.release(50, 100, {4, 0, 0});
  // Profile: [0,50) level 4 (blocks), [50,inf) level 0. Window over the
  // blocking prefix reports the run end exactly.
  bound = std::numeric_limits<SimTime>::min();
  EXPECT_FALSE(tail.fits(10, 30, demand, nullptr, &bound));
  EXPECT_EQ(bound, 50);
}

/// An infinite blocking tail (overbooked forever from some point on) must
/// terminate, not scan to the horizon boundary-by-boundary.
TEST(LedgerFuzz, EarliestFitInfiniteTailTerminates) {
  ReservationLedger flat({4, 4, 4});
  MapLedger ref({4, 4, 4});
  flat.reserve(0, 100, {4, 0, 0});
  ref.reserve(0, 100, {4, 0, 0});
  // Release never happens; beyond t=100 the ledger is empty, so a fit at
  // t=100 exists — but cap the horizon below it.
  std::size_t flat_probes = 0;
  std::size_t ref_probes = 0;
  EXPECT_EQ(flat.earliest_fit(0, 10, {1, 0, 0}, 50, &flat_probes), kTimeInfinity);
  EXPECT_EQ(ref.earliest_fit(0, 10, {1, 0, 0}, 50, &ref_probes), kTimeInfinity);
  EXPECT_LE(flat_probes, 2u);
  EXPECT_LE(ref_probes, 2u);
}

}  // namespace
}  // namespace vmlp::cluster
