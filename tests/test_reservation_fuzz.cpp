// Differential fuzz for ReservationLedger: random interleavings of
// reserve/release/fits/max_usage/span_could_fit/compact_before are checked two
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

        const ResourceVector rmin = ref.min_usage(t0, t1);
        const ResourceVector truth_min = model.min_over(t0, t1);
        EXPECT_NEAR(rmin.cpu, truth_min.cpu, 1e-6) << "trial " << trial << " op " << op;
        EXPECT_NEAR(rmin.mem, truth_min.mem, 1e-6) << "trial " << trial << " op " << op;
        EXPECT_NEAR(rmin.io, truth_min.io, 1e-6) << "trial " << trial << " op " << op;

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

        // span_could_fit is defined as the window-min verdict, both ledgers.
        const bool span_flat = flat.span_could_fit(t0, t1, demand);
        EXPECT_EQ(span_flat, ref.span_could_fit(t0, t1, demand))
            << "span_could_fit diverged (trial " << trial << " op " << op << ")";
        EXPECT_EQ(span_flat, (rmin + demand).fits_within(kCapacity))
            << "span_could_fit contradicts the window min (trial " << trial << " op " << op
            << ")";

        // Hinted queries agree with hint-free ones regardless of how stale
        // the carried hint is.
        const bool fits_plain = flat.fits(t0, t1, demand);
        EXPECT_EQ(fits_plain, flat.fits(t0, t1, demand, &hint))
            << "cover hint changed a fits verdict (trial " << trial << " op " << op << ")";
        EXPECT_EQ(span_flat, flat.span_could_fit(t0, t1, demand, &hint))
            << "cover hint changed a span verdict (trial " << trial << " op " << op << ")";
      }
    }
  }
  EXPECT_GT(block_spanning_queries, 0)
      << "no query window spanned a whole " << kIndexBlock
      << "-segment index block — the block shortcuts went untested";
}

}  // namespace
}  // namespace vmlp::cluster
