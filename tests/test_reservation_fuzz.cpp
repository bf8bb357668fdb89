// Differential fuzz for ReservationLedger: random interleavings of
// reserve/release/fits/max_usage/span_could_fit/compact_before are checked two
// ways —
//
//   * against a brute-force dense timeline (one slot per time unit), the
//     ground truth for every aggregate query;
//   * against the std::map oracle (tests/map_ledger.h), bit-exact: the two
//     representations share their arithmetic order, so every query — and
//     free_fraction(), read from the flat ledger's prefix-folded peak — must
//     agree to the last ulp;
//
// with the audit layer's structural invariants (canonical form, cached
// headroom freshness) checked on every mutation when auditing is enabled.
// A second trial drives simulation-shaped traffic: a long history behind an
// advancing frontier, every write near the live end, periodic compactions.
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
/// Window length, in segments, that counts as a long segment walk: queries
/// this long step far past the covering index (and past any hint), and the
/// vacuity guard below proves the fuzz issues them.
constexpr std::size_t kLongWalk = 63;
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

/// ReservationLedger::free_fraction's formula applied to a given peak.
double free_fraction_of(const ResourceVector& peak) {
  const double h_cpu = (kCapacity.cpu - peak.cpu) * (1.0 / kCapacity.cpu);
  const double h_mem = (kCapacity.mem - peak.mem) * (1.0 / kCapacity.mem);
  const double h_io = (kCapacity.io - peak.io) * (1.0 / kCapacity.io);
  return std::max(0.0, std::min(h_cpu, std::min(h_mem, h_io)));
}

/// Every query the two ledgers share, compared bit for bit, hinted and
/// plain, then free_fraction() against the oracle's whole-profile peak: the
/// window queries refresh the flat ledger's peak, so it must be exact here.
void expect_oracle_agreement(const ReservationLedger& flat, const MapLedger& ref, SimTime t0,
                             SimTime t1, const ResourceVector& demand, std::size_t* hint,
                             int trial, int op) {
  expect_bitwise_equal(flat.max_usage(t0, t1), ref.max_usage(t0, t1), "max_usage", trial, op);
  expect_bitwise_equal(flat.usage_at(t0), ref.usage_at(t0), "usage_at", trial, op);
  expect_bitwise_equal(flat.available(t0, t1), ref.available(t0, t1), "available", trial, op);
  const bool fits = ref.fits(t0, t1, demand);
  EXPECT_EQ(flat.fits(t0, t1, demand), fits)
      << "fits diverged (trial " << trial << " op " << op << ")";
  const bool span = ref.span_could_fit(t0, t1, demand);
  EXPECT_EQ(flat.span_could_fit(t0, t1, demand), span)
      << "span_could_fit diverged (trial " << trial << " op " << op << ")";
  // Hinted queries agree with hint-free ones regardless of how stale the
  // carried hint is.
  EXPECT_EQ(flat.fits(t0, t1, demand, hint), fits)
      << "cover hint changed a fits verdict (trial " << trial << " op " << op << ")";
  EXPECT_EQ(flat.span_could_fit(t0, t1, demand, hint), span)
      << "cover hint changed a span verdict (trial " << trial << " op " << op << ")";
  EXPECT_EQ(flat.segment_count(), ref.segment_count())
      << "profiles diverged (trial " << trial << " op " << op << ")";
  EXPECT_EQ(flat.free_fraction(), free_fraction_of(ref.peak()))
      << "free_fraction diverged (trial " << trial << " op " << op << ")";
}

TEST(LedgerFuzz, BackendsMatchEachOtherAndBruteForce) {
  Rng rng(987654321);
  // Vacuity guards: queries whose window is a long segment walk, and
  // queries made while the whole-profile peak left capacity free (a
  // saturated peak clamps free_fraction() to 0 on both sides).
  int long_walk_queries = 0;
  int open_peak_queries = 0;
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
    // query window to be a long walk (the vacuity guard below).
    for (int op = 0; op < 400; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.40 || active.empty()) {
        // reserve; odd trials book an eighth as much, so their peak stays
        // below capacity
        const SimTime t0 = rng.uniform_int(origin, kHorizon - 2);
        const SimTime t1 = rng.uniform_int(t0 + 1, kHorizon - 1);
        const ResourceVector res = random_res(rng) * (trial % 2 == 0 ? 1.0 : 0.125);
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
        if (ref.segments_in(t0, t1) >= kLongWalk) ++long_walk_queries;

        const ResourceVector fmax = flat.max_usage(t0, t1);
        const ResourceVector truth_max = model.max_over(t0, t1);
        EXPECT_NEAR(fmax.cpu, truth_max.cpu, 1e-6) << "trial " << trial << " op " << op;
        EXPECT_NEAR(fmax.mem, truth_max.mem, 1e-6) << "trial " << trial << " op " << op;
        EXPECT_NEAR(fmax.io, truth_max.io, 1e-6) << "trial " << trial << " op " << op;

        const ResourceVector rmin = ref.min_usage(t0, t1);
        const ResourceVector truth_min = model.min_over(t0, t1);
        EXPECT_NEAR(rmin.cpu, truth_min.cpu, 1e-6) << "trial " << trial << " op " << op;
        EXPECT_NEAR(rmin.mem, truth_min.mem, 1e-6) << "trial " << trial << " op " << op;
        EXPECT_NEAR(rmin.io, truth_min.io, 1e-6) << "trial " << trial << " op " << op;

        const ResourceVector demand = random_res(rng);
        expect_oracle_agreement(flat, ref, t0, t1, demand, &hint, trial, op);
        if (flat.free_fraction() > 0.0) ++open_peak_queries;
        // fits truth: per-component, the window max is achieved bit-exactly
        // by some segment, so the per-segment test is equivalent to testing
        // the max itself.
        EXPECT_EQ(flat.fits(t0, t1, demand), (fmax + demand).fits_within(kCapacity))
            << "fits contradicts the window max (trial " << trial << " op " << op << ")";
        // span_could_fit is defined as the window-min verdict.
        EXPECT_EQ(flat.span_could_fit(t0, t1, demand), (rmin + demand).fits_within(kCapacity))
            << "span_could_fit contradicts the window min (trial " << trial << " op " << op
            << ")";
      }
    }
  }
  EXPECT_GT(long_walk_queries, 0)
      << "no query window spanned " << kLongWalk
      << " segments — long segment walks went untested";
  EXPECT_GT(open_peak_queries, 500) << "the peak behind free_fraction() was never tested";
}

TEST(LedgerFuzz, LongHistoryWritesNearTheLiveEnd) {
  // Simulation-shaped traffic: a frontier ("now") advances, every write lands
  // at or after it, and history piles up behind it between compactions, so
  // the searches from the end, the single-search writes and the prefix peak
  // all run against a long untouched prefix. No dense model: the oracle is
  // the reference, bit for bit.
  Rng rng(20221018);
  ReservationLedger flat(kCapacity);
  MapLedger ref(kCapacity);
  std::vector<ActiveWindow> active;
  SimTime now = 0;
  SimTime origin = 0;
  std::size_t hint = kNoCoverHint;
  std::size_t longest = 0;
  std::size_t writes = 0;
  std::size_t write_depth = 0;  // summed segments from a write's start to the end
  int compactions = 0;
  int open_peak_queries = 0;
  for (int op = 0; op < 15000; ++op) {
    const double dice = rng.uniform();
    if (op % 5000 == 4999) {
      // Query on both sides of the compaction: the first leaves the peak
      // exact, the second must see the peak of what is left, not of the
      // erased history.
      expect_oracle_agreement(flat, ref, now, now + 1, random_res(rng), &hint, 0, op);
      const SimTime cp = now - 300;
      flat.compact_before(cp);
      ref.compact_before(cp);
      origin = cp;
      ++compactions;
      expect_oracle_agreement(flat, ref, now, now + 1, random_res(rng), &hint, 0, op);
    } else if (dice < 0.35 || active.empty()) {
      const SimTime t0 = now + rng.uniform_int(0, 6);
      const SimTime t1 = t0 + rng.uniform_int(1, 12);
      // An eighth of a fuzz demand: the peak over the history stays below
      // capacity, so free_fraction() is not clamped to 0.
      const ResourceVector res = random_res(rng) * 0.125;
      write_depth += ref.segments_in(t0, t0 + 1'000'000);
      ++writes;
      flat.reserve(t0, t1, res);
      ref.reserve(t0, t1, res);
      active.push_back(ActiveWindow{t0, t1, res});
    } else if (dice < 0.55) {
      // Release what is left of a window: the part from the frontier on.
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      const ActiveWindow w = active[idx];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
      const SimTime from = std::max(w.t0, now);
      write_depth += ref.segments_in(from, from + 1'000'000);
      ++writes;
      flat.release(from, w.t1, w.res);
      ref.release(from, w.t1, w.res);
    } else if (dice < 0.70) {
      now += rng.uniform_int(1, 2);
      // Windows wholly behind the frontier are history now.
      std::erase_if(active, [now](const ActiveWindow& w) { return w.t1 <= now; });
    } else {
      // Mostly windows near the frontier, sometimes deep into history.
      const SimTime t0 = rng.uniform() < 0.1
                             ? rng.uniform_int(origin, now)
                             : rng.uniform_int(std::max(origin, now - 40), now + 10);
      const SimTime t1 = t0 + rng.uniform_int(1, 30);
      expect_oracle_agreement(flat, ref, t0, t1, random_res(rng), &hint, 0, op);
      if (flat.free_fraction() > 0.0) ++open_peak_queries;
    }
    longest = std::max(longest, flat.segment_count());
  }
  EXPECT_GE(longest, 1000u) << "history never grew long";
  EXPECT_EQ(compactions, 3);
  EXPECT_GT(open_peak_queries, 1000) << "the peak behind free_fraction() was never tested";
  ASSERT_GT(writes, 0u);
  EXPECT_LE(static_cast<double>(write_depth) / static_cast<double>(writes), 16.0)
      << "writes strayed from the live end";
}

}  // namespace
}  // namespace vmlp::cluster
