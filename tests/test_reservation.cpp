// ResourceVector arithmetic and the ReservationLedger — including a
// randomized property check against a brute-force timeline model.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "cluster/reservation.h"
#include "cluster/resources.h"
#include "common/error.h"
#include "common/rng.h"

namespace vmlp::cluster {
namespace {

TEST(ResourceVector, Arithmetic) {
  ResourceVector a{1, 2, 3};
  ResourceVector b{10, 20, 30};
  EXPECT_EQ(a + b, (ResourceVector{11, 22, 33}));
  EXPECT_EQ(b - a, (ResourceVector{9, 18, 27}));
  EXPECT_EQ(a * 2.0, (ResourceVector{2, 4, 6}));
  EXPECT_EQ(2.0 * a, a * 2.0);
}

TEST(ResourceVector, MaxMinClamp) {
  ResourceVector a{5, 1, 9};
  ResourceVector b{3, 4, 9};
  EXPECT_EQ(a.max(b), (ResourceVector{5, 4, 9}));
  EXPECT_EQ(a.min(b), (ResourceVector{3, 1, 9}));
  EXPECT_EQ((ResourceVector{-1, 10, 5}).clamp_to({4, 4, 4}), (ResourceVector{0, 4, 4}));
}

TEST(ResourceVector, FitsWithin) {
  EXPECT_TRUE((ResourceVector{1, 1, 1}).fits_within({1, 1, 1}));
  EXPECT_TRUE((ResourceVector{1, 1, 1}).fits_within({2, 2, 2}));
  EXPECT_FALSE((ResourceVector{3, 1, 1}).fits_within({2, 2, 2}));
}

TEST(ResourceVector, EpsilonAbsorbsFloatDrift) {
  ResourceVector nearly{1.0 + 1e-9, 1.0, 1.0};
  EXPECT_TRUE(nearly.fits_within({1, 1, 1}));
  ResourceVector tiny{-1e-9, 0, 0};
  EXPECT_FALSE(tiny.any_negative());
  EXPECT_TRUE(tiny.near_zero());
}

TEST(ResourceVector, UtilizationSum) {
  ResourceVector cap{10, 10, 10};
  EXPECT_DOUBLE_EQ((ResourceVector{5, 10, 0}).utilization_sum(cap), 1.5);
  // Clamped at 1 per dimension.
  EXPECT_DOUBLE_EQ((ResourceVector{100, 0, 0}).utilization_sum(cap), 1.0);
}

TEST(ResourceVector, MaxRatioOver) {
  ResourceVector demand{4, 2, 1};
  ResourceVector alloc{2, 2, 1};
  EXPECT_DOUBLE_EQ(demand.max_ratio_over(alloc), 2.0);
  // Demanding a resource the allocation lacks entirely is infinite pressure.
  EXPECT_TRUE(std::isinf((ResourceVector{1, 0, 0}).max_ratio_over(ResourceVector{0, 1, 1})));
}

TEST(Ledger, StartsEmpty) {
  ReservationLedger ledger({10, 10, 10});
  EXPECT_EQ(ledger.usage_at(0), ResourceVector::zero());
  EXPECT_EQ(ledger.usage_at(1000000), ResourceVector::zero());
  EXPECT_TRUE(ledger.fits(0, 100, {10, 10, 10}));
  EXPECT_FALSE(ledger.fits(0, 100, {11, 10, 10}));
}

TEST(Ledger, ReserveWindowShape) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(100, 200, {4, 0, 0});
  EXPECT_EQ(ledger.usage_at(99).cpu, 0);
  EXPECT_EQ(ledger.usage_at(100).cpu, 4);
  EXPECT_EQ(ledger.usage_at(199).cpu, 4);
  EXPECT_EQ(ledger.usage_at(200).cpu, 0);
}

TEST(Ledger, OverlappingReservationsStack) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {4, 0, 0});
  ledger.reserve(50, 150, {4, 0, 0});
  EXPECT_EQ(ledger.usage_at(25).cpu, 4);
  EXPECT_EQ(ledger.usage_at(75).cpu, 8);
  EXPECT_EQ(ledger.usage_at(125).cpu, 4);
  EXPECT_EQ(ledger.max_usage(0, 150).cpu, 8);
  EXPECT_FALSE(ledger.fits(40, 60, {3, 0, 0}));
  EXPECT_TRUE(ledger.fits(40, 60, {2, 0, 0}));
}

TEST(Ledger, ReleaseRestores) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {4, 2, 1});
  ledger.release(0, 100, {4, 2, 1});
  EXPECT_EQ(ledger.usage_at(50), ResourceVector::zero());
  // Fully released profile coalesces back to one segment.
  EXPECT_EQ(ledger.segment_count(), 1u);
}

TEST(Ledger, PartialRelease) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {4, 0, 0});
  ledger.release(50, 100, {4, 0, 0});
  EXPECT_EQ(ledger.usage_at(25).cpu, 4);
  EXPECT_EQ(ledger.usage_at(75).cpu, 0);
}

TEST(Ledger, ReleaseBelowZeroThrows) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {4, 0, 0});
  EXPECT_THROW(ledger.release(0, 100, {5, 0, 0}), InvariantError);
}

TEST(Ledger, EmptyWindowThrows) {
  ReservationLedger ledger({10, 10, 10});
  EXPECT_THROW(ledger.reserve(100, 100, {1, 0, 0}), InvariantError);
  EXPECT_THROW((void)ledger.max_usage(50, 50), InvariantError);
}

TEST(Ledger, OverbookingIsLegalButVisible) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {8, 0, 0});
  ledger.reserve(0, 100, {8, 0, 0});  // 16 > 10: allowed
  EXPECT_EQ(ledger.usage_at(50).cpu, 16);
  EXPECT_FALSE(ledger.fits(0, 100, {1, 0, 0}));
  EXPECT_EQ(ledger.available(0, 100).cpu, 0.0);  // clamped, not negative
}

TEST(Ledger, CompactPreservesLevelAtPoint) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {2, 0, 0});
  ledger.reserve(100, 200, {5, 0, 0});
  ledger.reserve(200, 300, {7, 0, 0});
  ledger.compact_before(150);
  EXPECT_EQ(ledger.usage_at(150).cpu, 5);
  EXPECT_EQ(ledger.usage_at(250).cpu, 7);
  EXPECT_EQ(ledger.usage_at(350).cpu, 0);
}

TEST(Ledger, QueryBeforeCompactionPointThrows) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(100, 200, {5, 0, 0});
  ledger.compact_before(150);
  EXPECT_THROW((void)ledger.usage_at(50), InvariantError);
}

// Property check: random reserve/release sequences must match a brute-force
// per-microsecond usage model.
TEST(LedgerProperty, MatchesBruteForceModel) {
  const SimTime kHorizon = 200;
  Rng rng(12345);
  for (int trial = 0; trial < 50; ++trial) {
    ReservationLedger ledger({100, 100, 100});
    std::vector<double> brute(kHorizon, 0.0);
    std::vector<std::tuple<SimTime, SimTime, double>> active;

    for (int op = 0; op < 40; ++op) {
      if (!active.empty() && rng.bernoulli(0.4)) {
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
        const auto [t0, t1, amount] = active[idx];
        ledger.release(t0, t1, {amount, 0, 0});
        for (SimTime t = t0; t < t1; ++t) brute[t] -= amount;
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
      } else {
        const SimTime t0 = rng.uniform_int(0, kHorizon - 2);
        const SimTime t1 = rng.uniform_int(t0 + 1, kHorizon - 1);
        const double amount = static_cast<double>(rng.uniform_int(1, 10));
        ledger.reserve(t0, t1, {amount, 0, 0});
        for (SimTime t = t0; t < t1; ++t) brute[t] += amount;
        active.emplace_back(t0, t1, amount);
      }
    }
    for (SimTime t = 0; t < kHorizon; t += 7) {
      EXPECT_NEAR(ledger.usage_at(t).cpu, brute[t], 1e-6) << "trial " << trial << " t " << t;
    }
    // max_usage over random windows matches brute-force max.
    for (int probe = 0; probe < 10; ++probe) {
      const SimTime t0 = rng.uniform_int(0, kHorizon - 2);
      const SimTime t1 = rng.uniform_int(t0 + 1, kHorizon - 1);
      double expect = 0.0;
      for (SimTime t = t0; t < t1; ++t) expect = std::max(expect, brute[t]);
      EXPECT_NEAR(ledger.max_usage(t0, t1).cpu, expect, 1e-6);
    }
  }
}

}  // namespace
}  // namespace vmlp::cluster
