// Deterministic RNG: reproducibility, substreams, and distribution sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.h"
#include "common/rng.h"

namespace vmlp {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkByLabelIsDeterministic) {
  Rng parent(7);
  Rng a = parent.fork("comm");
  Rng b = Rng(7).fork("comm");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForksAreIndependentStreams) {
  Rng parent(7);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkByIndexDiffers) {
  Rng parent(9);
  Rng a = parent.fork(std::uint64_t{0});
  Rng b = parent.fork(std::uint64_t{1});
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(3);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformInvertedBoundsThrow) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(3.0, 1.0), InvariantError);
  EXPECT_THROW(rng.uniform_int(3, 1), InvariantError);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalShifted) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, LognormalMeanCvMatches) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal_mean_cv(100.0, 0.3);
    ASSERT_GT(x, 0.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 100.0, 1.5);
  EXPECT_NEAR(std::sqrt(var) / mean, 0.3, 0.02);
}

TEST(Rng, LognormalZeroCvIsConstant) {
  Rng rng(17);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(42.0, 0.0), 42.0);
}

TEST(Rng, LognormalRejectsBadParams) {
  Rng rng(17);
  EXPECT_THROW(rng.lognormal_mean_cv(-1.0, 0.2), InvariantError);
  EXPECT_THROW(rng.lognormal_mean_cv(1.0, -0.2), InvariantError);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_mean(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(31);
  std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, WeightedIndexNeverReturnsZeroWeightTail) {
  // Regression: the floating-point-residue fallback used to return the last
  // *bucket*, which a trailing zero weight could occupy. Zero-weight entries
  // must be unreachable from every path.
  Rng rng(41);
  const std::vector<double> tail_zero{0.3, 0.7, 0.0, 0.0};
  for (int i = 0; i < 200000; ++i) {
    const std::size_t idx = rng.weighted_index(tail_zero);
    ASSERT_LT(idx, 2u) << "zero-weight tail entry sampled at draw " << i;
  }
  // Mixed zeros: only the positive-weight entries may appear.
  const std::vector<double> sparse{0.0, 1e-12, 0.0, 1e-12, 0.0};
  for (int i = 0; i < 20000; ++i) {
    const std::size_t idx = rng.weighted_index(sparse);
    ASSERT_TRUE(idx == 1 || idx == 3) << "idx=" << idx;
  }
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  Rng rng(31);
  std::vector<double> empty;
  EXPECT_THROW(rng.weighted_index(empty), InvariantError);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), InvariantError);
  std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(negative), InvariantError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, HashLabelStable) {
  EXPECT_EQ(hash_label("comm"), hash_label("comm"));
  EXPECT_NE(hash_label("comm"), hash_label("exec"));
}

}  // namespace
}  // namespace vmlp
