// Deterministic random number generation.
//
// All stochastic behaviour in the simulator flows through Rng so that a run is
// fully reproducible from a single 64-bit seed. The generator is xoshiro256**
// (public-domain algorithm by Blackman & Vigna) seeded via SplitMix64, and all
// distributions are implemented locally (std::<distribution> types are
// implementation-defined and would break cross-platform determinism).
//
// Substreams: Rng::fork(name) derives an independent child stream from the
// parent seed and a label, so e.g. the network model and each machine's
// execution sampler consume independent, stable sequences regardless of the
// order in which other components draw.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace vmlp {

class Rng {
 public:
  /// Seeds the stream; identical seeds yield identical sequences forever.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derive an independent child stream from this stream's seed and a label.
  [[nodiscard]] Rng fork(std::string_view label) const;
  /// Derive an independent child stream from this stream's seed and an index.
  [[nodiscard]] Rng fork(std::uint64_t index) const;

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// True with probability p.
  bool bernoulli(double p);
  /// Standard normal via Marsaglia polar method (deterministic across stdlibs).
  double normal();
  /// Normal with mean mu and standard deviation sigma.
  double normal(double mu, double sigma);
  /// Lognormal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double log_mu, double log_sigma);
  /// Lognormal parameterized by its own mean and coefficient of variation.
  double lognormal_mean_cv(double mean, double cv);
  /// Exponential with the given mean (= 1/rate).
  double exponential_mean(double mean);
  /// Index in [0, weights.size()) drawn proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights);
  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Stable 64-bit FNV-1a hash of a label, used for substream derivation.
std::uint64_t hash_label(std::string_view label);

}  // namespace vmlp
