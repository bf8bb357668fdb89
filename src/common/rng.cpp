#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace vmlp {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t x = seed;
  for (auto& s : state_) s = splitmix64(x);
  // xoshiro's all-zero state is absorbing; splitmix64 never yields four zeros
  // from a single seed, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) state_[0] = 1;
}

Rng Rng::fork(std::string_view label) const {
  return Rng(seed_ ^ rotl(hash_label(label), 17));
}

Rng Rng::fork(std::uint64_t index) const {
  std::uint64_t x = seed_ + 0x632be59bd9b4e019ULL * (index + 1);
  return Rng(splitmix64(x));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  VMLP_CHECK_MSG(lo <= hi, "uniform bounds inverted: " << lo << " > " << hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  VMLP_CHECK_MSG(lo <= hi, "uniform_int bounds inverted: " << lo << " > " << hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % span);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::normal(double mu, double sigma) { return mu + sigma * normal(); }

double Rng::lognormal(double log_mu, double log_sigma) {
  return std::exp(normal(log_mu, log_sigma));
}

double Rng::lognormal_mean_cv(double mean, double cv) {
  VMLP_CHECK_MSG(mean > 0.0 && cv >= 0.0, "lognormal mean=" << mean << " cv=" << cv);
  if (cv == 0.0) return mean;
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return lognormal(mu, std::sqrt(sigma2));
}

double Rng::exponential_mean(double mean) {
  VMLP_CHECK(mean > 0.0);
  double u = uniform();
  while (u == 0.0) u = uniform();
  return -mean * std::log(u);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  VMLP_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    VMLP_CHECK_MSG(w >= 0.0, "negative weight " << w);
    total += w;
  }
  VMLP_CHECK_MSG(total > 0.0, "all weights are zero");
  double r = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  // Floating-point residue walked past every bucket. Land on the last
  // *positive-weight* entry: a zero-weight bucket must never be sampled, and
  // a trailing zero (e.g. a 0.0-ratio mix endpoint) sits exactly here.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  VMLP_CHECK_MSG(false, "unreachable: total > 0 implies a positive weight");
  return 0;
}

}  // namespace vmlp
