#include "loadgen/generator.h"

#include <cmath>

#include "common/error.h"

namespace vmlp::loadgen {

void RequestMix::add(RequestTypeId type, double weight) {
  VMLP_CHECK_MSG(weight >= 0.0, "negative mix weight");
  entries_.push_back(MixEntry{type, weight});
  weights_.push_back(weight);
}

RequestTypeId RequestMix::sample(Rng& rng) const {
  VMLP_CHECK_MSG(!entries_.empty(), "sampling from an empty mix");
  return entries_[rng.weighted_index(weights_)].type;
}

RequestMix RequestMix::category(const app::Application& application, app::VolatilityBand band) {
  RequestMix mix;
  for (const auto& rt : application.requests()) {
    if (application.band(rt.id()) == band) mix.add(rt.id(), 1.0);
  }
  VMLP_CHECK_MSG(!mix.empty(), "application '" << application.name() << "' has no "
                                               << app::band_name(band) << "-V_r request types");
  return mix;
}

RequestMix RequestMix::all(const app::Application& application) {
  RequestMix mix;
  for (const auto& rt : application.requests()) mix.add(rt.id(), 1.0);
  VMLP_CHECK_MSG(!mix.empty(), "application has no request types");
  return mix;
}

RequestMix RequestMix::with_high_ratio(const app::Application& application, double high_ratio) {
  VMLP_CHECK_MSG(high_ratio >= 0.0 && high_ratio <= 1.0, "high_ratio=" << high_ratio);
  std::vector<RequestTypeId> high;
  std::vector<RequestTypeId> rest;
  for (const auto& rt : application.requests()) {
    (application.band(rt.id()) == app::VolatilityBand::kHigh ? high : rest).push_back(rt.id());
  }
  VMLP_CHECK_MSG(!high.empty() && !rest.empty(),
                 "need both high- and non-high-V_r request types for a ratio mix");
  RequestMix mix;
  for (auto id : high) mix.add(id, high_ratio / static_cast<double>(high.size()));
  for (auto id : rest) mix.add(id, (1.0 - high_ratio) / static_cast<double>(rest.size()));
  return mix;
}

SimTime quantize_arrival(double t_sec, SimTime horizon) {
  if (t_sec < 0.0) return -1;
  const auto t = static_cast<SimTime>(std::llround(t_sec * kSec));
  return t < horizon ? t : -1;
}

ArrivalStream::ArrivalStream(const WorkloadPattern& pattern, RequestMix mix, Rng&& rng,
                             double qps_scale)
    : pattern_(&pattern),
      mix_(std::move(mix)),
      rng_(rng),
      qps_scale_(qps_scale),
      envelope_(pattern.peak_rate() * qps_scale),
      horizon_sec_(static_cast<double>(pattern.params().horizon) / kSec),
      horizon_(pattern.params().horizon) {
  VMLP_CHECK_MSG(qps_scale > 0.0, "qps_scale must be positive");
  VMLP_CHECK_MSG(!mix_.empty(), "empty request mix");
}

std::optional<Arrival> ArrivalStream::next() {
  if (done_) return std::nullopt;
  // Thinning: candidate arrivals from a homogeneous process at the envelope
  // rate, accepted with probability rate(t)/envelope.
  while (true) {
    t_sec_ += rng_.exponential_mean(1.0 / envelope_);
    if (t_sec_ >= horizon_sec_) {
      done_ = true;
      return std::nullopt;
    }
    const SimTime t = quantize_arrival(t_sec_, horizon_);
    if (t < 0) continue;  // rounding crossed the horizon; candidate is void
    const double accept = pattern_->rate_at(t) * qps_scale_ / envelope_;
    if (rng_.bernoulli(accept)) {
      ++emitted_;
      return Arrival{t, mix_.sample(rng_)};
    }
  }
}

std::vector<Arrival> generate_arrivals(const WorkloadPattern& pattern, const RequestMix& mix,
                                       Rng& rng, double qps_scale) {
  // Deliberate stream duplication: the stream advances the copy, and the
  // final state is written back to the caller below — net effect identical
  // to the historical in-place loop.
  ArrivalStream stream(pattern, mix, Rng(rng), qps_scale);
  // Geometric vector growth replaces the old up-front reservation of
  // expected_arrivals * qps_scale * 1.1 — at scale-family request counts the
  // eager reservation WAS the allocation spike, and a mis-estimated
  // expectation either wasted the slack or reallocated anyway. The audited
  // bound catches a broken thinning envelope (acceptance > 1 would emit more
  // than the candidate process should ever yield): 8x expectation has
  // vanishing Poisson tail mass at any size, and the additive slack covers
  // tiny expectations where 8x rounds to nothing.
  const auto bound = static_cast<std::size_t>(pattern.expected_arrivals() * qps_scale * 8.0) + 4096;
  std::vector<Arrival> arrivals;
  while (auto a = stream.next()) {
    VMLP_CHECK_MSG(arrivals.size() < bound,
                   "arrival count exceeded the envelope bound " << bound
                                                                << " — thinning envelope is wrong");
    arrivals.push_back(*a);
  }
  rng = stream.rng();  // bulk generation still advances the caller's stream
  return arrivals;
}

}  // namespace vmlp::loadgen
