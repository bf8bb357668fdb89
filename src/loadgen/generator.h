// Arrival generation: a non-homogeneous Poisson process over a workload
// pattern (thinning method), with a request-type mix.
//
// Mix helpers mirror the paper's experiment setups: category streams where
// every request type of one V_r category takes an equal share (Table V), the
// mixed stream of Fig. 12, and the high-V_r-ratio sweeps of Fig. 14.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "app/application.h"
#include "common/rng.h"
#include "loadgen/patterns.h"

namespace vmlp::loadgen {

struct Arrival {
  SimTime time = 0;
  RequestTypeId type;
};

struct MixEntry {
  RequestTypeId type;
  double weight = 1.0;
};

class RequestMix {
 public:
  void add(RequestTypeId type, double weight);
  [[nodiscard]] const std::vector<MixEntry>& entries() const { return entries_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Draw one request type proportionally to the weights.
  [[nodiscard]] RequestTypeId sample(Rng& rng) const;

  /// Equal-share mix over all request types of `band` in `application`
  /// ("different types of requests in one category take up the same portion").
  static RequestMix category(const app::Application& application, app::VolatilityBand band);
  /// Equal-share mix over every request type of `application`.
  static RequestMix all(const app::Application& application);
  /// Mix with `high_ratio` of high-V_r requests, remainder spread equally
  /// over the non-high types (the Fig. 14 sweep).
  static RequestMix with_high_ratio(const app::Application& application, double high_ratio);

 private:
  std::vector<MixEntry> entries_;
  /// Weight column cache: sample() is called once per accepted arrival, and
  /// rebuilding the weights vector per draw was a per-arrival allocation.
  std::vector<double> weights_;
};

/// Quantize a candidate arrival at `t_sec` seconds onto the simulation clock.
/// Returns -1 when rounding pushes the tick to or past `horizon`: a candidate
/// drawn just under the horizon can round UP (llround half-away-from-zero),
/// and an arrival at t == horizon would never execute — Engine::run_until
/// fires it, but the driver's QoS window excludes it, so it must be rejected
/// here, not silently mis-binned.
[[nodiscard]] SimTime quantize_arrival(double t_sec, SimTime horizon);

/// Streaming arrival iterator: the thinning loop of generate_arrivals as a
/// pull-based source, so a 10^6-request scale run schedules arrivals one at a
/// time (the driver chains each pull off the previous arrival event) and
/// never materializes the arrival vector. Draw-for-draw identical to the bulk
/// generator — same candidate walk, same rng draw order — so draining a
/// stream reproduces generate_arrivals byte-for-byte.
class ArrivalStream {
 public:
  /// `pattern` must outlive the stream; the mix and the rng are captured by
  /// value so the stream is otherwise self-contained. Rng is a sink parameter
  /// (pass an rvalue substream); see CommModel.
  ArrivalStream(const WorkloadPattern& pattern, RequestMix mix, Rng&& rng,
                double qps_scale = 1.0);

  /// Next accepted arrival in time order; nullopt once the candidate walk
  /// crosses the horizon (terminal — later calls keep returning nullopt).
  [[nodiscard]] std::optional<Arrival> next();

  /// Accepted arrivals emitted so far.
  [[nodiscard]] std::size_t emitted() const { return emitted_; }
  /// The stream-advanced rng (generate_arrivals writes it back to its caller
  /// so bulk generation still advances the caller's stream as before).
  [[nodiscard]] const Rng& rng() const { return rng_; }

 private:
  const WorkloadPattern* pattern_;
  RequestMix mix_;
  Rng rng_;
  double qps_scale_;
  double envelope_;     ///< req/s thinning upper bound (peak rate x scale)
  double horizon_sec_;
  SimTime horizon_;
  double t_sec_ = 0.0;  ///< candidate walk position (seconds)
  bool done_ = false;
  std::size_t emitted_ = 0;
};

/// Generate arrivals over the pattern's horizon via thinning. `qps_scale`
/// proportionally scales the rate curve (the Fig. 12 workload levels).
/// Result is sorted by time; every time is in [0, horizon). Implemented by
/// draining an ArrivalStream; the vector grows geometrically (no up-front
/// expected-count reservation) under an audited envelope-derived bound.
std::vector<Arrival> generate_arrivals(const WorkloadPattern& pattern, const RequestMix& mix,
                                       Rng& rng, double qps_scale = 1.0);

}  // namespace vmlp::loadgen
