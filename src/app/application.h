// Application model: the registry of microservice types plus the request
// types (each a DAG over those services with per-node logic-path scales and
// an SLO). Concrete instances — SocialNetwork and TrainTicket — live in
// src/workloads/.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "app/dag.h"
#include "app/microservice.h"
#include "app/volatility.h"
#include "common/error.h"
#include "common/types.h"

namespace vmlp::app {

/// One node of a request DAG: which microservice runs and how much this
/// request type's logic path scales its nominal time (Fig. 2's source of
/// heterogeneity: the same service does different work per request type).
struct RequestNode {
  ServiceTypeId service;
  double time_scale = 1.0;
};

class Application;

class RequestType {
 public:
  RequestType(RequestTypeId id, std::string name, std::vector<RequestNode> nodes, Dag dag,
              SimDuration slo);

  [[nodiscard]] RequestTypeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<RequestNode>& nodes() const { return nodes_; }
  [[nodiscard]] const Dag& dag() const { return dag_; }
  [[nodiscard]] SimDuration slo() const { return slo_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  RequestTypeId id_;
  std::string name_;
  std::vector<RequestNode> nodes_;
  Dag dag_;
  SimDuration slo_;
};

/// Builder for one request type; obtained from Application::build_request.
class RequestTypeBuilder {
 public:
  /// Append a node invoking `service`; returns the node index.
  RequestTypeBuilder& node(ServiceTypeId service, double time_scale = 1.0);
  /// Add a caller→callee dependency between node indices.
  RequestTypeBuilder& edge(std::size_t from, std::size_t to);
  /// Chain sugar: edges n0→n1→…→nk over already-added node indices.
  RequestTypeBuilder& chain(const std::vector<std::size_t>& path);

  /// Finalize; registers the request type with the application, which
  /// derives its SLO from the nominal critical path.
  RequestTypeId commit();

 private:
  friend class Application;
  RequestTypeBuilder(Application& app, std::string name);

  Application& app_;
  std::string name_;
  std::vector<RequestNode> nodes_;
  std::vector<std::pair<std::size_t, std::size_t>> edges_;
};

class Application {
 public:
  explicit Application(std::string name);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Register a microservice type; returns its id.
  ServiceTypeId add_service(const std::string& name, cluster::ResourceVector demand,
                            SimDuration nominal_time, ServiceClass cls,
                            ResourceIntensity intensity);

  /// Start building a request type.
  RequestTypeBuilder build_request(const std::string& name);

  [[nodiscard]] const MicroserviceType& service(ServiceTypeId id) const {
    VMLP_CHECK_MSG(id.valid() && id.value() < services_.size(),
                   "unknown service id " << id.value());
    return services_[id.value()];
  }
  [[nodiscard]] const RequestType& request(RequestTypeId id) const;
  [[nodiscard]] std::optional<ServiceTypeId> find_service(const std::string& name) const;
  [[nodiscard]] std::optional<RequestTypeId> find_request(const std::string& name) const;
  [[nodiscard]] std::size_t service_count() const { return services_.size(); }
  [[nodiscard]] std::size_t request_count() const { return requests_.size(); }
  [[nodiscard]] const std::vector<MicroserviceType>& services() const { return services_; }
  [[nodiscard]] const std::vector<RequestType>& requests() const { return requests_; }

  /// V_r of a request type (Section III-B) over its invoked services.
  [[nodiscard]] double volatility(RequestTypeId id) const;
  [[nodiscard]] VolatilityBand band(RequestTypeId id) const;

  /// Contention-free expected end-to-end latency: longest path with node
  /// weight nominal×scale and a fixed per-edge communication estimate.
  [[nodiscard]] SimDuration nominal_e2e(RequestTypeId id, SimDuration edge_comm) const;

 private:
  /// A request type's SLO is nominal_e2e(id, kSloEdgeComm) × kSloFactor.
  static constexpr double kSloFactor = 5.0;
  static constexpr SimDuration kSloEdgeComm = 2 * kMsec;

  friend class RequestTypeBuilder;
  RequestTypeId commit_request(RequestTypeBuilder& builder);

  std::string name_;
  std::vector<MicroserviceType> services_;
  std::vector<RequestType> requests_;
};

}  // namespace vmlp::app
