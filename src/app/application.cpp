#include "app/application.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vmlp::app {

RequestType::RequestType(RequestTypeId id, std::string name, std::vector<RequestNode> nodes,
                         Dag dag, SimDuration slo)
    : id_(id), name_(std::move(name)), nodes_(std::move(nodes)), dag_(std::move(dag)), slo_(slo) {
  VMLP_CHECK_MSG(!nodes_.empty(), "request type '" << name_ << "' has no nodes");
  VMLP_CHECK_MSG(dag_.node_count() == nodes_.size(), "DAG/node count mismatch");
  VMLP_CHECK_MSG(dag_.is_acyclic(), "request type '" << name_ << "' has a cyclic DAG");
  VMLP_CHECK_MSG(slo_ > 0, "request type '" << name_ << "' has no SLO");
}

RequestTypeBuilder::RequestTypeBuilder(Application& app, std::string name)
    : app_(app), name_(std::move(name)) {}

RequestTypeBuilder& RequestTypeBuilder::node(ServiceTypeId service, double time_scale) {
  VMLP_CHECK_MSG(time_scale > 0.0, "non-positive time scale");
  (void)app_.service(service);  // validates the id
  nodes_.push_back(RequestNode{service, time_scale});
  return *this;
}

RequestTypeBuilder& RequestTypeBuilder::edge(std::size_t from, std::size_t to) {
  VMLP_CHECK_MSG(from < nodes_.size() && to < nodes_.size(), "edge endpoint out of range");
  edges_.emplace_back(from, to);
  return *this;
}

RequestTypeBuilder& RequestTypeBuilder::chain(const std::vector<std::size_t>& path) {
  for (std::size_t i = 1; i < path.size(); ++i) edge(path[i - 1], path[i]);
  return *this;
}

RequestTypeId RequestTypeBuilder::commit() { return app_.commit_request(*this); }

Application::Application(std::string name) : name_(std::move(name)) {}

ServiceTypeId Application::add_service(const std::string& name, cluster::ResourceVector demand,
                                       SimDuration nominal_time, ServiceClass cls,
                                       ResourceIntensity intensity) {
  VMLP_CHECK_MSG(!find_service(name).has_value(), "duplicate service name '" << name << "'");
  VMLP_CHECK_MSG(cls.valid(), "invalid class terms for service '" << name << "'");
  VMLP_CHECK_MSG(nominal_time > 0, "service '" << name << "' needs a positive nominal time");
  VMLP_CHECK_MSG(!demand.any_negative() && !demand.near_zero(),
                 "service '" << name << "' needs a demand vector");
  const ServiceTypeId id(static_cast<std::uint32_t>(services_.size()));
  services_.push_back(MicroserviceType{id, name, demand, nominal_time, cls, intensity});
  return id;
}

RequestTypeBuilder Application::build_request(const std::string& name) {
  VMLP_CHECK_MSG(!find_request(name).has_value(), "duplicate request name '" << name << "'");
  return RequestTypeBuilder(*this, name);
}

RequestTypeId Application::commit_request(RequestTypeBuilder& builder) {
  const RequestTypeId id(static_cast<std::uint32_t>(requests_.size()));
  Dag dag(builder.nodes_.size());
  for (const auto& [from, to] : builder.edges_) dag.add_edge(from, to);

  // Derive the SLO from the contention-free critical path.
  RequestType probe(id, builder.name_, builder.nodes_, dag, 1);
  requests_.push_back(std::move(probe));
  const SimDuration nominal = nominal_e2e(id, kSloEdgeComm);
  requests_.pop_back();
  const auto slo =
      static_cast<SimDuration>(std::llround(static_cast<double>(nominal) * kSloFactor));
  requests_.emplace_back(id, builder.name_, std::move(builder.nodes_), std::move(dag), slo);
  return id;
}

const RequestType& Application::request(RequestTypeId id) const {
  VMLP_CHECK_MSG(id.valid() && id.value() < requests_.size(),
                 "unknown request type id " << id.value());
  return requests_[id.value()];
}

std::optional<ServiceTypeId> Application::find_service(const std::string& name) const {
  for (const auto& s : services_) {
    if (s.name == name) return s.id;
  }
  return std::nullopt;
}

std::optional<RequestTypeId> Application::find_request(const std::string& name) const {
  for (const auto& r : requests_) {
    if (r.name() == name) return r.id();
  }
  return std::nullopt;
}

double Application::volatility(RequestTypeId id) const {
  const RequestType& rt = request(id);
  std::vector<ServiceClass> classes;
  classes.reserve(rt.size());
  for (const auto& node : rt.nodes()) classes.push_back(service(node.service).cls);
  return request_volatility(classes);
}

VolatilityBand Application::band(RequestTypeId id) const {
  return volatility_band(volatility(id));
}

SimDuration Application::nominal_e2e(RequestTypeId id, SimDuration edge_comm) const {
  const RequestType& rt = request(id);
  const auto order = rt.dag().topo_order();
  std::vector<double> finish(rt.size(), 0.0);
  for (std::size_t node : order) {
    double start = 0.0;
    for (std::size_t parent : rt.dag().parents(node)) {
      start = std::max(start, finish[parent] + static_cast<double>(edge_comm));
    }
    const auto& n = rt.nodes()[node];
    finish[node] = start + static_cast<double>(service(n.service).nominal_time) * n.time_scale;
  }
  return static_cast<SimDuration>(std::llround(*std::max_element(finish.begin(), finish.end())));
}

}  // namespace vmlp::app
