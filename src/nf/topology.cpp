#include "nf/topology.hpp"

#include <stdexcept>

namespace microscope::nf {

Topology::Topology(sim::Simulator& sim, collector::Collector* collector)
    : Topology(sim, collector, Options{}) {}

Topology::Topology(sim::Simulator& sim, collector::Collector* collector,
                   Options opts)
    : sim_(&sim), collector_(collector), opts_(opts) {
  // Node 0 is always the sink.
  const NodeId sink = new_node(NodeKind::kSink, "sink");
  (void)sink;
}

NodeId Topology::new_node(NodeKind kind, const std::string& name) {
  const NodeId id = static_cast<NodeId>(kinds_.size());
  kinds_.push_back(kind);
  names_.push_back(name);
  nfs_.emplace_back(nullptr);
  sources_.emplace_back(nullptr);
  upstreams_.emplace_back();
  downstreams_.emplace_back();
  return id;
}

TrafficSource& Topology::add_source(const std::string& name) {
  const NodeId id = new_node(NodeKind::kSource, name);
  auto src = std::make_unique<TrafficSource>(*sim_, id, name, collector_);
  src->set_network(this);
  src->set_prop_delay(opts_.prop_delay);
  sources_[id] = std::move(src);
  return *sources_[id];
}

template <typename T, typename... Args>
T& Topology::add_nf_impl(NfConfig cfg, Args&&... args) {
  const NodeId id = new_node(NodeKind::kNf, cfg.name);
  auto inst = std::make_unique<T>(*sim_, id, std::move(cfg), collector_,
                                  std::forward<Args>(args)...);
  inst->set_network(this);
  inst->set_prop_delay(opts_.prop_delay);
  T& ref = *inst;
  nfs_[id] = std::move(inst);
  return ref;
}

Nat& Topology::add_nat(NfConfig cfg, std::uint32_t public_ip) {
  return add_nf_impl<Nat>(std::move(cfg), public_ip);
}

Firewall& Topology::add_firewall(NfConfig cfg, std::vector<FwRule> rules,
                                 DurationNs per_rule_ns) {
  return add_nf_impl<Firewall>(std::move(cfg), std::move(rules), per_rule_ns);
}

Monitor& Topology::add_monitor(NfConfig cfg) {
  return add_nf_impl<Monitor>(std::move(cfg));
}

Vpn& Topology::add_vpn(NfConfig cfg, DurationNs per_byte_ns) {
  return add_nf_impl<Vpn>(std::move(cfg), per_byte_ns);
}

LoadBalancerNf& Topology::add_load_balancer(NfConfig cfg,
                                            std::vector<NodeId> targets) {
  return add_nf_impl<LoadBalancerNf>(std::move(cfg), std::move(targets));
}

RateLimiterNf& Topology::add_rate_limiter(NfConfig cfg, double rate_mpps,
                                          std::size_t bucket_depth) {
  return add_nf_impl<RateLimiterNf>(std::move(cfg), rate_mpps, bucket_depth);
}

SwitchNf& Topology::add_switch(NfConfig cfg) {
  return add_nf_impl<SwitchNf>(std::move(cfg));
}

void Topology::add_edge(NodeId from, NodeId to) {
  if (from >= kinds_.size() || to >= kinds_.size())
    throw std::out_of_range("add_edge: unknown node");
  downstreams_[from].push_back(to);
  if (to != kSinkId) upstreams_[to].push_back(from);
}

NfInstance& Topology::nf(NodeId id) {
  if (!is_nf(id) || !nfs_[id]) throw std::out_of_range("nf(): not an NF");
  return *nfs_[id];
}

const NfInstance& Topology::nf(NodeId id) const {
  if (id >= kinds_.size() || kinds_[id] != NodeKind::kNf || !nfs_[id])
    throw std::out_of_range("nf(): not an NF");
  return *nfs_[id];
}

TrafficSource& Topology::source(NodeId id) {
  if (id >= kinds_.size() || kinds_[id] != NodeKind::kSource || !sources_[id])
    throw std::out_of_range("source(): not a source");
  return *sources_[id];
}

std::vector<NodeId> Topology::nf_ids() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < kinds_.size(); ++id)
    if (kinds_[id] == NodeKind::kNf) out.push_back(id);
  return out;
}

std::vector<NodeId> Topology::source_ids() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < kinds_.size(); ++id)
    if (kinds_[id] == NodeKind::kSource) out.push_back(id);
  return out;
}

const std::vector<NodeId>& Topology::upstreams_of(NodeId id) const {
  return upstreams_.at(id);
}

const std::vector<NodeId>& Topology::downstreams_of(NodeId id) const {
  return downstreams_.at(id);
}

void Topology::deliver(NodeId from, NodeId to, TimeNs when,
                       std::vector<Packet> batch) {
  (void)from;
  if (to == kSinkId) {
    sim_->schedule_at(when, [this, batch = std::move(batch)] {
      if (!opts_.keep_deliveries) return;
      for (const Packet& p : batch) {
        deliveries_.push_back(
            {p.uid, p.injection_tag, p.flow, p.source_time, sim_->now()});
      }
    });
    return;
  }
  if (!is_nf(to)) throw std::logic_error("deliver: destination is not an NF");
  sim_->schedule_at(when, [this, to, batch = std::move(batch)] {
    NfInstance& dest = *nfs_[to];
    for (const Packet& p : batch) dest.enqueue(p);
  });
}

std::vector<RatePerNs> Topology::peak_rates() const {
  std::vector<RatePerNs> rates(kinds_.size());
  for (NodeId id = 0; id < kinds_.size(); ++id) {
    if (kinds_[id] == NodeKind::kNf && nfs_[id])
      rates[id] = nfs_[id]->peak_rate();
  }
  return rates;
}

Router make_lb_router(std::vector<NodeId> targets, std::uint64_t salt) {
  if (targets.empty()) throw std::invalid_argument("lb router: no targets");
  return [targets = std::move(targets), salt](const Packet& p) {
    std::uint64_t h = flow_hash(p.flow) ^ (salt * 0x9E3779B97F4A7C15ULL);
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return targets[h % targets.size()];
  };
}

}  // namespace microscope::nf
