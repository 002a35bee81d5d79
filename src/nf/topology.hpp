// Topology: owns sources, NF instances and the sink; wires routing and
// delivery; exposes the static DAG (who can send to whom) that trace
// reconstruction and diagnosis rely on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "collector/collector.hpp"
#include "nf/nf.hpp"
#include "nf/nf_types.hpp"
#include "nf/source.hpp"
#include "sim/simulator.hpp"

namespace microscope::nf {

enum class NodeKind : std::uint8_t { kSource, kNf, kSink };

/// Ground-truth record of a packet reaching the sink (end of the NF graph).
struct Delivery {
  std::uint64_t uid;
  std::uint32_t tag;
  FiveTuple flow;  // flow as seen at the sink (post-NAT)
  TimeNs source_time;
  TimeNs arrival;
};

class Topology : public Network {
 public:
  struct Options {
    DurationNs prop_delay = 1_us;
    /// Retain per-packet sink deliveries (ground-truth latencies).
    bool keep_deliveries = true;
  };

  Topology(sim::Simulator& sim, collector::Collector* collector);
  Topology(sim::Simulator& sim, collector::Collector* collector, Options opts);

  // --- construction ---
  TrafficSource& add_source(const std::string& name);
  Nat& add_nat(NfConfig cfg, std::uint32_t public_ip);
  Firewall& add_firewall(NfConfig cfg, std::vector<FwRule> rules,
                         DurationNs per_rule_ns = 0);
  Monitor& add_monitor(NfConfig cfg);
  Vpn& add_vpn(NfConfig cfg, DurationNs per_byte_ns = 2);
  LoadBalancerNf& add_load_balancer(NfConfig cfg, std::vector<NodeId> targets);
  RateLimiterNf& add_rate_limiter(NfConfig cfg, double rate_mpps,
                                  std::size_t bucket_depth = 32);
  SwitchNf& add_switch(NfConfig cfg);

  /// Declare that `from` may send packets to `to` (static DAG edge). Sink
  /// edges are implicit. Reconstruction uses these as candidate upstreams.
  void add_edge(NodeId from, NodeId to);

  // --- access ---
  sim::Simulator& simulator() { return *sim_; }
  NodeId sink_id() const { return kSinkId; }
  std::size_t node_count() const { return kinds_.size(); }
  NodeKind kind(NodeId id) const { return kinds_.at(id); }
  const std::string& name(NodeId id) const { return names_.at(id); }
  bool is_nf(NodeId id) const {
    return id < kinds_.size() && kinds_[id] == NodeKind::kNf;
  }

  NfInstance& nf(NodeId id);
  const NfInstance& nf(NodeId id) const;
  TrafficSource& source(NodeId id);

  /// All NF node ids, in creation order.
  std::vector<NodeId> nf_ids() const;
  /// All source node ids, in creation order.
  std::vector<NodeId> source_ids() const;

  /// Nodes with a declared edge into `id` (sources and NFs).
  const std::vector<NodeId>& upstreams_of(NodeId id) const;
  /// Nodes `id` has a declared edge to.
  const std::vector<NodeId>& downstreams_of(NodeId id) const;

  const std::vector<Delivery>& deliveries() const { return deliveries_; }
  const Options& options() const { return opts_; }

  // Network:
  void deliver(NodeId from, NodeId to, TimeNs when,
               std::vector<Packet> batch) override;

  /// Peak rates of every NF keyed by node id (for the diagnoser).
  std::vector<RatePerNs> peak_rates() const;

 private:
  static constexpr NodeId kSinkId = 0;

  NodeId new_node(NodeKind kind, const std::string& name);
  template <typename T, typename... Args>
  T& add_nf_impl(NfConfig cfg, Args&&... args);

  sim::Simulator* sim_;
  collector::Collector* collector_;
  Options opts_;

  std::vector<NodeKind> kinds_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<NfInstance>> nfs_;       // index by node id
  std::vector<std::unique_ptr<TrafficSource>> sources_;  // index by node id
  std::vector<std::vector<NodeId>> upstreams_;
  std::vector<std::vector<NodeId>> downstreams_;

  std::vector<Delivery> deliveries_;
};

/// Flow-level load balancing router: hash(flow, salt) % targets.
Router make_lb_router(std::vector<NodeId> targets, std::uint64_t salt);

}  // namespace microscope::nf
