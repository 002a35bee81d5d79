// Integration tests for trace reconstruction: journeys and timelines built
// from a live simulated dataplane are verified against the simulator's
// hidden ground truth (uids), which the reconstruction never reads.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "eval/scenarios.hpp"
#include "nf/inject.hpp"
#include "nf/traffic.hpp"
#include "sim/simulator.hpp"
#include "trace/graph.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::trace {
namespace {

struct SingleNfRun {
  sim::Simulator sim;
  collector::Collector col;
  eval::SingleNf net;
  ReconstructedTrace rt;

  explicit SingleNfRun(std::vector<nf::SourcePacket> traffic, TimeNs until = 100_ms,
               DurationNs service = 700)
      : net(eval::build_single_firewall(sim, &col, service)),
        rt(GraphView{}, {}) {
    net.topo->source(net.source).load(std::move(traffic));
    sim.run_until(until);
    ReconstructOptions ropt;
    ropt.prop_delay = net.topo->options().prop_delay;
    rt = reconstruct(col, graph_view(*net.topo), ropt);
  }
};

FiveTuple flow_n(int n) {
  return {make_ipv4(10, 0, 0, static_cast<std::uint32_t>(n)),
          make_ipv4(20, 0, 0, 1), static_cast<std::uint16_t>(1000 + n), 80, 6};
}

TEST(Reconstruct, DeliveredJourneysMatchGroundTruth) {
  nf::CaidaLikeOptions opts;
  opts.duration = 20_ms;
  opts.rate_mpps = 0.8;
  opts.num_flows = 200;
  SingleNfRun run(nf::generate_caida_like(opts));

  const auto& deliveries = run.net.topo->deliveries();
  ASSERT_GT(deliveries.size(), 10000u);

  std::size_t delivered = 0;
  for (const Journey& j : run.rt.journeys()) {
    if (j.fate != Fate::kDelivered) continue;
    ++delivered;
    ASSERT_TRUE(j.complete());
    ASSERT_EQ(j.hops.size(), 1u);
    EXPECT_EQ(j.hops[0].node, run.net.nf);
    EXPECT_LE(j.hops[0].arrival, j.hops[0].read);
    EXPECT_LE(j.hops[0].read, j.hops[0].depart);
    EXPECT_GT(j.e2e_latency(), 0);
  }
  EXPECT_EQ(delivered, deliveries.size());

  // Cross-check flows against the sink's ground truth per uid.
  std::unordered_map<std::uint64_t, FiveTuple> truth;
  for (const nf::Delivery& d : deliveries) truth[d.uid] = d.flow;
  // Reconstruction's source-side flows: match via collector sidecar.
  const auto& src_trace = run.col.node(run.net.source);
  std::size_t checked = 0;
  for (const Journey& j : run.rt.journeys()) {
    if (j.fate != Fate::kDelivered) continue;
    const std::uint64_t uid = src_trace.tx_uids.at(j.source_idx);
    const auto it = truth.find(uid);
    ASSERT_NE(it, truth.end());
    EXPECT_EQ(j.flow, it->second);  // firewall does not rewrite flows
    if (++checked > 2000) break;
  }
}

TEST(Reconstruct, QueueOverflowProducesDropJourneys) {
  // A hard burst into a 1024-slot queue at ~8 Mpps vs ~1.4 Mpps drain.
  auto traffic = nf::generate_constant_rate(flow_n(1), 1_ms, 1_ms, 8.0);
  SingleNfRun run(std::move(traffic));

  const std::uint64_t drops = run.net.topo->nf(run.net.nf).input_drops();
  ASSERT_GT(drops, 100u);

  std::size_t drop_journeys = 0;
  for (const Journey& j : run.rt.journeys()) {
    if (j.fate != Fate::kDroppedQueue) continue;
    ++drop_journeys;
    EXPECT_EQ(j.end_node, run.net.nf);
    ASSERT_FALSE(j.hops.empty());
    EXPECT_EQ(j.hops.back().rx_idx, kNoEntry);  // never read
  }
  // Drop inference is deadline-based for trailing packets; allow slack.
  EXPECT_NEAR(static_cast<double>(drop_journeys), static_cast<double>(drops),
              static_cast<double>(drops) * 0.05 + 5.0);
}

TEST(Reconstruct, DroppedHopReportsNoLatencyInsteadOfZero) {
  // Regression: Hop::latency() used to return 0 for packets that died at a
  // node (depart == kTimeNever), silently conflating "dropped" with "no
  // latency". It now returns nullopt, guarded by has_latency().
  auto traffic = nf::generate_constant_rate(flow_n(1), 1_ms, 1_ms, 8.0);
  SingleNfRun run(std::move(traffic));

  std::size_t dead_hops = 0, live_hops = 0;
  for (const Journey& j : run.rt.journeys()) {
    for (const Hop& h : j.hops) {
      if (h.depart == kTimeNever) {
        ++dead_hops;
        EXPECT_FALSE(h.has_latency());
        EXPECT_EQ(h.latency(), std::nullopt);
      } else {
        ++live_hops;
        ASSERT_TRUE(h.has_latency());
        // A real hop's latency is positive — distinguishable from the old
        // sentinel 0 that drops used to masquerade as.
        EXPECT_GT(*h.latency(), 0);
        EXPECT_EQ(*h.latency(), h.depart - h.arrival);
      }
    }
  }
  EXPECT_GT(dead_hops, 100u);  // the burst overflowed the queue
  EXPECT_GT(live_hops, 100u);
}

TEST(Reconstruct, PolicyDropsProduceJourneys) {
  // Firewall with a drop rule: flows to port 23 are consumed.
  nf::FwRule drop;
  drop.match.dst_port_lo = 23;
  drop.match.dst_port_hi = 23;
  drop.action = nf::FwAction::kDrop;

  sim::Simulator sim2;
  collector::Collector col2;
  nf::Topology topo(sim2, &col2);
  auto& src = topo.add_source("s");
  nf::NfConfig cfg;
  cfg.name = "fw1";
  cfg.base_service_ns = 500;
  cfg.record_full_flow = true;
  auto& fw2 = topo.add_firewall(cfg, {drop}, 0);
  src.set_router([id = fw2.id()](const Packet&) { return id; });
  fw2.set_vpn_router([sink = topo.sink_id()](const Packet&) { return sink; });
  fw2.set_monitor_router(
      [sink = topo.sink_id()](const Packet&) { return sink; });
  topo.add_edge(src.id(), fw2.id());
  topo.add_edge(fw2.id(), topo.sink_id());

  FiveTuple telnet = flow_n(1);
  telnet.dst_port = 23;
  auto traffic = nf::generate_constant_rate(flow_n(2), 0, 2_ms, 0.2);
  traffic = nf::merge_traces(
      std::move(traffic), nf::generate_constant_rate(telnet, 0, 2_ms, 0.1));
  src.load(std::move(traffic));
  sim2.run_until(10_ms);

  const auto rt = reconstruct(col2, graph_view(topo), {});
  std::size_t policy = 0, delivered = 0;
  for (const Journey& j : rt.journeys()) {
    if (j.fate == Fate::kDroppedPolicy) {
      ++policy;
      EXPECT_EQ(j.end_node, fw2.id());
      EXPECT_TRUE(j.complete());
      EXPECT_EQ(j.flow.dst_port, 23);
    } else if (j.fate == Fate::kDelivered) {
      ++delivered;
      EXPECT_NE(j.flow.dst_port, 23);
    }
  }
  EXPECT_EQ(policy, fw2.policy_drops());
  EXPECT_EQ(delivered, 400u);
}

TEST(Reconstruct, TimelineCountsAndShortBatches) {
  nf::CaidaLikeOptions opts;
  opts.duration = 5_ms;
  opts.rate_mpps = 0.5;
  SingleNfRun run(nf::generate_caida_like(opts));

  const NodeTimeline& tl = run.rt.timeline(run.net.nf);
  ASSERT_FALSE(tl.arrivals.empty());
  ASSERT_FALSE(tl.reads.empty());

  // Arrival count equals packets emitted by the source.
  EXPECT_EQ(tl.arrivals.size(), run.net.topo->source(run.net.source).emitted());
  // Arrivals sorted by time.
  for (std::size_t i = 1; i < tl.arrivals.size(); ++i)
    EXPECT_GE(tl.arrivals[i].t, tl.arrivals[i - 1].t);
  // Total reads == total packets read == arrivals (no drops at 0.5 Mpps).
  EXPECT_EQ(tl.reads_cum.back(), tl.arrivals.size());
  // At 0.5 Mpps vs 1.4 Mpps peak, most reads are short batches.
  std::size_t shorts = 0;
  for (const auto& r : tl.reads)
    if (r.short_batch) ++shorts;
  EXPECT_GT(shorts * 2, tl.reads.size());

  // Interval queries agree with brute force.
  const TimeNs t0 = 1_ms, t1 = 3_ms;
  std::uint64_t brute = 0;
  for (const auto& a : tl.arrivals) brute += (a.t > t0 && a.t <= t1);
  EXPECT_EQ(tl.arrivals_in(t0, t1), brute);
  std::uint64_t brute_reads = 0;
  for (const auto& r : tl.reads)
    if (r.ts > t0 && r.ts <= t1) brute_reads += r.count;
  EXPECT_EQ(tl.reads_in(t0, t1), brute_reads);
}

TEST(Reconstruct, JourneyOfRxRoundTrips) {
  // An arrival's journey and consumer, read through its upstream's tx
  // lanes, against the journeys themselves on the Fig-10 multi-hop trace
  // with a NAT stalled long enough to overflow its queue. Every hop of a
  // journey at an NF is exactly one arrival there, with that journey and
  // the hop's rx entry as consumer (none for a queue-drop pseudo-hop); and
  // every arrival that has a journey is a hop of it.
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig10(sim, &col);
  nf::CaidaLikeOptions opts;
  opts.duration = 10_ms;
  opts.rate_mpps = 1.0;
  opts.num_flows = 300;
  net.topo->source(net.source).load(nf::generate_caida_like(opts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nats[0]), 3_ms, 6_ms, log);
  sim.run_until(30_ms);
  ReconstructOptions ropt;
  ropt.prop_delay = net.topo->options().prop_delay;
  const auto rt = reconstruct(col, graph_view(*net.topo), ropt);

  // (node, upstream, upstream tx entry) -> the arrivals with that key.
  std::map<std::tuple<NodeId, NodeId, std::uint32_t>, std::vector<Arrival>>
      arrivals;
  for (NodeId d = 0; d < rt.graph().node_count(); ++d)
    for (const Arrival& a : rt.timeline(d).arrivals)
      arrivals[{d, a.from, a.up_tx_idx}].push_back(a);

  std::size_t hops = 0, drops = 0;
  for (std::uint32_t jid = 0; jid < rt.journeys().size(); ++jid) {
    const Journey& j = rt.journey(jid);
    for (std::size_t k = 0; k < j.hops.size(); ++k) {
      const Hop& h = j.hops[k];
      if (k == 0 && !j.complete()) continue;  // no known upstream entry
      const NodeId up = k == 0 ? j.source : j.hops[k - 1].node;
      const std::uint32_t up_tx = k == 0 ? j.source_idx : j.hops[k - 1].tx_idx;
      const auto it = arrivals.find({h.node, up, up_tx});
      ASSERT_NE(it, arrivals.end()) << "journey " << jid << " hop " << k;
      ASSERT_EQ(it->second.size(), 1u) << "journey " << jid << " hop " << k;
      const Arrival& a = it->second.front();
      EXPECT_EQ(a.t, h.arrival) << "journey " << jid << " hop " << k;
      EXPECT_EQ(rt.journey_of(a), jid) << "journey " << jid << " hop " << k;
      EXPECT_EQ(rt.consumer_of(a), h.rx_idx)
          << "journey " << jid << " hop " << k;
      ++hops;
      if (h.rx_idx == kNoEntry) {
        EXPECT_FALSE(rt.accepted(a));
        ++drops;
      }
    }
  }
  EXPECT_GT(hops, 10000u);
  EXPECT_GT(drops, 100u);

  std::size_t with_journey = 0;
  for (const auto& [key, as] : arrivals) {
    const auto [d, up, up_tx] = key;
    for (const Arrival& a : as) {
      const std::uint32_t jid = rt.journey_of(a);
      if (jid == kNoJourney) continue;
      ++with_journey;
      const Journey& j = rt.journey(jid);
      bool found = false;
      for (std::size_t k = 0; k < j.hops.size() && !found; ++k) {
        const NodeId hop_up = k == 0 ? j.source : j.hops[k - 1].node;
        const std::uint32_t hop_tx =
            k == 0 ? j.source_idx : j.hops[k - 1].tx_idx;
        found = j.hops[k].node == d && hop_up == up && hop_tx == up_tx;
      }
      EXPECT_TRUE(found) << "arrival at node " << d << " from " << up
                         << " entry " << up_tx << " journey " << jid;
    }
  }
  EXPECT_EQ(with_journey, hops);
}

TEST(Reconstruct, MultiHopFig10JourneysConsistent) {
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig10(sim, &col);
  nf::CaidaLikeOptions opts;
  opts.duration = 10_ms;
  opts.rate_mpps = 1.0;
  opts.num_flows = 300;
  net.topo->source(net.source).load(nf::generate_caida_like(opts));
  sim.run_until(30_ms);

  ReconstructOptions ropt;
  ropt.prop_delay = net.topo->options().prop_delay;
  const auto rt = reconstruct(col, graph_view(*net.topo), ropt);

  EXPECT_EQ(rt.align_stats().link_unmatched, 0u);
  std::size_t delivered = 0, monitored = 0;
  for (const Journey& j : rt.journeys()) {
    if (j.fate != Fate::kDelivered) continue;
    ++delivered;
    ASSERT_TRUE(j.complete());
    // Path shape: NAT -> FW -> (MON ->)? VPN.
    ASSERT_GE(j.hops.size(), 3u);
    ASSERT_LE(j.hops.size(), 4u);
    if (j.hops.size() == 4) ++monitored;
    // Times strictly ordered along the path.
    TimeNs prev = j.source_time;
    for (const Hop& h : j.hops) {
      EXPECT_GE(h.arrival, prev);
      EXPECT_GE(h.read, h.arrival);
      EXPECT_GE(h.depart, h.read);
      prev = h.depart;
    }
    // NAT rewrote the flow: edge flow differs in source fields.
    EXPECT_EQ(j.edge_flow.dst_ip, j.flow.dst_ip);
    EXPECT_NE(j.edge_flow.src_ip, j.flow.src_ip);
  }
  EXPECT_EQ(delivered, net.topo->deliveries().size());
  // Some flows hit the monitored ports (80/53/22).
  EXPECT_GT(monitored, 0u);
  EXPECT_LT(monitored, delivered);
}

}  // namespace
}  // namespace microscope::trace
