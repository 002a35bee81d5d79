// Online streaming diagnosis: the headline property is that concatenating
// the closed-window diagnoses of the streaming engine reproduces, byte for
// byte, the offline Diagnoser's output restricted to those windows — for
// any window size, thread count, and drain-chunk granularity, replayed in
// memory or tailed from a stream file (modulo victim.journey, a
// reconstruction-instance-local id) — and that the engine's persistent
// reconstruction equals the offline one entry for entry wherever it has
// committed. Plus: bounded memory and flat per-window work over long
// streams, idle-node timeouts, late-record and backpressure drop
// accounting, ring draining, the stream store's lanes against a plain
// collector, collector counters left alone by the engine, and the live
// aggregator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <tuple>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "collector/file.hpp"
#include "collector/ring.hpp"
#include "core/diagnosis.hpp"
#include "eval/scenarios.hpp"
#include "nf/generate.hpp"
#include "nf/inject.hpp"
#include "nf/nf_types.hpp"
#include "nf/traffic.hpp"
#include "obs/metrics.hpp"
#include "online/aggregator.hpp"
#include "online/engine.hpp"
#include "online/replay.hpp"
#include "online/window.hpp"
#include "sim/simulator.hpp"
#include "trace/graph.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::online {
namespace {

using core::Diagnosis;
using core::Victim;

struct Scenario {
  collector::Collector col;
  trace::GraphView graph;
  DurationNs prop_delay{0};
  std::vector<RatePerNs> rates;
};

Scenario make_fig10_scenario() {
  Scenario s;
  sim::Simulator sim;
  auto net = eval::build_fig10(sim, &s.col);
  nf::CaidaLikeOptions topts;
  topts.duration = 10_ms;
  topts.rate_mpps = 1.0;
  topts.num_flows = 300;
  net.topo->source(net.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nats[0]), 4_ms, 600_us, log);
  sim.run_until(24_ms);
  s.graph = trace::graph_view(*net.topo);
  s.prop_delay = net.topo->options().prop_delay;
  s.rates = net.topo->peak_rates();
  return s;
}

Scenario make_fig2_scenario() {
  Scenario s;
  sim::Simulator sim;
  auto net = eval::build_fig2(sim, &s.col);
  nf::CaidaLikeOptions topts;
  topts.duration = 20_ms;
  topts.rate_mpps = 0.7;
  topts.seed = 3;
  net.topo->source(net.caida_source).load(nf::generate_caida_like(topts));
  const FiveTuple flow_a{make_ipv4(10, 0, 1, 1), make_ipv4(20, 0, 1, 1), 4242,
                         443, 6};
  net.topo->source(net.flow_a_source)
      .load(nf::generate_constant_rate(flow_a, 0, 20_ms, 0.05));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nat), 8_ms, 800_us, log);
  sim.run_until(35_ms);
  s.graph = trace::graph_view(*net.topo);
  s.prop_delay = net.topo->options().prop_delay;
  s.rates = net.topo->peak_rates();
  return s;
}

Scenario make_single_fw_scenario(DurationNs duration, double rate_mpps) {
  Scenario s;
  sim::Simulator sim;
  auto net = eval::build_single_firewall(sim, &s.col);
  nf::CaidaLikeOptions topts;
  topts.duration = duration;
  topts.rate_mpps = rate_mpps;
  topts.num_flows = 120;
  net.topo->source(net.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nf), duration / 3, 400_us, log);
  sim.run_until(duration + 15_ms);
  s.graph = trace::graph_view(*net.topo);
  s.prop_delay = net.topo->options().prop_delay;
  s.rates = net.topo->peak_rates();
  return s;
}

OnlineOptions base_options(const Scenario& s, DurationNs window,
                           unsigned threads, DurationNs threshold) {
  OnlineOptions oopt;
  oopt.window_ns = window;
  oopt.slack_ns = 5_ms;
  oopt.latency_threshold = threshold;
  oopt.diagnoser.max_depth = 5;
  oopt.diagnoser.period.max_lookback = 3_ms;
  oopt.reconstruct.prop_delay = s.prop_delay;
  oopt.threads = threads;
  return oopt;
}

Diagnosis normalized(Diagnosis d) {
  d.victim.journey = 0;  // reconstruction-instance-local bookkeeping
  return d;
}

/// The offline golden restricted to the closed windows, compared against
/// the concatenated online output.
void expect_windows_match_offline(const Scenario& s, const OnlineOptions& oopt,
                                  const std::vector<WindowResult>& windows,
                                  const std::string& label) {
  ASSERT_FALSE(windows.empty()) << label;
  for (std::size_t i = 1; i < windows.size(); ++i)
    EXPECT_EQ(windows[i].index, windows[i - 1].index + 1) << label;

  const trace::ReconstructedTrace rt =
      trace::reconstruct(s.col, s.graph, oopt.reconstruct);
  const core::Diagnoser diag(rt, s.rates, oopt.diagnoser);
  std::vector<Victim> lat, drp;
  if (oopt.diagnose_latency)
    lat = diag.latency_victims_by_threshold(oopt.latency_threshold);
  if (oopt.diagnose_drops) drp = diag.drop_victims();
  ASSERT_FALSE(lat.empty() && drp.empty()) << label;

  std::size_t covered = 0;
  std::vector<Diagnosis> got, golden;
  for (const WindowResult& w : windows) {
    std::vector<Victim> wv;
    const auto in_window = [&](const Victim& v) {
      return v.time >= w.start && v.time < w.end;
    };
    for (const Victim& v : lat)
      if (in_window(v)) wv.push_back(v);
    for (const Victim& v : drp)
      if (in_window(v)) wv.push_back(v);
    covered += wv.size();
    for (Diagnosis& d : diag.diagnose_all(wv)) golden.push_back(std::move(d));
    for (const Diagnosis& d : w.diagnoses) got.push_back(d);
  }
  // Every offline victim falls inside exactly one closed window.
  EXPECT_EQ(covered, lat.size() + drp.size()) << label;

  ASSERT_EQ(got.size(), golden.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(normalized(got[i]), normalized(golden[i]))
        << label << " diagnosis " << i;
}

void check_equivalence_matrix(const Scenario& s, DurationNs threshold) {
  // Byte-fed leg: the same records as a framed v2 stream file, tailed and
  // wire-decoded in fixed chunks.
  const std::string path = "test_online_matrix.trace";
  collector::save_trace_stream(s.col, path);
  for (const DurationNs window : {2_ms, 5_ms, 10_ms}) {
    for (const unsigned threads : {1u, 4u}) {
      const OnlineOptions oopt = base_options(s, window, threads, threshold);
      const std::string label = "window=" + std::to_string(window) +
                                " threads=" + std::to_string(threads);
      for (const std::size_t poll_every : {std::size_t{7}, std::size_t{256}}) {
        OnlineEngine eng(s.graph, s.rates, oopt);
        const auto windows = replay_collector(s.col, eng, poll_every);
        expect_windows_match_offline(
            s, oopt, windows, label + " chunk=" + std::to_string(poll_every));
      }
      OnlineEngine eng(s.graph, s.rates, oopt);
      TraceFileTailer tail(path, eng);
      expect_windows_match_offline(s, oopt, tail.drain_to_end(1 << 10),
                                   label + " file-tail");
      EXPECT_EQ(eng.stats().wire_decode_dropped, 0u) << label;
    }
  }
  std::remove(path.c_str());
}

TEST(Online, Fig10MultiHopMatchesOffline) {
  check_equivalence_matrix(make_fig10_scenario(), 100_us);
}

TEST(Online, Fig2PropagationMatchesOffline) {
  check_equivalence_matrix(make_fig2_scenario(), 60_us);
}

TEST(Online, MidStreamCutsWithBurstMatchOffline) {
  // A long high-rate stream with a traffic burst, diagnosed with a history
  // much shorter than the trace: later windows see only the state left
  // after evicting everything older than their reach, cut while packets
  // are in flight. Every window must still match offline byte for byte.
  Scenario s;
  {
    sim::Simulator sim;
    auto net = eval::build_fig10(sim, &s.col);
    nf::CaidaLikeOptions topts;
    topts.duration = 30_ms;
    topts.rate_mpps = 1.0;
    topts.num_flows = 600;
    auto traffic = nf::generate_caida_like(topts);
    const FiveTuple burst{make_ipv4(10, 66, 0, 1), make_ipv4(172, 31, 1, 1),
                          6060, 443, 6};
    nf::inject_burst(traffic, burst, 20_ms, 1000, 130, 1);
    net.topo->source(net.source).load(std::move(traffic));
    nf::InjectionLog log;
    nf::schedule_interrupt(sim, net.topo->nf(net.nats[1]), 8_ms, 700_us, log);
    sim.run_until(45_ms);
    s.graph = trace::graph_view(*net.topo);
    s.prop_delay = net.topo->options().prop_delay;
    s.rates = net.topo->peak_rates();
  }

  for (const unsigned threads : {1u, 4u}) {
    OnlineOptions oopt = base_options(s, 5_ms, threads, 200_us);
    oopt.diagnoser.period.max_lookback = 2_ms;
    OnlineEngine eng(s.graph, s.rates, oopt);
    // The derived history must be well short of the trace so that the later
    // windows (including the burst window) really do run after eviction.
    ASSERT_LT(eng.history_ns() + oopt.slack_ns, 25_ms);
    const auto windows = replay_collector(s.col, eng, 64);
    EXPECT_GE(windows.size(), 6u);
    expect_windows_match_offline(s, oopt, windows,
                                 "cut threads=" + std::to_string(threads));
  }
}

TEST(Online, DropVictimsMatchOffline) {
  // A queue-overflowing burst: drop victims must stream out identically.
  Scenario s;
  {
    sim::Simulator sim;
    auto net = eval::build_single_firewall(sim, &s.col);
    const FiveTuple f{make_ipv4(10, 0, 0, 1), make_ipv4(20, 0, 0, 1), 1001,
                      80, 6};
    net.topo->source(net.source)
        .load(nf::generate_constant_rate(f, 1_ms, 1_ms, 8.0));
    sim.run_until(100_ms);
    ASSERT_GT(net.topo->nf(net.nf).input_drops(), 100u);
    s.graph = trace::graph_view(*net.topo);
    s.prop_delay = net.topo->options().prop_delay;
    s.rates = net.topo->peak_rates();
  }
  OnlineOptions oopt = base_options(s, 2_ms, 1, 100_us);
  // Overflow queues wait far longer than the default slack.
  oopt.slack_ns = 30_ms;
  oopt.diagnose_drops = true;
  OnlineEngine eng(s.graph, s.rates, oopt);
  const auto windows = replay_collector(s.col, eng, 64);
  expect_windows_match_offline(s, oopt, windows, "drops");
}

/// A firewall that drops a quarter of its flows by policy and sends one
/// rare flow (a packet every ~1.5 ms) to a monitor, the rest to a VPN: its
/// policy drops stay undecided while the monitor stream has no record past
/// its cursor — the held-back case of the persistent reconstruction.
Scenario make_policy_drop_scenario() {
  Scenario s;
  sim::Simulator sim;
  auto topo = std::make_unique<nf::Topology>(sim, &s.col);
  const NodeId src = topo->add_source("src").id();
  const NodeId rare = topo->add_source("rare").id();
  nf::NfConfig cfg;
  cfg.name = "fw";
  cfg.base_service_ns = 600;
  cfg.record_full_flow = true;
  nf::FwRule to_monitor;
  to_monitor.match.dst = Ipv4Prefix::host(make_ipv4(192, 168, 7, 7));
  to_monitor.action = nf::FwAction::kToMonitor;
  nf::FwRule drop;
  drop.match.src_port_lo = 1024;
  drop.match.src_port_hi = 1024 + 16000;
  drop.action = nf::FwAction::kDrop;
  const NodeId fw = topo->add_firewall(cfg, {to_monitor, drop}, 0).id();
  nf::NfConfig mcfg;
  mcfg.name = "mon";
  mcfg.record_full_flow = true;
  const NodeId mon = topo->add_monitor(mcfg).id();
  nf::NfConfig vcfg;
  vcfg.name = "vpn";
  vcfg.record_full_flow = true;
  const NodeId vpn = topo->add_vpn(vcfg).id();
  const NodeId sink = topo->sink_id();
  topo->source(src).set_router([fw](const Packet&) { return fw; });
  topo->source(rare).set_router([fw](const Packet&) { return fw; });
  auto& f = dynamic_cast<nf::Firewall&>(topo->nf(fw));
  f.set_monitor_router([mon](const Packet&) { return mon; });
  f.set_vpn_router([vpn](const Packet&) { return vpn; });
  topo->nf(mon).set_router([sink](const Packet&) { return sink; });
  topo->nf(vpn).set_router([sink](const Packet&) { return sink; });
  topo->add_edge(src, fw);
  topo->add_edge(rare, fw);
  topo->add_edge(fw, mon);
  topo->add_edge(fw, vpn);
  topo->add_edge(mon, sink);
  topo->add_edge(vpn, sink);
  nf::CaidaLikeOptions topts;
  topts.duration = 40_ms;
  topts.rate_mpps = 0.8;
  topts.num_flows = 200;
  topts.seed = 5;
  topo->source(src).load(nf::generate_caida_like(topts));
  const FiveTuple rare_flow{make_ipv4(10, 9, 9, 9), make_ipv4(192, 168, 7, 7),
                            40000, 80, 6};
  topo->source(rare).load(
      nf::generate_constant_rate(rare_flow, 0, 40_ms, 0.00066));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, topo->nf(vpn), 15_ms, 500_us, log);
  sim.run_until(60_ms);
  s.graph = trace::graph_view(*topo);
  s.prop_delay = topo->options().prop_delay;
  s.rates = topo->peak_rates();
  return s;
}

Scenario make_dag200_scenario() {
  Scenario s;
  sim::Simulator sim;
  nf::TopologyGenOptions o;
  o.shape = nf::GenShape::kRandomDag;
  o.num_nfs = 200;
  o.layers = 10;
  o.max_fanout = 4;
  o.offered_rate_mpps = 0.8;
  o.seed = 7;
  auto g = nf::generate_topology(sim, &s.col, o);
  nf::CaidaLikeOptions topts;
  topts.duration = 10_ms;
  topts.rate_mpps = 0.8;
  topts.num_flows = 250;
  topts.seed = 9;
  g.topo->source(g.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, g.topo->nf(g.entry_nfs.front()), 4_ms, 500_us,
                         log);
  sim.run_until(30_ms);
  s.graph = trace::graph_view(*g.topo);
  s.prop_delay = g.topo->options().prop_delay;
  s.rates = g.topo->peak_rates();
  return s;
}

/// Counts of the committed state compared against offline.
struct LaneCheck {
  std::size_t rx{0};
  std::size_t tx{0};
  std::size_t journeys{0};
  std::size_t arrivals{0};
  /// Windows that closed with an internal-alignment decision older than
  /// their end still open (held back).
  std::size_t held{0};
  /// Windows after which some lane's numbering had moved (renumbered), the
  /// first of them, and the highest entry number the store held after any
  /// window.
  std::size_t renumberings{0};
  std::size_t first_renumbered{0};
  std::uint32_t highest{0};
  /// The lane offsets right after the numbering was moved, whether the
  /// records still to come would then carry some lane past 2^32 if nothing
  /// renumbered, and the lanes whose final offset is neither that one nor
  /// 0 (renumbered after eviction began).
  std::vector<std::array<std::uint32_t, 2>> jumped;
  bool would_wrap{false};
  std::size_t shifted{0};
};

/// Per node, online minus offline entry number (mod 2^32) of its rx and tx
/// lanes (indexed by collector::Direction).
using EntryOffsets = std::vector<std::array<std::uint32_t, 2>>;

/// The offsets of every lane the store holds a batch of: batch numbers are
/// never renumbered, so a held batch pairs its online entry number with
/// the offline one. Other lanes keep their previous offset.
void infer_offsets(const StreamStore& store, const collector::Collector& col,
                   EntryOffsets& offset) {
  const trace::RecordLanes lanes = store.lanes();
  for (NodeId id = 0; id < lanes.size() && id < offset.size(); ++id) {
    if (lanes[id].trace == nullptr || !col.has_node(id)) continue;
    for (const std::size_t dir : {std::size_t{0}, std::size_t{1}}) {
      const auto& got =
          dir == 0 ? lanes[id].trace->rx_batches : lanes[id].trace->tx_batches;
      const auto& want =
          dir == 0 ? col.node(id).rx_batches : col.node(id).tx_batches;
      if (got.empty()) continue;
      offset[id][dir] =
          lanes[id].entry_base[dir] + got.front().begin -
          want[static_cast<std::size_t>(lanes[id].batch_base[dir])].begin;
    }
  }
}

/// Whether some store lane, numbered on without renumbering, would pass
/// 2^32 before the records of `col` still to come are all added.
bool lane_would_wrap(const StreamStore& store,
                     const collector::Collector& col) {
  const trace::RecordLanes lanes = store.lanes();
  for (NodeId id = 0; id < lanes.size(); ++id) {
    if (lanes[id].trace == nullptr || !col.has_node(id)) continue;
    const collector::NodeTrace& got = *lanes[id].trace;
    const collector::NodeTrace& all = col.node(id);
    for (const std::size_t dir : {std::size_t{0}, std::size_t{1}}) {
      const auto& batches = dir == 0 ? got.rx_batches : got.tx_batches;
      const auto& want = dir == 0 ? all.rx_batches : all.tx_batches;
      const std::uint64_t held = dir == 0 ? got.rx_ipids.size()
                                          : got.tx_ipids.size();
      const std::uint64_t total = dir == 0 ? all.rx_ipids.size()
                                           : all.tx_ipids.size();
      if (batches.empty()) continue;
      const collector::BatchRecord& last = want[static_cast<std::size_t>(
          lanes[id].batch_base[dir] + batches.size() - 1)];
      const std::uint64_t to_come = total - (last.begin + last.count);
      if (lanes[id].entry_base[dir] + held + to_come > (std::uint64_t{1} << 32))
        return true;
    }
  }
  return false;
}

/// Every committed alignment entry, journey and arrival of the engine's
/// persistent reconstruction equals the offline reconstruction of the
/// whole trace at the same absolute index (and journeys by terminal), once
/// its entry numbers are moved back by `offset`.
void expect_committed_matches_offline(
    const trace::Reconstruction& on, const trace::Reconstruction& off,
    const EntryOffsets& offset, const std::string& label, LaneCheck& n) {
  using trace::NodeAlignment;
  using trace::kNoEntry;
  const trace::ReconstructedTrace& rt = on.trace();
  const trace::ReconstructedTrace& ot = off.trace();
  const trace::Aligner& al = on.aligner();
  // Online numbers in the offline numbering.
  const auto rx_of = [&](NodeId d, std::uint32_t j) {
    return j == kNoEntry ? j : j - offset[d][0];
  };
  const auto tx_of = [&](NodeId u, std::uint32_t e) {
    return e == kNoEntry ? e : e - offset[u][1];
  };
  const auto ref_of = [&](trace::TxRef r) {
    if (r.valid()) r.idx = tx_of(r.node, r.idx);
    return r;
  };
  const auto renumbered = [&](trace::Journey j) {
    if (j.source != kInvalidNode) j.source_idx = tx_of(j.source, j.source_idx);
    for (trace::Hop& h : j.hops) {
      h.rx_idx = rx_of(h.node, h.rx_idx);
      h.tx_idx = tx_of(h.node, h.tx_idx);
    }
    return j;
  };

  for (NodeId d = 0; d < rt.graph().node_count(); ++d) {
    const NodeAlignment& a = rt.alignments()[d];
    const NodeAlignment& o = ot.alignments()[d];
    for (std::uint32_t j = a.rx_base; j < a.rx_end(); ++j, ++n.rx) {
      const std::uint32_t oj = rx_of(d, j);
      ASSERT_LT(oj, o.rx_end()) << label;
      EXPECT_EQ(a.rx_entry_ts[j - a.rx_base], o.rx_entry_ts[oj]) << label;
      if (al.link_committed(d, j)) {
        EXPECT_EQ(ref_of(a.rx_origin[j - a.rx_base]), o.rx_origin[oj])
            << label << " node " << d << " rx " << oj;
      }
      if (al.internal_committed(d, j)) {
        EXPECT_EQ(tx_of(d, a.rx_to_tx[j - a.rx_base]), o.rx_to_tx[oj])
            << label << " node " << d << " rx " << oj;
      }
    }
    for (std::uint32_t e = a.tx_base; e < a.tx_end(); ++e, ++n.tx) {
      const std::uint32_t oe = tx_of(d, e);
      ASSERT_LT(oe, o.tx_end()) << label;
      EXPECT_EQ(a.tx_peer[e - a.tx_base], o.tx_peer[oe]) << label;
      if (al.claim_committed(d, e, a)) {
        EXPECT_EQ(rx_of(d, a.tx_to_rx[e - a.tx_base]), o.tx_to_rx[oe])
            << label << " node " << d << " tx " << oe;
      }
      if (al.fate_committed(d, e, a)) {
        EXPECT_EQ(a.tx_dropped_downstream[e - a.tx_base],
                  o.tx_dropped_downstream[oe])
            << label << " node " << d << " tx " << oe;
      }
    }
  }

  // Journeys by terminal.
  std::map<std::tuple<int, NodeId, std::uint32_t>, std::uint32_t> offline;
  for (const auto& t : off.committed_terminals())
    offline[{t.kind, t.node, t.entry}] = t.id;
  for (const auto& t : on.committed_terminals()) {
    const std::uint32_t entry =
        t.kind == 2 ? rx_of(t.node, t.entry) : tx_of(t.node, t.entry);
    const auto it = offline.find({t.kind, t.node, entry});
    ASSERT_NE(it, offline.end()) << label << " terminal kind " << t.kind
                                 << " node " << t.node << " entry " << entry;
    EXPECT_EQ(renumbered(rt.journey(t.id)), ot.journey(it->second))
        << label << " terminal kind " << t.kind << " node " << t.node
        << " entry " << entry;
    ++n.journeys;
  }

  // Arrivals at their place in the offline order, each with its upstream
  // entry live; consumers once decided, journeys once committed.
  for (NodeId d = 0; d < rt.graph().node_count(); ++d) {
    if (!rt.graph().is_nf(d)) continue;
    const std::vector<trace::Arrival>& got = rt.timeline(d).arrivals;
    const std::vector<trace::Arrival>& want = ot.timeline(d).arrivals;
    for (const trace::Arrival& ar : got) {
      const std::uint32_t up = tx_of(ar.from, ar.up_tx_idx);
      const auto it = std::lower_bound(
          want.begin(), want.end(), std::make_tuple(ar.t, ar.from, up),
          [](const trace::Arrival& x,
             const std::tuple<TimeNs, NodeId, std::uint32_t>& y) {
            return std::make_tuple(x.t, x.from, x.up_tx_idx) < y;
          });
      ASSERT_TRUE(it != want.end() && it->t == ar.t && it->from == ar.from &&
                  it->up_tx_idx == up)
          << label << " node " << d << " arrival from " << ar.from;
      const NodeAlignment& ua = rt.alignments()[ar.from];
      ASSERT_TRUE(ar.up_tx_idx >= ua.tx_base && ar.up_tx_idx < ua.tx_end())
          << label << " node " << d << " arrival from " << ar.from
          << " outlives its upstream entry " << up;
      if (al.fate_committed(ar.from, ar.up_tx_idx, ua)) {
        EXPECT_EQ(rx_of(d, rt.consumer_of(ar)), ot.consumer_of(*it))
            << label << " node " << d;
      }
      if (const std::uint32_t jid = rt.journey_of(ar);
          jid != trace::kNoJourney) {
        ASSERT_NE(ot.journey_of(*it), trace::kNoJourney)
            << label << " node " << d;
        EXPECT_EQ(renumbered(rt.journey(jid)), ot.journey(ot.journey_of(*it)))
            << label << " node " << d;
      }
      ++n.arrivals;
    }
    // Nothing committed is missing: the window's view has every offline
    // arrival between the oldest arrival held and the newest one.
    if (!got.empty()) {
      const auto lo = std::lower_bound(
          want.begin(), want.end(), got.front().t,
          [](const trace::Arrival& x, TimeNs t) { return x.t < t; });
      const auto hi = std::upper_bound(
          want.begin(), want.end(), got.back().t,
          [](TimeNs t, const trace::Arrival& x) { return t < x.t; });
      EXPECT_EQ(static_cast<std::size_t>(hi - lo), got.size())
          << label << " node " << d;
    }
  }
}

}  // namespace

/// Reaches into the engine to move its numbering.
struct EngineTestPeer {
  /// Renumber store and reconstruction together so that the highest
  /// number held is `top`.
  static void renumber_to_top(OnlineEngine& eng, std::uint32_t top) {
    eng.store_.renumber(eng.recon_.renumber(eng.store_.lanes()));
    const std::uint32_t end =
        std::max(eng.store_.entries_end(), eng.recon_.numbers_end());
    eng.store_.renumber(eng.recon_.renumber(eng.store_.lanes(), top - end));
  }
};

namespace {

/// Replays `s` through an engine, checking its committed state against
/// offline after every window, and its windows against offline at the
/// end. With `jump_after` > 0, after that many windows the engine's
/// numbering is moved so that its highest number is `top`.
LaneCheck check_lanes_against_offline(const Scenario& s, OnlineOptions oopt,
                                      const std::string& label,
                                      std::size_t jump_after = 0,
                                      std::uint32_t top = 0) {
  trace::Reconstruction off(s.graph, oopt.reconstruct);
  off.advance(trace::lanes_of(s.col), trace::Frontier{}, nullptr);

  OnlineEngine eng(s.graph, s.rates, oopt);
  EntryOffsets offset(s.graph.node_count(), {0, 0});
  LaneCheck n;
  std::size_t windows = 0;
  const auto check = [&](const WindowResult& w) {
    ++windows;
    const EntryOffsets before = offset;
    infer_offsets(eng.store(), s.col, offset);
    if (offset != before && ++n.renumberings == 1)
      n.first_renumbered = windows;
    n.highest = std::max(n.highest, eng.store().entries_end());
    const trace::Reconstruction& on = eng.reconstruction();
    const std::string at = label + " window " + std::to_string(windows);
    expect_committed_matches_offline(on, off, offset, at, n);
    // The store and the reconstruction erase what they evict at the same
    // horizon: every NF and source lane starts at the same entry in both.
    const trace::RecordLanes lanes = eng.store().lanes();
    for (NodeId d = 0; d < s.graph.node_count(); ++d) {
      if (!s.graph.is_nf(d) && !s.graph.is_source(d)) continue;
      ASSERT_LT(d, lanes.size()) << at;
      const trace::NodeAlignment& a = on.trace().alignments()[d];
      EXPECT_EQ(lanes[d].entry_base[1], a.tx_base) << at << " node " << d;
      if (s.graph.is_nf(d)) {
        EXPECT_EQ(lanes[d].entry_base[0], a.rx_base) << at << " node " << d;
      }
    }
    for (NodeId d = 0; d < s.graph.node_count(); ++d) {
      const trace::NodeAlignment& a = on.trace().alignments()[d];
      const std::uint32_t open = on.aligner().node(d).int_done;
      if (s.graph.is_nf(d) && open < a.rx_end() &&
          a.rx_entry_ts[open - a.rx_base] < w.end) {
        ++n.held;
        break;
      }
    }
    if (windows == jump_after) {
      EngineTestPeer::renumber_to_top(eng, top);
      infer_offsets(eng.store(), s.col, offset);
      n.jumped = offset;
      n.would_wrap = lane_would_wrap(eng.store(), s.col);
    }
  };
  const auto res = replay_collector(s.col, eng, 7, true, check);
  for (std::size_t i = 0; i < offset.size(); ++i)
    for (std::size_t dir = 0; dir < 2; ++dir)
      if (!n.jumped.empty() && offset[i][dir] != n.jumped[i][dir] &&
          offset[i][dir] != 0)
        ++n.shifted;
  EXPECT_GE(windows, 5u) << label;
  EXPECT_GT(n.rx, 1000u) << label;
  EXPECT_GT(n.journeys, 1000u) << label;
  EXPECT_GT(n.arrivals, 1000u) << label;
  expect_windows_match_offline(s, oopt, res, label);
  return n;
}

TEST(Online, CommittedLanesMatchOfflineAtEveryWindow) {
  // The persistent reconstruction, checked after every window: alignment
  // entries, journeys and arrivals the engine committed equal the offline
  // reconstruction of the whole trace at the same absolute index.
  const Scenario fig10 = make_fig10_scenario();
  for (const unsigned threads : {1u, 4u}) {
    check_lanes_against_offline(fig10, base_options(fig10, 2_ms, threads, 100_us),
                                "fig10 threads=" + std::to_string(threads));
  }
  // Ten layers of queues keep packets in flight for up to ~20 ms; the
  // slack must cover that for the windows to equal offline.
  const Scenario dag = make_dag200_scenario();
  OnlineOptions dopt = base_options(dag, 2_ms, 1, 50_us);
  dopt.slack_ns = 25_ms;
  check_lanes_against_offline(dag, dopt, "dag200");

  // Policy drops toward a rarely used output stream: held back until the
  // monitor stream has a record past its cursor, then committed.
  const Scenario fw = make_policy_drop_scenario();
  OnlineOptions oopt = base_options(fw, 2_ms, 1, 60_us);
  oopt.diagnose_drops = true;
  EXPECT_GT(check_lanes_against_offline(fw, oopt, "policy drops").held, 3u);
  std::size_t policy = 0;
  const trace::ReconstructedTrace rt =
      trace::reconstruct(fw.col, fw.graph, oopt.reconstruct);
  for (const std::uint32_t jid : rt.journey_order())
    if (rt.journey(jid).fate == trace::Fate::kDroppedPolicy) ++policy;
  EXPECT_GT(policy, 1000u);
}

TEST(Online, EntryNumbersAreRenumberedBeforeTheyWrap) {
  // Entry numbers are 32 bits wide and grow with the stream. Twenty
  // windows in — after eviction has erased the oldest entries — the
  // engine's numbering is moved up next to a limit; the rest of the stream
  // would carry the busy lanes past it. The engine must renumber in time,
  // by the smallest number still held, and every later window must still
  // equal the offline reconstruction entry for entry once the numbering
  // offset is taken out, and offline diagnosis byte for byte.
  Scenario s;
  {
    sim::Simulator sim;
    auto net = eval::build_fig10(sim, &s.col);
    nf::CaidaLikeOptions topts;
    topts.duration = 60_ms;
    topts.rate_mpps = 1.0;
    topts.num_flows = 400;
    net.topo->source(net.source).load(nf::generate_caida_like(topts));
    nf::InjectionLog log;
    nf::schedule_interrupt(sim, net.topo->nf(net.nats[1]), 43_ms, 600_us, log);
    sim.run_until(75_ms);
    s.graph = trace::graph_view(*net.topo);
    s.prop_delay = net.topo->options().prop_delay;
    s.rates = net.topo->peak_rates();
  }
  OnlineOptions oopt = base_options(s, 2_ms, 1, 200_us);
  oopt.diagnoser.max_depth = 2;
  oopt.diagnoser.period.max_lookback = 2_ms;
  constexpr std::size_t kJumpAfter = 20;

  // Across the wrap: the highest number 5000 below 2^32 (and kNoEntry).
  // Renumbered at the very next close.
  constexpr std::uint32_t kBelowWrap = 5000;
  const LaneCheck wrap = check_lanes_against_offline(s, oopt, "wrap",
                                                     kJumpAfter,
                                                     0u - kBelowWrap);
  ASSERT_FALSE(wrap.jumped.empty());
  EXPECT_TRUE(wrap.would_wrap);
  EXPECT_EQ(wrap.first_renumbered, kJumpAfter + 1);
  EXPECT_GT(wrap.shifted, 0u);
  EXPECT_LT(wrap.highest, trace::kRenumberAt);

  // Across kRenumberAt, a few windows after the move.
  const LaneCheck cross = check_lanes_against_offline(
      s, oopt, "mid-run", kJumpAfter, trace::kRenumberAt - 4000);
  ASSERT_FALSE(cross.jumped.empty());
  EXPECT_GT(cross.first_renumbered, kJumpAfter + 1);
  EXPECT_GT(cross.shifted, 0u);
  EXPECT_LT(cross.highest, trace::kRenumberAt);
}

TEST(Online, StreamStoreRefusesEntryNumbersThatWouldWrap) {
  // A lane numbered up to just below kNoEntry takes no batch that would
  // reach it, and takes batches again once renumbered.
  using collector::Direction;
  StreamStore store;
  store.register_node(0, false);
  const std::vector<Packet> pkts(4);
  store.add(Direction::kRx, 0, kInvalidNode, 10, pkts);
  // Shifting down by -(kNoEntry - 9) moves the lane's numbers up: its four
  // entries become kNoEntry - 9 .. kNoEntry - 6.
  const std::uint32_t up = trace::kNoEntry - 9;
  store.renumber({{0u - up, 0u - up}});
  EXPECT_EQ(store.entries_end(), trace::kNoEntry - 5);
  store.add(Direction::kRx, 0, kInvalidNode, 11, pkts);
  EXPECT_THROW(store.add(Direction::kRx, 0, kInvalidNode, 12, pkts),
               std::overflow_error);
  EXPECT_EQ(store.entries_end(), trace::kNoEntry - 1);
  store.renumber({{up, up}});
  EXPECT_EQ(store.entries_end(), 8u);
  store.add(Direction::kRx, 0, kInvalidNode, 12, pkts);
  EXPECT_EQ(store.entries_end(), 12u);
  EXPECT_EQ(store.retained_batches(), 3u);
}

TEST(Online, RingDrainMatchesOffline) {
  // Full runtime path: records pushed through an external-drain ring as
  // wire bytes, drained in small chunks by the engine.
  const Scenario s = make_single_fw_scenario(20_ms, 0.6);

  collector::RingCollector::Options ropt;
  ropt.ring_bytes = 1 << 20;
  ropt.external_drain = true;
  collector::RingCollector ring(ropt);

  const OnlineOptions oopt = base_options(s, 2_ms, 1, 60_us);
  OnlineEngine eng(s.graph, s.rates, oopt);

  struct Item {
    TimeNs ts;
    NodeId node;
    collector::Direction dir;
    std::size_t idx;
  };
  std::vector<Item> items;
  for (NodeId id = 0; id < s.col.node_count(); ++id) {
    if (!s.col.has_node(id)) continue;
    ring.register_node(id, s.col.node(id).full_flow);
    eng.register_node(id, s.col.node(id).full_flow);
    const collector::NodeTrace& t = s.col.node(id);
    for (std::size_t i = 0; i < t.rx_batches.size(); ++i)
      items.push_back({t.rx_batches[i].ts, id, collector::Direction::kRx, i});
    for (std::size_t i = 0; i < t.tx_batches.size(); ++i)
      items.push_back({t.tx_batches[i].ts, id, collector::Direction::kTx, i});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.node != b.node) return a.node < b.node;
    if (a.dir != b.dir) return a.dir == collector::Direction::kRx;
    return a.idx < b.idx;
  });

  std::vector<WindowResult> windows;
  std::vector<Packet> pkts;
  std::size_t pushed = 0;
  for (const Item& it : items) {
    const collector::NodeTrace& t = s.col.node(it.node);
    const collector::BatchRecord& rec = it.dir == collector::Direction::kRx
                                            ? t.rx_batches[it.idx]
                                            : t.tx_batches[it.idx];
    pkts.assign(rec.count, Packet{});
    for (std::uint16_t i = 0; i < rec.count; ++i) {
      if (it.dir == collector::Direction::kRx) {
        pkts[i].ipid = t.rx_ipids[rec.begin + i];
      } else {
        pkts[i].ipid = t.tx_ipids[rec.begin + i];
        if (t.full_flow) pkts[i].flow = t.tx_flows[rec.begin + i];
      }
    }
    if (it.dir == collector::Direction::kRx) {
      ring.on_rx(it.node, rec.ts, pkts);
    } else {
      ring.on_tx(it.node, rec.peer, rec.ts, pkts);
    }
    if (++pushed % 16 == 0) {
      eng.drain_ring(ring, 1024);  // deliberately tiny drain chunks
      for (WindowResult& w : eng.poll()) windows.push_back(std::move(w));
    }
  }
  while (eng.drain_ring(ring, 4096) > 0)
    for (WindowResult& w : eng.poll()) windows.push_back(std::move(w));
  for (WindowResult& w : eng.finish()) windows.push_back(std::move(w));

  EXPECT_EQ(ring.dropped_records(), 0u);
  EXPECT_EQ(eng.stats().ring_dropped_records, 0u);
  expect_windows_match_offline(s, oopt, windows, "ring");
}

TEST(Online, RingDropCounterAndModeGuards) {
  // Producer overruns surface through the drain-side counter.
  collector::RingCollector::Options ropt;
  ropt.ring_bytes = 1 << 10;
  ropt.external_drain = true;
  collector::RingCollector ring(ropt);
  ring.register_node(0, true);
  std::vector<Packet> batch(32);
  for (int i = 0; i < 200; ++i) ring.on_tx(0, 1, 1000 * i, batch);
  EXPECT_GT(ring.dropped_records(), 0u);
  EXPECT_EQ(ring.dropped_records(), ring.overruns());

  // A dumper-owned ring refuses external draining.
  collector::RingCollector owned;
  std::byte buf[64];
  EXPECT_THROW(owned.drain(std::span(buf)), std::logic_error);
}

TEST(Online, BoundedMemoryLongRun) {
  // >= 20 windows streamed from a tailed file; the retained record span
  // must stay O(history + window + slack) no matter how long the stream
  // runs, and eviction must actually discard most of the stream.
  const Scenario s = make_single_fw_scenario(60_ms, 0.5);

  const std::string path = "test_online_stream.trace";
  collector::save_trace_stream(s.col, path);

  OnlineOptions oopt = base_options(s, 2_ms, 1, 100_us);
  oopt.slack_ns = 1_ms;
  oopt.history_ns = 4_ms;
  oopt.diagnoser.period.max_lookback = 1_ms;
  OnlineEngine eng(s.graph, s.rates, oopt);
  ASSERT_EQ(eng.history_ns(), 4_ms);

  TraceFileTailer tailer(path, eng);
  std::vector<WindowResult> windows;
  DurationNs max_span = 0;
  std::size_t max_batches = 0;
  // Reconstruction state held after each poll, by the poll's position in
  // the stream.
  std::vector<std::size_t> live_journeys;
  std::vector<std::size_t> recon_bytes;
  while (tailer.pump(8192) > 0) {
    for (WindowResult& w : eng.poll()) windows.push_back(std::move(w));
    const OnlineStats st = eng.stats();
    max_span = std::max(max_span, st.retained_span_ns);
    max_batches = std::max(max_batches, st.retained_batches);
    live_journeys.push_back(st.live_journeys);
    recon_bytes.push_back(st.reconstruction_bytes);
  }
  for (WindowResult& w : eng.finish()) windows.push_back(std::move(w));
  std::remove(path.c_str());

  // Flat in stream length: the second half of the run holds no more
  // reconstruction state, and walks no more journeys per window, than the
  // first half (past the first windows' warm-up) plus a margin.
  const auto max_of = [](const auto& v, std::size_t lo, std::size_t hi) {
    return *std::max_element(v.begin() + lo, v.begin() + hi);
  };
  const std::size_t polls = live_journeys.size();
  ASSERT_GT(polls, 8u);
  EXPECT_LE(max_of(live_journeys, polls / 2, polls),
            max_of(live_journeys, polls / 8, polls / 2) * 3 / 2);
  EXPECT_LE(max_of(recon_bytes, polls / 2, polls),
            max_of(recon_bytes, polls / 8, polls / 2) * 3 / 2);
  std::vector<std::size_t> walked;
  std::size_t total_walked = 0;
  std::size_t total_committed = 0;
  for (const WindowResult& w : windows) {
    walked.push_back(w.journeys);
    total_walked += w.journeys;
    total_committed += w.journeys_committed;
  }
  const std::size_t n = walked.size();
  EXPECT_LE(max_of(walked, n / 2, n), max_of(walked, 2, n / 2) * 3 / 2);
  // Each journey is walked about once: the speculative tail is small.
  EXPECT_LE(total_walked, total_committed * 3 / 2);

  const OnlineStats st = eng.stats();
  EXPECT_GE(windows.size(), 20u);
  EXPECT_GT(st.batches_ingested, 0u);
  // Retained span: history plus the tx-side alignment margin (one slack)
  // behind the next-closable window, the window itself, slack ahead of it,
  // plus at most a couple of windows of drained-but-not-yet-closable tail
  // between polls.
  EXPECT_LE(max_span,
            oopt.history_ns + 2 * oopt.slack_ns + 3 * oopt.window_ns);
  // Eviction discarded the bulk of the stream.
  EXPECT_LT(max_batches, static_cast<std::size_t>(st.batches_ingested) / 2);
  // The equivalence guarantee holds under eviction too.
  expect_windows_match_offline(s, oopt, windows, "bounded");
}

TEST(Online, IdleNodeTimesOutInsteadOfWedging) {
  Scenario s = make_single_fw_scenario(5_ms, 0.3);
  std::vector<Packet> batch(4);
  for (std::uint16_t i = 0; i < 4; ++i) batch[i].ipid = i;

  // Without a timeout, a silent node stalls the watermark and nothing
  // closes no matter how far the active node runs ahead.
  OnlineOptions wedged = base_options(s, 2_ms, 1, 100_us);
  OnlineEngine eng0(s.graph, s.rates, wedged);
  eng0.register_node(0, true);
  eng0.register_node(1, false);
  for (TimeNs t = 0; t < 40_ms; t += 1_ms) eng0.on_tx(0, 1, t, batch);
  EXPECT_TRUE(eng0.poll().empty());

  // With the timeout the same stream closes windows, flagged idle_forced.
  OnlineOptions oopt = wedged;
  oopt.idle_timeout_ns = 3_ms;
  OnlineEngine eng(s.graph, s.rates, oopt);
  eng.register_node(0, true);
  eng.register_node(1, false);
  for (TimeNs t = 0; t < 40_ms; t += 1_ms) eng.on_tx(0, 1, t, batch);
  const auto windows = eng.poll();
  ASSERT_FALSE(windows.empty());
  for (const WindowResult& w : windows) EXPECT_TRUE(w.idle_forced);
  EXPECT_EQ(eng.stats().windows_idle_forced, windows.size());
  EXPECT_GT(eng.windows().closed_end(), 0);
}

TEST(Online, LateBatchLandsInDropCounterNotInAWindow) {
  const Scenario s = make_single_fw_scenario(5_ms, 0.3);
  OnlineOptions oopt = base_options(s, 2_ms, 1, 100_us);
  oopt.idle_timeout_ns = 1_ms;
  OnlineEngine eng(s.graph, s.rates, oopt);
  eng.register_node(0, true);
  eng.register_node(1, false);
  std::vector<Packet> batch(4);
  for (TimeNs t = 0; t < 30_ms; t += 1_ms) eng.on_tx(0, 1, t, batch);
  const auto closed = eng.poll();
  ASSERT_FALSE(closed.empty());
  const TimeNs closed_end = eng.windows().closed_end();
  ASSERT_GT(closed_end, 0);

  // The stalled node finally speaks — but only about already-closed time.
  const std::uint64_t windows_before = eng.stats().windows_closed;
  eng.on_rx(1, closed_end - 1, batch);
  eng.on_rx(1, closed_end - 1_ms, batch);
  EXPECT_EQ(eng.stats().late_dropped_batches, 2u);
  EXPECT_EQ(eng.stats().windows_closed, windows_before);
  // The late data was never stored, so it cannot appear in any later
  // window either.
  EXPECT_EQ(eng.stats().batches_ingested, 30u);
}

TEST(Online, BackpressureDropsAndCounts) {
  const Scenario s = make_single_fw_scenario(5_ms, 0.3);
  OnlineOptions oopt = base_options(s, 2_ms, 1, 100_us);
  oopt.max_retained_batches = 8;
  OnlineEngine eng(s.graph, s.rates, oopt);
  eng.register_node(0, true);
  std::vector<Packet> batch(4);
  for (TimeNs t = 0; t < 50_ms; t += 1_ms) eng.on_tx(0, 1, t, batch);
  const OnlineStats st = eng.stats();
  EXPECT_EQ(st.batches_ingested, 8u);
  EXPECT_EQ(st.backpressure_dropped_batches, 42u);
  EXPECT_LE(st.retained_batches, 8u);
  // Watermarks advanced through the drops: the stream still finishes.
  const auto windows = eng.finish();
  EXPECT_FALSE(windows.empty());
}

/// Budgets the board tests run under: 0 builds the exact aggregator, 1 MiB
/// a sketch whose board cap (1,092 culprits) no test here reaches.
constexpr std::size_t kBoardTestBudgets[] = {0, std::size_t{1} << 20};

TEST(Online, AggregatorDecaysAndRanks) {
  StreamingAggregatorOptions aopt;
  aopt.decay = 0.5;
  aopt.top_k = 2;
  aopt.max_windows = 2;

  const auto mk = [](NodeId node, double score) {
    Diagnosis d;
    core::CausalRelation rel;
    rel.culprit = {node, core::CauseKind::kLocalProcessing};
    rel.score = score;
    rel.culprit_t1 = 1000;
    d.relations.push_back(rel);
    return d;
  };

  // Both aggregators hold the same board.
  for (const std::size_t budget : kBoardTestBudgets) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    const auto agg = make_aggregator(aopt, budget);

    const std::vector<Diagnosis> w1{mk(1, 10.0)};
    agg->ingest(w1);
    auto top = agg->top();
    ASSERT_EQ(top.size(), 1u);
    EXPECT_DOUBLE_EQ(top[0].score, 10.0);
    EXPECT_EQ(top[0].windows_seen, 1u);

    const std::vector<Diagnosis> w2{mk(2, 100.0)};
    agg->ingest(w2);
    top = agg->top();
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].culprit.node, 2u);
    EXPECT_DOUBLE_EQ(top[0].score, 100.0);
    EXPECT_EQ(top[1].culprit.node, 1u);
    EXPECT_DOUBLE_EQ(top[1].score, 5.0);  // 10 * 0.5

    const std::vector<Diagnosis> w3{mk(3, 1.0), mk(3, 1.0)};
    agg->ingest(w3);
    top = agg->top();  // top_k caps the board view at 2
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].culprit.node, 2u);
    EXPECT_DOUBLE_EQ(top[0].score, 50.0);
    EXPECT_EQ(top[1].culprit.node, 1u);  // 2.5 > 2.0
    EXPECT_EQ(agg->windows_ingested(), 3u);
  }

  // The relation-record buffer is bounded at max_windows windows.
  StreamingAggregator small(aopt);
  for (int i = 0; i < 10; ++i) {
    const std::vector<Diagnosis> w{mk(1, 1.0)};
    small.ingest(w);
  }
  EXPECT_EQ(small.windows_ingested(), 10u);
  EXPECT_LE(small.retained_records(), 2u * 1u);
}

TEST(Online, AggregatorBoardCapEvictsLowestScore) {
  // With min_score == 0 and decay == 1.0 the decay pass never erases, so
  // only the hard cap bounds the board (the bug this guards against let it
  // grow with the culprit population forever).
  StreamingAggregatorOptions aopt;
  aopt.decay = 1.0;
  aopt.min_score = 0.0;
  aopt.top_k = 16;
  aopt.max_board_entries = 4;
  StreamingAggregator agg(aopt);

  /// One window of `count` one-relation culprits from node `first` up.
  const auto culprits = [](NodeId first, NodeId count, core::CauseKind kind,
                           const auto& score_of) {
    std::vector<Diagnosis> window;
    for (NodeId node = first; node < first + count; ++node) {
      Diagnosis d;
      core::CausalRelation rel;
      rel.culprit = {node, kind};
      rel.score = score_of(node);
      d.relations.push_back(rel);
      window.push_back(d);
    }
    return window;
  };
  const auto by_node = [](NodeId node) {
    return static_cast<double>(node + 1);  // the last node heaviest
  };
  const auto trickle_score = [](NodeId) { return 0.5; };

  agg.ingest(culprits(0, 10, core::CauseKind::kLocalProcessing, by_node));
  const auto top = agg.top();
  ASSERT_EQ(top.size(), 4u);  // cap, not 10
  EXPECT_EQ(agg.board_evicted(), 6u);
  // The four heaviest survive, in descending score order.
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].culprit.node, 9u - i);
    EXPECT_DOUBLE_EQ(top[i].score, static_cast<double>(10 - i));
  }
  // An established culprit outlives a later trickle of one-off culprits.
  for (int w = 0; w < 3; ++w) {
    const NodeId base = 100 + 10 * static_cast<NodeId>(w);
    agg.ingest(
        culprits(base, 5, core::CauseKind::kSourceTraffic, trickle_score));
  }
  const auto after = agg.top();
  ASSERT_EQ(after.size(), 4u);
  EXPECT_EQ(after[0].culprit.node, 9u);
  EXPECT_DOUBLE_EQ(after[0].score, 10.0);

  // The sketch's board evicts by the same rule under the cap its budget
  // sets: never below 16 culprits, which is what 1 KiB leaves.
  const auto sketch = make_aggregator(aopt, 1024);
  ASSERT_EQ(sketch->board_capacity(), 16u);
  sketch->ingest(culprits(0, 40, core::CauseKind::kLocalProcessing, by_node));
  const auto stop = sketch->top();
  ASSERT_EQ(stop.size(), 16u);  // cap, not 40
  EXPECT_EQ(sketch->board_evicted(), 24u);
  for (std::size_t i = 0; i < stop.size(); ++i) {
    EXPECT_EQ(stop[i].culprit.node, 39u - i);
    EXPECT_DOUBLE_EQ(stop[i].score, static_cast<double>(40 - i));
  }
  for (int w = 0; w < 3; ++w) {
    const NodeId base = 100 + 10 * static_cast<NodeId>(w);
    sketch->ingest(
        culprits(base, 5, core::CauseKind::kSourceTraffic, trickle_score));
  }
  const auto safter = sketch->top();
  ASSERT_EQ(safter.size(), 16u);
  EXPECT_EQ(safter[0].culprit.node, 39u);
  EXPECT_DOUBLE_EQ(safter[0].score, 40.0);
  EXPECT_EQ(sketch->board_evicted(), 24u + 15u);
}

TEST(Online, AggregatorWindowsSeenCountsWindowsNotRelations) {
  StreamingAggregatorOptions aopt;
  aopt.decay = 1.0;
  aopt.min_score = 0.0;
  const auto mk = [](NodeId node, double score) {
    Diagnosis d;
    core::CausalRelation rel;
    rel.culprit = {node, core::CauseKind::kLocalProcessing};
    rel.score = score;
    d.relations.push_back(rel);
    return d;
  };
  for (const std::size_t budget : kBoardTestBudgets) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    const auto agg = make_aggregator(aopt, budget);
    // Three relations against the same culprit within one window: one
    // windows_seen tick, summed score.
    const std::vector<Diagnosis> w1{mk(1, 1.0), mk(1, 2.0), mk(1, 3.0)};
    agg->ingest(w1);
    auto top = agg->top();
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].windows_seen, 1u);
    EXPECT_DOUBLE_EQ(top[0].score, 6.0);
    const std::vector<Diagnosis> w2{mk(1, 1.0)};
    agg->ingest(w2);
    agg->ingest(w2);
    top = agg->top();
    EXPECT_EQ(top[0].windows_seen, 3u);
  }
}

TEST(Online, AggregatorPatternsNewestWindowScaleIsExactlyOne) {
  // Regression: the old running `scale /= decay` accumulated rounding
  // error, so after enough windows the newest window's scale was only
  // approximately 1.0. pow(decay, 0) == 1.0 is exact by IEEE 754.
  StreamingAggregatorOptions aopt;
  aopt.decay = 0.7;  // not a power of two: division drift would show
  aopt.max_windows = 16;
  StreamingAggregator agg(aopt);

  autofocus::NfCatalog cat;
  for (NodeId n = 0; n < 16; ++n) {
    cat.node_names.push_back("nf" + std::to_string(n));
    cat.type_of.push_back(0);
  }
  cat.type_names = {"nf"};
  for (NodeId n = 0; n < 12; ++n) {
    Diagnosis d;
    d.victim.node = n;
    d.victim.flow = {make_ipv4(10, 0, 0, n), make_ipv4(20, 0, 0, n), 1000, 80,
                     6};
    core::CausalRelation rel;
    rel.culprit = {n, core::CauseKind::kLocalProcessing};
    rel.score = 1.0;
    rel.flows.push_back({d.victim.flow, 1.0});
    d.relations.push_back(rel);
    const std::vector<Diagnosis> w{d};
    agg.ingest(w);
  }
  autofocus::AggregateOptions aggo;
  aggo.threshold_frac = 0.0;
  aggo.phase1_frac = 0.0;
  const auto patterns = agg.patterns(cat, aggo);
  // The newest window's culprit (node 11) entered with score 1.0 and has
  // not been decayed: its most specific pattern must carry bit-exactly 1.0.
  // Aggregation also emits generalized patterns over the same instance with
  // residual score 0, so assert on the best-scored match.
  bool found = false;
  double best = 0.0;
  for (const auto& p : patterns) {
    if (p.culprit.nf.level == autofocus::NfSet::Level::kInstance &&
        p.culprit.nf.instance == 11u && p.culprit.src.len == 32) {
      best = std::max(best, p.score);
      found = true;
    }
  }
  ASSERT_TRUE(found) << "leaf pattern for the newest window not emitted";
  EXPECT_EQ(best, 1.0) << "newest-window scale drifted off 1.0";

  // decay == 0 now means "newest window only", not "no decay at all":
  // every older window scales to pow(0, age>0) == 0.
  StreamingAggregatorOptions zopt = aopt;
  zopt.decay = 0.0;
  zopt.min_score = 0.0;
  StreamingAggregator zero(zopt);
  const auto mkd = [&](NodeId n, double score) {
    Diagnosis d;
    d.victim.node = n;
    d.victim.flow = {make_ipv4(10, 0, 0, n), make_ipv4(20, 0, 0, n), 1000, 80,
                     6};
    core::CausalRelation rel;
    rel.culprit = {n, core::CauseKind::kLocalProcessing};
    rel.score = score;
    rel.flows.push_back({d.victim.flow, score});
    d.relations.push_back(rel);
    return d;
  };
  const std::vector<Diagnosis> old_w{mkd(1, 5.0)};
  const std::vector<Diagnosis> new_w{mkd(2, 3.0)};
  zero.ingest(old_w);
  zero.ingest(new_w);
  double total = 0.0;
  for (const auto& p : zero.patterns(cat, aggo))
    if (p.culprit.nf.level == autofocus::NfSet::Level::kInstance)
      total += p.score;
  // Only window 2's mass survives at instance granularity.
  for (const auto& p : zero.patterns(cat, aggo)) {
    if (p.culprit.nf.level == autofocus::NfSet::Level::kInstance) {
      EXPECT_EQ(p.culprit.nf.instance, 2u);
    }
  }
  EXPECT_GT(total, 0.0);
}

/// Every batch a store lane holds, at its absolute number, equals the
/// reference collector's batch of that number (entries rebased by the
/// lane's entry base), with the same IPIDs and five-tuples.
void expect_lane_matches(const trace::NodeLanes& got,
                         const collector::NodeTrace& want,
                         collector::Direction dir) {
  const auto d = static_cast<std::size_t>(dir);
  const bool rx = dir == collector::Direction::kRx;
  const auto& gb = rx ? got.trace->rx_batches : got.trace->tx_batches;
  const auto& wb = rx ? want.rx_batches : want.tx_batches;
  const auto& gi = rx ? got.trace->rx_ipids : got.trace->tx_ipids;
  const auto& wi = rx ? want.rx_ipids : want.tx_ipids;
  ASSERT_EQ(got.batch_base[d] + gb.size(), wb.size());
  for (std::size_t b = 0; b < gb.size(); ++b) {
    const collector::BatchRecord& g = gb[b];
    const collector::BatchRecord& w =
        wb[static_cast<std::size_t>(got.batch_base[d]) + b];
    EXPECT_EQ(g.ts, w.ts) << b;
    EXPECT_EQ(g.count, w.count) << b;
    EXPECT_EQ(g.peer, w.peer) << b;
    ASSERT_EQ(got.entry_base[d] + g.begin, w.begin) << b;
    for (std::uint32_t k = 0; k < g.count; ++k) {
      EXPECT_EQ(gi[g.begin + k], wi[w.begin + k]);
      if (!rx && want.full_flow) {
        EXPECT_EQ(got.trace->tx_flows[g.begin + k], want.tx_flows[w.begin + k]);
      }
    }
  }
}

TEST(Online, StreamStoreLanesKeepAbsoluteNumbers) {
  // Differential check of the columnar store: after any mix of appends and
  // evictions (each erasing the evicted prefix), every batch a lane still
  // holds must equal, at its absolute number, the batch of that number in a
  // plain Collector fed every batch ever added — the numbering the
  // persistent reconstruction reads the lanes by. Lanes: a full-flow source
  // (tx only) and two NFs with rx and tx toward two peers each; 0-3 batches
  // of 1-4 packets per lane per 100 us round, and one regressed timestamp
  // per lane.
  using collector::Direction;
  constexpr NodeId kSource = 0, kNfA = 1, kNfB = 2, kSink = 3;
  constexpr DurationNs kStep = 100_us;
  constexpr int kRounds = 400;
  // ~12 live batches per lane.
  constexpr DurationNs kHistory = 8 * kStep;

  struct Lane {
    Direction dir;
    NodeId node;
    NodeId peers[2];
    int regress_round;
    /// Front-pop eviction model: (ts, packets) of the retained batches.
    std::deque<std::pair<TimeNs, std::size_t>> model;
  };
  std::vector<Lane> lanes = {
      {Direction::kTx, kSource, {kNfA, kNfB}, 50, {}},
      {Direction::kRx, kNfA, {kInvalidNode, kInvalidNode}, 90, {}},
      {Direction::kTx, kNfA, {kNfB, kSink}, 130, {}},
      {Direction::kRx, kNfB, {kInvalidNode, kInvalidNode}, 170, {}},
      {Direction::kTx, kNfB, {kNfA, kSink}, 210, {}},
  };
  struct Fed {
    Direction dir;
    NodeId node;
    NodeId peer;
    TimeNs ts;
    std::vector<Packet> pkts;
  };
  std::vector<Fed> fed;

  StreamStore store;
  store.register_node(kSource, true);
  store.register_node(kNfA, false);
  store.register_node(kNfB, false);

  std::mt19937_64 rng(13);
  auto uniform = [&](std::uint64_t n) { return rng() % n; };
  auto feed = [&](Lane& l, TimeNs ts) {
    Fed f{l.dir, l.node, l.peers[uniform(2)], ts, {}};
    f.pkts.resize(1 + uniform(4));
    for (Packet& p : f.pkts) {
      p.ipid = static_cast<std::uint16_t>(rng());
      p.flow.src_ip = static_cast<std::uint32_t>(rng());
      p.flow.dst_port = static_cast<std::uint16_t>(rng());
    }
    store.add(f.dir, f.node, f.peer, f.ts, f.pkts);
    l.model.emplace_back(ts, f.pkts.size());
    fed.push_back(std::move(f));
  };
  auto evict = [&](TimeNs h) {
    store.evict_before(h);
    // Eviction erases what it evicts: no lane starts with a batch older
    // than the horizon.
    const trace::RecordLanes held = store.lanes();
    for (const Lane& l : lanes) {
      const auto& batches = l.dir == Direction::kRx
                                ? held[l.node].trace->rx_batches
                                : held[l.node].trace->tx_batches;
      if (!batches.empty()) {
        EXPECT_GE(batches.front().ts, h) << "horizon " << h;
      }
    }
    std::size_t retained = 0;
    std::size_t bytes = 0;
    for (Lane& l : lanes) {
      while (!l.model.empty() && l.model.front().first < h)
        l.model.pop_front();
      retained += l.model.size();
      // Live lane records: a batch record, an IPID per packet, and a
      // five-tuple per packet on the full-flow source's tx side.
      const std::size_t per_pkt =
          sizeof(std::uint16_t) + (l.node == kSource ? sizeof(FiveTuple) : 0);
      for (const auto& [ts, n] : l.model)
        bytes += sizeof(collector::BatchRecord) + n * per_pkt;
    }
    EXPECT_EQ(store.retained_batches(), retained) << "horizon " << h;
    EXPECT_EQ(store.retained_bytes(), bytes) << "horizon " << h;
  };

  for (int r = 0; r < kRounds; ++r) {
    const TimeNs round_start = r * kStep;
    for (Lane& l : lanes) {
      // The regressing round feeds at least one in-order batch first.
      std::vector<TimeNs> ts(r == l.regress_round ? 1 + uniform(3)
                                                  : uniform(4));
      for (TimeNs& t : ts)
        t = round_start + static_cast<TimeNs>(uniform(kStep));
      std::sort(ts.begin(), ts.end());
      for (const TimeNs t : ts) feed(l, t);
      // Three rounds back: stuck behind its positional predecessor once the
      // horizon passes it.
      if (r == l.regress_round) feed(l, round_start - 3 * kStep);
    }

    evict(round_start - kHistory);
    collector::CollectorOptions ropts;
    ropts.ground_truth = false;
    collector::Collector ref(ropts);
    ref.register_node(kSource, true);
    ref.register_node(kNfA, false);
    ref.register_node(kNfB, false);
    for (const Fed& f : fed) {
      if (f.dir == Direction::kRx)
        ref.on_rx(f.node, f.ts, f.pkts);
      else
        ref.on_tx(f.node, f.peer, f.ts, f.pkts);
    }
    const trace::RecordLanes got = store.lanes();
    for (const NodeId id : {kSource, kNfA, kNfB}) {
      EXPECT_EQ(got[id].trace->full_flow, ref.node(id).full_flow);
      expect_lane_matches(got[id], ref.node(id), Direction::kRx);
      expect_lane_matches(got[id], ref.node(id), Direction::kTx);
    }
    ASSERT_FALSE(HasFailure()) << "round " << r;
  }
  EXPECT_GT(fed.size(), static_cast<std::size_t>(kRounds));

  // Past the end of the stream nothing is retained, in batches or bytes.
  evict(kRounds * kStep);
  EXPECT_EQ(store.retained_batches(), 0u);
  EXPECT_EQ(store.retained_bytes(), 0u);
  EXPECT_EQ(store.retained_span(), 0);
}

TEST(Online, EngineLeavesCollectorCountersAlone) {
  // collector.* counts dataplane collection. The engine keeps its records
  // in the store's lanes and reconstructs from them; those records were
  // counted once, when the simulation collected them, and must not count
  // again.
  const Scenario s = make_fig10_scenario();
  obs::Registry& reg = obs::Registry::global();
  const char* const names[] = {"collector.rx_batches", "collector.rx_packets",
                               "collector.tx_batches", "collector.tx_packets"};
  std::vector<std::uint64_t> before;
  for (const char* n : names) before.push_back(reg.counter(n).value());
  const std::uint64_t ingested = reg.counter("online.batches_ingested").value();

  OnlineEngine eng(s.graph, s.rates, base_options(s, 5_ms, 1, 100_us));
  const auto windows = replay_collector(s.col, eng, 64);
  ASSERT_FALSE(windows.empty());
  EXPECT_GT(eng.stats().windows_closed, eng.stats().windows_skipped_empty);

  EXPECT_GT(reg.counter("online.batches_ingested").value(), ingested);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(reg.counter(names[i]).value(), before[i]) << names[i];
}

TEST(Online, IngestCountersAreBroughtUpToStats) {
  // The engine's stats and the decoder's are the only per-record counts:
  // the registry counters are brought up to them once per poll()/finish()
  // and once per feed()/finish(). After a hook-fed and a byte-fed replay,
  // each counter grew by exactly the matching stats value. The retained
  // cap makes some of the ingest drops real.
  const Scenario s = make_fig10_scenario();
  obs::Registry& reg = obs::Registry::global();
  const char* const names[] = {
      "online.batches_ingested", "online.packets_ingested",
      "online.late_dropped_batches", "online.backpressure_dropped_batches",
      "collector.decode.records"};
  const auto values = [&] {
    std::vector<std::uint64_t> v;
    for (const char* n : names) v.push_back(reg.counter(n).value());
    return v;
  };
  const auto expect_grown_by_stats =
      [&](const OnlineEngine& eng, const std::vector<std::uint64_t>& before,
          const std::string& label) {
        const OnlineStats st = eng.stats();
        const std::uint64_t want[] = {
            st.batches_ingested, st.packets_ingested, st.late_dropped_batches,
            st.backpressure_dropped_batches, eng.decode_stats().records};
        const std::vector<std::uint64_t> after = values();
        for (std::size_t i = 0; i < after.size(); ++i)
          EXPECT_EQ(after[i] - before[i], want[i]) << label << " " << names[i];
      };
  OnlineOptions oopt = base_options(s, 5_ms, 1, 100_us);
  oopt.max_retained_batches = 1500;
  {
    const std::vector<std::uint64_t> before = values();
    OnlineEngine eng(s.graph, s.rates, oopt);
    replay_collector(s.col, eng, 64);
    EXPECT_GT(eng.stats().batches_ingested, 0u);
    EXPECT_GT(eng.stats().backpressure_dropped_batches, 0u);
    expect_grown_by_stats(eng, before, "hook-fed");
  }
  const std::string path = "test_online_ingest_counters.trace";
  collector::save_trace_stream(s.col, path);
  {
    const std::vector<std::uint64_t> before = values();
    OnlineEngine eng(s.graph, s.rates, oopt);
    TraceFileTailer tail(path, eng);
    tail.drain_to_end(1 << 12);
    EXPECT_GT(eng.decode_stats().records, 0u);
    EXPECT_GT(eng.stats().backpressure_dropped_batches, 0u);
    expect_grown_by_stats(eng, before, "byte-fed");
  }
  std::remove(path.c_str());
}

TEST(Online, ReconstructTimersTimeOneOperationEach) {
  // trace.reconstruct.total_ns takes one sample per advance (a run); the
  // speculative-tail discard and the eviction each window close does
  // record into histograms of their own.
  const Scenario s = make_fig10_scenario();
  obs::Registry& reg = obs::Registry::global();
  const auto count = [&](const char* name) {
    return reg.histogram(name).snapshot().count;
  };
  const std::uint64_t runs = reg.counter("trace.reconstruct.runs").value();
  const std::uint64_t total = count("trace.reconstruct.total_ns");
  const std::uint64_t discard = count("trace.reconstruct.discard_ns");
  const std::uint64_t evict = count("trace.reconstruct.evict_ns");

  OnlineEngine eng(s.graph, s.rates, base_options(s, 5_ms, 1, 100_us));
  const auto windows = replay_collector(s.col, eng, 64);
  const std::uint64_t closed = eng.stats().windows_closed;
  ASSERT_FALSE(windows.empty());
  ASSERT_EQ(closed, windows.size());

  const std::uint64_t new_runs =
      reg.counter("trace.reconstruct.runs").value() - runs;
  EXPECT_EQ(new_runs, closed);
  EXPECT_EQ(count("trace.reconstruct.total_ns") - total, new_runs);
  EXPECT_EQ(count("trace.reconstruct.discard_ns") - discard, closed);
  EXPECT_EQ(count("trace.reconstruct.evict_ns") - evict, closed);
}

TEST(Online, EngineFeedsAggregatorAcrossWindows) {
  const Scenario s = make_fig2_scenario();
  OnlineOptions oopt = base_options(s, 5_ms, 1, 60_us);
  OnlineEngine eng(s.graph, s.rates, oopt);
  const auto windows = replay_collector(s.col, eng, 64);
  std::uint64_t with_diagnoses = 0;
  for (const WindowResult& w : windows)
    if (!w.diagnoses.empty()) ++with_diagnoses;
  ASSERT_GT(with_diagnoses, 0u);
  EXPECT_EQ(eng.aggregator().windows_ingested(), windows.size());
  const auto top = eng.aggregator().top();
  ASSERT_FALSE(top.empty());
  // The injected NAT interrupt dominates the live board.
  EXPECT_EQ(top[0].culprit.kind, core::CauseKind::kLocalProcessing);
}

TEST(Online, SaveTraceStreamIsLoadCompatible) {
  // The time-interleaved stream layout must load back into exactly the
  // same per-node record sequences as the node-major layout.
  const Scenario s = make_single_fw_scenario(8_ms, 0.5);
  const std::string plain = "test_online_plain.trace";
  const std::string stream = "test_online_interleaved.trace";
  collector::save_trace(s.col, plain);
  collector::save_trace_stream(s.col, stream);
  const collector::Collector a = collector::load_trace(plain);
  const collector::Collector b = collector::load_trace(stream);
  std::remove(plain.c_str());
  std::remove(stream.c_str());

  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeId id = 0; id < a.node_count(); ++id) {
    ASSERT_EQ(a.has_node(id), b.has_node(id));
    if (!a.has_node(id)) continue;
    const collector::NodeTrace& ta = a.node(id);
    const collector::NodeTrace& tb = b.node(id);
    EXPECT_EQ(ta.full_flow, tb.full_flow);
    EXPECT_EQ(ta.rx_ipids, tb.rx_ipids);
    EXPECT_EQ(ta.tx_ipids, tb.tx_ipids);
    EXPECT_EQ(ta.tx_flows, tb.tx_flows);
    ASSERT_EQ(ta.rx_batches.size(), tb.rx_batches.size());
    for (std::size_t i = 0; i < ta.rx_batches.size(); ++i) {
      EXPECT_EQ(ta.rx_batches[i].ts, tb.rx_batches[i].ts);
      EXPECT_EQ(ta.rx_batches[i].begin, tb.rx_batches[i].begin);
      EXPECT_EQ(ta.rx_batches[i].count, tb.rx_batches[i].count);
    }
    ASSERT_EQ(ta.tx_batches.size(), tb.tx_batches.size());
    for (std::size_t i = 0; i < ta.tx_batches.size(); ++i) {
      EXPECT_EQ(ta.tx_batches[i].ts, tb.tx_batches[i].ts);
      EXPECT_EQ(ta.tx_batches[i].begin, tb.tx_batches[i].begin);
      EXPECT_EQ(ta.tx_batches[i].count, tb.tx_batches[i].count);
      EXPECT_EQ(ta.tx_batches[i].peer, tb.tx_batches[i].peer);
    }
  }
}

TEST(Online, TraceReadersRejectBadHeadersAlike) {
  // load_trace_ex and TraceFileTailer read the header through one parser:
  // a bad magic and an unknown version fail both with the same message.
  const Scenario s = make_single_fw_scenario(2_ms, 0.1);
  const std::string path = "test_online_bad_header.trace";
  const auto error_of = [](const auto& read) {
    try {
      read();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::tuple<std::uint32_t, std::uint16_t, std::string> cases[] = {
      {0x12345678, collector::kTraceFileV2, "not a microscope trace file: "},
      {collector::kTraceFileMagic, 3, "unsupported trace file version: "}};
  for (const auto& [magic, version, want] : cases) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      const std::uint32_t no_nodes = 0;
      os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
      os.write(reinterpret_cast<const char*>(&version), sizeof(version));
      os.write(reinterpret_cast<const char*>(&no_nodes), sizeof(no_nodes));
    }
    const std::string loaded =
        error_of([&] { collector::load_trace_ex(path); });
    OnlineEngine eng(s.graph, s.rates, base_options(s, 2_ms, 1, 100_us));
    TraceFileTailer tailer(path, eng);
    const std::string tailed = error_of([&] { tailer.pump(); });
    EXPECT_EQ(loaded, want + path);
    EXPECT_EQ(tailed, loaded);
  }
  std::remove(path.c_str());
}

TEST(Online, StreamStoreRetainedBytesMatchALaneWalk) {
  // retained_bytes() is a running count; after every add, eviction,
  // renumber and full-flow switch it equals a walk over the lanes.
  using collector::Direction;
  StreamStore store;
  store.register_node(0, true);
  store.register_node(1, false);
  store.register_node(3, false);
  const auto walk = [&] {
    std::size_t bytes = 0;
    for (const trace::NodeLanes& l : store.lanes()) {
      if (l.trace == nullptr) continue;
      const collector::NodeTrace& t = *l.trace;
      bytes += (t.rx_batches.size() + t.tx_batches.size()) *
                   sizeof(collector::BatchRecord) +
               (t.rx_ipids.size() + t.tx_ipids.size()) *
                   sizeof(std::uint16_t) +
               t.tx_flows.size() * sizeof(FiveTuple);
    }
    return bytes;
  };
  std::mt19937_64 rng(61);
  TimeNs ts = 0;
  for (int step = 0; step < 400; ++step) {
    const NodeId node = std::array<NodeId, 3>{0, 1, 3}[rng() % 3];
    const Direction dir = rng() % 2 == 0 ? Direction::kRx : Direction::kTx;
    std::vector<Packet> pkts(1 + rng() % 5);
    for (Packet& p : pkts) p.ipid = static_cast<std::uint16_t>(rng());
    ts += static_cast<TimeNs>(rng() % 20);
    store.add(dir, node, 1, ts, pkts);
    ASSERT_EQ(store.retained_bytes(), walk()) << "add " << step;
    if (step % 25 == 24) {
      store.evict_before(ts - static_cast<TimeNs>(rng() % 300));
      ASSERT_EQ(store.retained_bytes(), walk()) << "evict " << step;
    }
    if (step == 150) {
      store.renumber({{1, 1}, {2, 2}, {0, 0}, {3, 3}});
      ASSERT_EQ(store.retained_bytes(), walk()) << "renumber";
    }
    if (step == 200 || step == 300) {
      // Full flow switched on (node 1) and off (node 0) with tx records
      // held: their five-tuples appear and go.
      store.register_node(step == 200 ? 1 : 0, step == 200);
      ASSERT_EQ(store.retained_bytes(), walk()) << "switch " << step;
    }
  }
  EXPECT_GT(store.retained_bytes(), 0u);
  store.evict_before(ts + 1);
  EXPECT_EQ(store.retained_bytes(), 0u);
}

TEST(Online, WindowManagerMinWatermarkFollowsEveryNote) {
  // The minimum watermark is rescanned only when it may have moved; it
  // must still equal the minimum over the nodes after every note.
  WindowManager wm(10, 2, 0);
  std::vector<TimeNs> model(5, WindowManager::kWatermarkNone);
  for (NodeId id = 0; id < 4; ++id) wm.register_node(id);
  EXPECT_EQ(wm.min_watermark(), WindowManager::kWatermarkNone);
  std::mt19937_64 rng(67);
  for (int i = 0; i < 500; ++i) {
    if (i == 250) wm.register_node(4);  // a late node: unseen again
    const NodeId id = static_cast<NodeId>(rng() % (i < 250 ? 4 : 5));
    const TimeNs ts = static_cast<TimeNs>(rng() % 1000) + i;
    wm.note(id, ts);
    model[id] = std::max(model[id], ts);
    const std::size_t nodes = i < 250 ? 4 : 5;
    ASSERT_EQ(wm.min_watermark(),
              *std::min_element(model.begin(), model.begin() + nodes))
        << "note " << i;
  }
}

TEST(Online, WindowManagerWatermarkRules) {
  WindowManager wm(10, 2, 0);
  wm.register_node(0);
  wm.register_node(1);
  WindowBounds b;
  EXPECT_FALSE(wm.next_closable(b, false));  // nothing seen yet

  wm.note(0, 25);  // fast-forwards to the window containing t=25: [20, 30)
  EXPECT_FALSE(wm.next_closable(b, false));  // node 1 unseen
  wm.note(1, 32);
  EXPECT_FALSE(wm.next_closable(b, false));  // node 0 watermark 25 < 32
  wm.note(0, 33);
  ASSERT_TRUE(wm.next_closable(b, false));  // min watermark 32 >= 30 + 2
  EXPECT_EQ(b.start, 20);
  EXPECT_EQ(b.end, 30);
  EXPECT_FALSE(b.idle_forced);
  wm.advance();
  EXPECT_EQ(wm.closed_end(), 30);
  EXPECT_FALSE(wm.next_closable(b, false));  // [30, 40) needs wm >= 42

  // finishing mode closes while the core could still hold data.
  ASSERT_TRUE(wm.next_closable(b, true));
  EXPECT_EQ(b.start, 30);
  wm.advance();
  EXPECT_FALSE(wm.next_closable(b, true));  // 40 > 33 + 2
}

}  // namespace
}  // namespace microscope::online
