// Integration tests for the diagnosis engine on the paper's motivating
// scenarios: source bursts (Fig. 1), interrupt impact propagating across
// NFs (Fig. 2), relative impact quantification (Fig. 3), and the firewall
// bug found through recursion (Fig. 8 / §1). Then the PreSet index that
// the victims of one queuing period share: its answers against one
// diagnosis per victim and against PreSet(p) by definition, flow identity,
// the stage's metrics, and a pinned digest of the whole output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <utility>

#include "core/diagnosis.hpp"
#include "core/period.hpp"
#include "eval/experiment.hpp"
#include "eval/scenarios.hpp"
#include "nf/generate.hpp"
#include "nf/inject.hpp"
#include "nf/traffic.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/graph.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::core {
namespace {

using eval::build_fig2;
using eval::build_fig3;
using eval::build_single_firewall;

FiveTuple flow_a() {
  return {make_ipv4(10, 0, 1, 1), make_ipv4(20, 0, 1, 1), 4242, 443, 6};
}

trace::ReconstructedTrace reconstruct_of(const nf::Topology& topo,
                                         const collector::Collector& col) {
  trace::ReconstructOptions ropt;
  ropt.prop_delay = topo.options().prop_delay;
  return trace::reconstruct(col, trace::graph_view(topo), ropt);
}

TEST(Diagnosis, BurstAtSourceBlamedWithFlow) {
  sim::Simulator sim;
  collector::Collector col;
  auto net = build_single_firewall(sim, &col, 700);

  nf::CaidaLikeOptions topts;
  topts.duration = 30_ms;
  topts.rate_mpps = 0.8;
  auto traffic = nf::generate_caida_like(topts);
  FiveTuple burst = flow_a();
  nf::inject_burst(traffic, burst, 10_ms, 1500, 120, 1);
  net.topo->source(net.source).load(std::move(traffic));
  sim.run_until(40_ms);

  const auto rt = reconstruct_of(*net.topo, col);
  Diagnoser diag(rt, net.topo->peak_rates());
  const auto victims = diag.latency_victims_by_percentile(99.5);
  ASSERT_GT(victims.size(), 20u);

  // Every victim in the burst's shadow should blame the source, with the
  // bursty flow as the top culprit flow.
  std::size_t checked = 0, correct = 0;
  for (const Victim& v : victims) {
    if (v.time < 10_ms || v.time > 14_ms) continue;
    ++checked;
    const auto ranked = rank_causes(diag.diagnose(v));
    if (ranked.empty()) continue;
    if (ranked[0].culprit.node == net.source &&
        ranked[0].culprit.kind == CauseKind::kSourceTraffic &&
        !ranked[0].flows.empty() && ranked[0].flows[0].flow == burst) {
      ++correct;
    }
  }
  ASSERT_GT(checked, 10u);
  EXPECT_GE(static_cast<double>(correct) / static_cast<double>(checked), 0.95);
}

TEST(Diagnosis, InterruptImpactPropagatesAcrossNfs) {
  // Fig. 2: interrupt at the NAT; flow A (which only touches the VPN)
  // suffers. The diagnosis must walk back through the VPN's queue to the
  // NAT's local processing problem — no temporal overlap required.
  sim::Simulator sim;
  collector::Collector col;
  auto net = build_fig2(sim, &col);

  nf::CaidaLikeOptions topts;
  topts.duration = 30_ms;
  topts.rate_mpps = 0.7;  // CAIDA via NAT -> VPN
  topts.seed = 3;
  net.topo->source(net.caida_source).load(nf::generate_caida_like(topts));
  net.topo->source(net.flow_a_source)
      .load(nf::generate_constant_rate(flow_a(), 0, 30_ms, 0.05));

  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nat), 10_ms, 800_us, log);
  sim.run_until(40_ms);

  const auto rt = reconstruct_of(*net.topo, col);
  Diagnoser diag(rt, net.topo->peak_rates());

  // Victims: flow A packets delayed at the VPN just after the NAT resumes.
  // Threshold selection (paper §5: "latency above a threshold"): flow A's
  // VPN delay is big in absolute terms but smaller than the delays of the
  // packets stuck at the NAT itself, so a global percentile would miss it.
  std::size_t checked = 0, nat_blamed = 0;
  for (const Victim& v : diag.latency_victims_by_threshold(60_us)) {
    if (!(v.flow == flow_a())) continue;
    if (v.node != net.vpn) continue;
    if (v.time < 10_ms + 700_us || v.time > 13_ms) continue;
    ++checked;
    const auto ranked = rank_causes(diag.diagnose(v));
    if (!ranked.empty() && ranked[0].culprit.node == net.nat &&
        ranked[0].culprit.kind == CauseKind::kLocalProcessing) {
      ++nat_blamed;
    }
  }
  ASSERT_GT(checked, 3u);
  // Most flow-A victims blame the NAT top-1; the tail of the drain window
  // legitimately splits credit with the VPN's own queue (the paper's
  // interrupt rank-1 rate is 85% overall).
  EXPECT_GE(static_cast<double>(nat_blamed) / static_cast<double>(checked),
            0.65);
}

TEST(Diagnosis, RelativeImpactOfTwoUpstreams) {
  // Fig. 3: NAT (0.25 Mpps) and Monitor (0.05 Mpps) both interrupted; the
  // NAT's post-interrupt burst is ~5x bigger, so it should out-score the
  // Monitor for flow-A victims at the VPN.
  sim::Simulator sim;
  collector::Collector col;
  auto net = build_fig3(sim, &col);

  nf::CaidaLikeOptions heavy;
  heavy.duration = 30_ms;
  heavy.rate_mpps = 0.25;
  heavy.num_flows = 300;
  heavy.seed = 11;
  nf::CaidaLikeOptions light = heavy;
  light.rate_mpps = 0.05;
  light.seed = 12;
  net.topo->source(net.nat_source).load(nf::generate_caida_like(heavy));
  net.topo->source(net.mon_source).load(nf::generate_caida_like(light));
  net.topo->source(net.flow_a_source)
      .load(nf::generate_constant_rate(flow_a(), 0, 30_ms, 0.05));

  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nat), 10_ms, 800_us, log);
  nf::schedule_interrupt(sim, net.topo->nf(net.monitor), 10_ms, 800_us, log);
  sim.run_until(40_ms);

  const auto rt = reconstruct_of(*net.topo, col);
  Diagnoser diag(rt, net.topo->peak_rates());

  std::size_t checked = 0, nat_over_mon = 0;
  for (const Victim& v : diag.latency_victims_by_threshold(40_us)) {
    if (v.node != net.vpn) continue;
    if (v.time < 10_ms + 700_us || v.time > 13_ms) continue;
    ++checked;
    const auto ranked = rank_causes(diag.diagnose(v));
    double nat_score = 0, mon_score = 0;
    for (const RankedCause& rc : ranked) {
      if (rc.culprit.node == net.nat) nat_score += rc.score;
      if (rc.culprit.node == net.monitor) mon_score += rc.score;
    }
    if (nat_score > mon_score) ++nat_over_mon;
  }
  ASSERT_GT(checked, 5u);
  EXPECT_GE(static_cast<double>(nat_over_mon) / static_cast<double>(checked),
            0.8);
}

TEST(Diagnosis, FirewallBugFoundByRecursion) {
  // §1 / Fig. 8: a firewall bug slows specific flows; the victim's problem
  // appears at the VPN. Requires recursive diagnosis: the VPN's input
  // burst leads back to the firewall whose processing collapsed.
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig10(sim, &col);

  const NodeId bug_fw = net.firewalls[1];  // "Firewall 2"
  nf::FirewallBug bug;
  bug.match = eval::bug_firewall_matcher();  // post-NAT view of the triggers
  bug.slow_service_ns = 20_us;
  dynamic_cast<nf::Firewall&>(net.topo->nf(bug_fw)).set_bug(bug);

  nf::CaidaLikeOptions topts;
  topts.duration = 40_ms;
  topts.rate_mpps = 1.0;
  topts.num_flows = 500;
  topts.seed = 4;
  auto traffic = nf::generate_caida_like(topts);
  const auto triggers = eval::bug_trigger_flows(net, bug_fw);
  ASSERT_FALSE(triggers.empty());
  nf::inject_burst(traffic, triggers[0], 15_ms, 120, 5_us, 1);
  net.topo->source(net.source).load(std::move(traffic));
  sim.run_until(60_ms);

  const auto rt = reconstruct_of(*net.topo, col);
  Diagnoser diag(rt, net.topo->peak_rates());

  std::size_t checked = 0, fw_blamed = 0, fw_top2 = 0;
  for (const Victim& v : diag.latency_victims_by_percentile(99.5)) {
    if (v.time < 15_ms || v.time > 21_ms) continue;
    ++checked;
    const auto ranked = rank_causes(diag.diagnose(v));
    for (std::size_t i = 0; i < ranked.size() && i < 2; ++i) {
      if (ranked[i].culprit.node == bug_fw &&
          ranked[i].culprit.kind == CauseKind::kLocalProcessing) {
        if (i == 0) ++fw_blamed;
        ++fw_top2;
        break;
      }
    }
  }
  ASSERT_GT(checked, 10u);
  EXPECT_GE(static_cast<double>(fw_top2) / static_cast<double>(checked), 0.7);
  EXPECT_GT(fw_blamed, 0u);
}

TEST(Diagnosis, InfiniteStddevKAnchorsAtMaxLatencyHop) {
  // At abnormal_stddev_k = +inf (the streaming default) no hop can test
  // abnormal, so every latency victim anchors at its journey's max-latency
  // hop (the first one on ties), and victim selection skips the per-NF hop
  // statistics. A huge finite k builds them and must pick the same hops.
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig10(sim, &col);
  nf::CaidaLikeOptions topts;
  topts.duration = 12_ms;
  topts.rate_mpps = 1.0;
  topts.num_flows = 300;
  net.topo->source(net.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nats[0]), 4_ms, 600_us, log);
  sim.run_until(30_ms);

  const auto rt = reconstruct_of(*net.topo, col);
  DiagnoserOptions inf_opts;
  inf_opts.abnormal_stddev_k = std::numeric_limits<double>::infinity();
  const Diagnoser inf_diag(rt, net.topo->peak_rates(), inf_opts);
  const auto victims = inf_diag.latency_victims_by_threshold(100_us);
  ASSERT_FALSE(victims.empty());
  for (const Victim& v : victims) {
    const trace::Hop* max_hop = nullptr;
    for (const trace::Hop& h : rt.journey(v.journey).hops) {
      if (!h.has_latency()) continue;
      if (!max_hop || *h.latency() > *max_hop->latency()) max_hop = &h;
    }
    ASSERT_NE(max_hop, nullptr) << "journey " << v.journey;
    EXPECT_EQ(v.node, max_hop->node) << "journey " << v.journey;
    EXPECT_EQ(v.time, max_hop->arrival) << "journey " << v.journey;
    EXPECT_EQ(v.hop_latency, *max_hop->latency()) << "journey " << v.journey;
  }

  DiagnoserOptions huge_opts;
  huge_opts.abnormal_stddev_k = 1e300;
  const Diagnoser huge_diag(rt, net.topo->peak_rates(), huge_opts);
  EXPECT_TRUE(huge_diag.latency_victims_by_threshold(100_us) == victims);
}

TEST(Diagnosis, DropVictimsDiagnosable) {
  sim::Simulator sim;
  collector::Collector col;
  auto net = build_single_firewall(sim, &col, 700);

  nf::CaidaLikeOptions topts;
  topts.duration = 20_ms;
  topts.rate_mpps = 0.6;
  auto traffic = nf::generate_caida_like(topts);
  FiveTuple burst = flow_a();
  nf::inject_burst(traffic, burst, 8_ms, 3000, 100, 1);  // overflows 1024
  net.topo->source(net.source).load(std::move(traffic));
  sim.run_until(30_ms);

  const auto rt = reconstruct_of(*net.topo, col);
  Diagnoser diag(rt, net.topo->peak_rates());
  const auto drops = diag.drop_victims();
  ASSERT_GT(drops.size(), 100u);

  std::size_t correct = 0, checked = 0;
  for (std::size_t i = 0; i < drops.size(); i += 25) {
    const auto ranked = rank_causes(diag.diagnose(drops[i]));
    ++checked;
    if (!ranked.empty() && ranked[0].culprit.node == net.source &&
        !ranked[0].flows.empty() && ranked[0].flows[0].flow == burst)
      ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) / static_cast<double>(checked), 0.9);
}

TEST(Diagnosis, QuietNfYieldsNoCauses) {
  sim::Simulator sim;
  collector::Collector col;
  auto net = build_single_firewall(sim, &col, 700);
  net.topo->source(net.source)
      .load(nf::generate_constant_rate(flow_a(), 0, 5_ms, 0.01));
  sim.run_until(10_ms);

  const auto rt = reconstruct_of(*net.topo, col);
  Diagnoser diag(rt, net.topo->peak_rates());
  // Pick any delivered packet as a (non-)victim; queue is always empty.
  Victim v;
  v.journey = 0;
  v.node = net.nf;
  v.time = rt.journey(0).hops[0].arrival;
  v.flow = rt.journey(0).flow;
  const auto d = diag.diagnose(v);
  // A single arrival with no backlog must not produce meaningful causes.
  double total = 0;
  for (const auto& rel : d.relations) total += rel.score;
  EXPECT_LT(total, 2.0);
}

TEST(Diagnosis, ThroughputVictimSelection) {
  // Starve flow A at the VPN via a NAT interrupt; flow A's delivered rate
  // dips and those packets become throughput victims.
  sim::Simulator sim;
  collector::Collector col;
  auto net = build_fig2(sim, &col);

  nf::CaidaLikeOptions topts;
  topts.duration = 20_ms;
  topts.rate_mpps = 0.9;
  net.topo->source(net.caida_source).load(nf::generate_caida_like(topts));
  net.topo->source(net.flow_a_source)
      .load(nf::generate_constant_rate(flow_a(), 0, 20_ms, 0.1));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nat), 8_ms, 1_ms, log);
  sim.run_until(30_ms);

  const auto rt = reconstruct_of(*net.topo, col);
  Diagnoser diag(rt, net.topo->peak_rates());
  // Flow A nominal: 0.1 Mpps = 100 pkts/ms. Find windows under 80%.
  const auto victims = diag.throughput_victims(flow_a(), 1_ms, 80'000.0);
  EXPECT_GT(victims.size(), 0u);
  for (const Victim& v : victims)
    EXPECT_EQ(v.kind, Victim::Kind::kLowThroughput);
}

TEST(Diagnosis, CollidingFlowHashesStayDistinct) {
  // Two distinct flows whose 64-bit flow_hash collides: flow identity is
  // the tuple, so each keeps its own weight in the source relation.
  const FiveTuple a{make_ipv4(10, 0, 1, 1), make_ipv4(20, 0, 1, 1), 4000, 443,
                    6};
  const FiveTuple b{make_ipv4(10, 0, 1, 1), make_ipv4(20, 0, 0, 6), 4000, 505,
                    6};
  ASSERT_FALSE(a == b);
  ASSERT_EQ(flow_hash(a), flow_hash(b));

  sim::Simulator sim;
  collector::Collector col;
  auto net = build_single_firewall(sim, &col, 700);
  nf::CaidaLikeOptions topts;
  topts.duration = 30_ms;
  topts.rate_mpps = 0.8;
  auto traffic = nf::generate_caida_like(topts);
  nf::inject_burst(traffic, a, 10_ms, 1500, 120, 1);
  nf::inject_burst(traffic, b, 10_ms + 60, 1500, 120, 2);
  net.topo->source(net.source).load(std::move(traffic));
  sim.run_until(40_ms);

  const auto rt = reconstruct_of(*net.topo, col);
  Diagnoser diag(rt, net.topo->peak_rates());
  std::size_t checked = 0;
  for (const Diagnosis& d :
       diag.diagnose_all(diag.latency_victims_by_percentile(99.5))) {
    if (d.victim.time < 10_ms || d.victim.time > 14_ms) continue;
    for (const CausalRelation& rel : d.relations) {
      if (rel.culprit.kind != CauseKind::kSourceTraffic) continue;
      ++checked;
      std::size_t seen_a = 0, seen_b = 0;
      for (const FlowWeight& w : rel.flows) {
        seen_a += w.flow == a;
        seen_b += w.flow == b;
      }
      EXPECT_EQ(seen_a, 1u) << "victim at " << d.victim.time;
      EXPECT_EQ(seen_b, 1u) << "victim at " << d.victim.time;
    }
  }
  EXPECT_GT(checked, 10u);
}

/// A reconstructed trace and the peak rates to diagnose it with.
struct Scenario {
  trace::ReconstructedTrace rt;
  std::vector<RatePerNs> rates;
};

/// A Fig-10 burst window: a 3,000-packet line-rate burst of one flow on
/// top of 1 Mpps of CAIDA-like traffic through the 16-NF chain. Its
/// victims crowd into a few queuing periods.
Scenario fig10_burst() {
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig10(sim, &col);
  nf::CaidaLikeOptions topts;
  topts.duration = 30_ms;
  topts.rate_mpps = 1.0;
  topts.num_flows = 500;
  topts.seed = 4;
  auto traffic = nf::generate_caida_like(topts);
  nf::inject_burst(traffic, flow_a(), 15_ms, 3000, 100, 1);
  net.topo->source(net.source).load(std::move(traffic));
  sim.run_until(40_ms);
  return {reconstruct_of(*net.topo, col), net.topo->peak_rates()};
}

/// The 200-NF random DAG of test_parallel, with an interrupt at an entry
/// NF: 10-layer journeys and small periods.
Scenario dag200() {
  sim::Simulator sim;
  collector::Collector col;
  nf::TopologyGenOptions o;
  o.shape = nf::GenShape::kRandomDag;
  o.num_nfs = 200;
  o.layers = 10;
  o.max_fanout = 4;
  o.offered_rate_mpps = 0.8;
  o.seed = 7;
  auto g = nf::generate_topology(sim, &col, o);
  nf::CaidaLikeOptions topts;
  topts.duration = 5_ms;
  topts.rate_mpps = 0.8;
  topts.num_flows = 250;
  topts.seed = 9;
  g.topo->source(g.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, g.topo->nf(g.entry_nfs.front()), 2_ms, 500_us,
                         log);
  sim.run_until(40_ms);
  return {reconstruct_of(*g.topo, col), g.topo->peak_rates()};
}

/// Distinct (node, first arrival) queuing periods among the victims.
std::size_t distinct_periods(const Diagnoser& diag,
                             const std::vector<Victim>& victims) {
  std::set<std::pair<NodeId, std::size_t>> periods;
  for (const Victim& v : victims) {
    if (!diag.trace().has_timeline(v.node)) continue;
    const auto p = find_queuing_period(diag.trace().timeline(v.node), v.time,
                                       diag.options().period);
    if (p) periods.emplace(v.node, p->first_arrival);
  }
  return periods.size();
}

/// Victims sharing one diagnose_all call (and so its PreSet indices) get
/// what one diagnose() each gets, provenance included, in any order.
void expect_shared_equals_single(const Diagnoser& diag,
                                 const std::vector<Victim>& victims) {
  std::vector<Provenance> provs;
  const std::vector<Diagnosis> all = diag.diagnose_all(victims, nullptr, &provs);
  ASSERT_EQ(all.size(), victims.size());
  ASSERT_EQ(provs.size(), victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    Provenance prov;
    EXPECT_TRUE(diag.diagnose(victims[i], &prov) == all[i]) << "victim " << i;
    EXPECT_TRUE(prov == provs[i]) << "provenance of victim " << i;
  }
  std::vector<std::size_t> perm(victims.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::shuffle(perm.begin(), perm.end(), std::mt19937(7));
  std::vector<Victim> shuffled;
  for (const std::size_t i : perm) shuffled.push_back(victims[i]);
  const std::vector<Diagnosis> got = diag.diagnose_all(shuffled);
  for (std::size_t i = 0; i < perm.size(); ++i)
    EXPECT_TRUE(got[i] == all[perm[i]]) << "shuffled victim " << perm[i];
}

TEST(Diagnosis, SharedPresetIndexMatchesPerVictimOnFig10Burst) {
  const Scenario s = fig10_burst();
  const Diagnoser diag(s.rt, s.rates);
  std::vector<Victim> victims;
  for (const Victim& v : diag.latency_victims_by_threshold(100_us))
    if (v.time >= 15_ms && v.time < 25_ms) victims.push_back(v);
  ASSERT_GE(victims.size(), 500u);
  // A few periods, each shared by many victims.
  const std::size_t periods = distinct_periods(diag, victims);
  EXPECT_GT(periods, 1u);
  EXPECT_LE(periods * 20, victims.size());
  expect_shared_equals_single(diag, victims);
}

TEST(Diagnosis, SharedPresetIndexMatchesPerVictimOn200NfDag) {
  const Scenario s = dag200();
  const Diagnoser diag(s.rt, s.rates);
  const std::vector<Victim> victims = diag.latency_victims_by_threshold(50_us);
  ASSERT_GE(victims.size(), 100u);
  EXPECT_LT(distinct_periods(diag, victims), victims.size());
  expect_shared_equals_single(diag, victims);
}

/// PreSet(p) at the victim's NF by its definition (paper §4.1-§4.2): every
/// arrival of the period but the victim's, grouped by the node sequence
/// before the NF; per group its packets and per path position the span of
/// the source times (position 0) or of the hop's departs.
struct ReferencePreset {
  std::map<std::vector<NodeId>, std::pair<std::size_t, std::vector<double>>>
      groups;
  std::size_t grouped{0};
  std::size_t skipped{0};
};

ReferencePreset reference_preset(const trace::ReconstructedTrace& rt,
                                 const Victim& v, const QueuingPeriod& p) {
  std::map<std::vector<NodeId>, std::vector<std::uint32_t>> members;
  ReferencePreset ref;
  const trace::NodeTimeline& tl = rt.timeline(v.node);
  for (std::size_t i = p.first_arrival; i < p.last_arrival; ++i) {
    const std::uint32_t jid = rt.journey_of(tl.arrivals[i]);
    if (jid == v.journey) continue;
    if (jid == trace::kNoJourney) {
      ++ref.skipped;
      continue;
    }
    const trace::Journey& j = rt.journey(jid);
    std::vector<NodeId> path{j.source};
    bool reached = false;
    for (std::size_t k = 0; j.complete() && k < j.hops.size(); ++k) {
      if (j.hops[k].node == v.node) {
        reached = true;
        break;
      }
      path.push_back(j.hops[k].node);
    }
    if (!reached) {
      ++ref.skipped;
      continue;
    }
    members[path].push_back(jid);
    ++ref.grouped;
  }
  for (const auto& [path, jids] : members) {
    std::vector<double> spans;
    for (std::size_t k = 0; k < path.size(); ++k) {
      TimeNs lo = kTimeNever, hi = 0;
      for (const std::uint32_t jid : jids) {
        const trace::Journey& j = rt.journey(jid);
        const TimeNs t = k == 0 ? j.source_time : j.hops[k - 1].depart;
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
      spans.push_back(static_cast<double>(hi - lo));
    }
    ref.groups[path] = {jids.size(), spans};
  }
  return ref;
}

TEST(Diagnosis, PresetExcludesVictimBeforeSameTimestampArrivals) {
  // Packets of one upstream tx batch arrive at the same instant, so a
  // victim is often not the last arrival of its timestamp: the index must
  // leave the victim out of its path group and keep the members after it.
  // Every victim's root step is checked against PreSet(p) by definition.
  const Scenario s = fig10_burst();
  const Diagnoser diag(s.rt, s.rates);
  std::vector<Victim> victims;
  for (const Victim& v : diag.latency_victims_by_threshold(100_us))
    if (v.time >= 15_ms && v.time < 25_ms) victims.push_back(v);
  std::vector<Provenance> provs;
  diag.diagnose_all(victims, nullptr, &provs);

  std::size_t checked = 0, with_later_members = 0;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const Victim& v = victims[i];
    if (provs[i].steps.empty()) continue;
    const auto p = find_queuing_period(s.rt.timeline(v.node), v.time,
                                       diag.options().period);
    ASSERT_TRUE(p.has_value());
    const ReferencePreset ref = reference_preset(s.rt, v, *p);
    const PropagationStep& root = provs[i].steps.front();
    ASSERT_EQ(root.preset_packets, ref.grouped) << "victim " << i;
    ASSERT_EQ(root.preset_skipped, ref.skipped) << "victim " << i;
    ASSERT_EQ(root.paths.size(), ref.groups.size()) << "victim " << i;
    auto it = ref.groups.begin();
    for (const PathAttribution& pa : root.paths) {
      EXPECT_EQ(pa.path, it->first) << "victim " << i;
      EXPECT_EQ(pa.packets, it->second.first) << "victim " << i;
      ASSERT_EQ(pa.hops.size(), it->second.second.size());
      for (std::size_t k = 0; k < pa.hops.size(); ++k)
        EXPECT_EQ(pa.hops[k].timespan_ns, it->second.second[k])
            << "victim " << i << " position " << k;
      ++it;
    }
    ++checked;
    // Does an arrival after the victim's share its timestamp and its path?
    const trace::NodeTimeline& tl = s.rt.timeline(v.node);
    std::size_t at = p->first_arrival;
    while (s.rt.journey_of(tl.arrivals[at]) != v.journey) ++at;
    const trace::Journey& vj = s.rt.journey(v.journey);
    for (std::size_t i2 = at + 1;
         i2 < p->last_arrival && tl.arrivals[i2].t == v.time; ++i2) {
      const std::uint32_t jid = s.rt.journey_of(tl.arrivals[i2]);
      if (jid == trace::kNoJourney) continue;
      const trace::Journey& j = s.rt.journey(jid);
      if (j.source == vj.source && j.hops.size() == vj.hops.size() &&
          std::equal(j.hops.begin(), j.hops.end(), vj.hops.begin(),
                     [](const trace::Hop& x, const trace::Hop& y) {
                       return x.node == y.node;
                     })) {
        ++with_later_members;
        break;
      }
    }
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GT(with_later_members, 10u);
}

TEST(Diagnosis, MetricsCountEveryVictimOnce) {
  // core.diagnose.total_ns keeps one sample per victim however many share
  // an index, and no_period counts the victims with no queuing period.
  const Scenario s = fig10_burst();
  const Diagnoser diag(s.rt, s.rates);
  std::vector<Victim> victims;
  for (const Victim& v : diag.latency_victims_by_threshold(100_us))
    if (v.time >= 15_ms && v.time < 25_ms) victims.push_back(v);
  // Packets through an idle queue before the burst: no period there.
  std::size_t quiet = 0;
  for (const std::uint32_t id : s.rt.journey_order()) {
    const trace::Journey& j = s.rt.journey(id);
    if (j.hops.empty() || j.hops[0].arrival > 2_ms) continue;
    Victim v;
    v.journey = id;
    v.node = j.hops[0].node;
    v.time = j.hops[0].arrival;
    v.flow = j.flow;
    victims.push_back(v);
    if (++quiet == 40) break;
  }
  std::uint64_t no_period = 0;
  for (const Victim& v : victims)
    if (!s.rt.has_timeline(v.node) ||
        !find_queuing_period(s.rt.timeline(v.node), v.time,
                             diag.options().period))
      ++no_period;
  ASSERT_GT(no_period, 0u);

  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t victims0 = reg.counter("core.diagnose.victims").value();
  const std::uint64_t no_period0 =
      reg.counter("core.diagnose.no_period").value();
  const std::uint64_t samples0 =
      reg.histogram("core.diagnose.total_ns").snapshot().count;
  diag.diagnose_all(victims);
  EXPECT_EQ(reg.counter("core.diagnose.victims").value() - victims0,
            victims.size());
  EXPECT_EQ(reg.counter("core.diagnose.no_period").value() - no_period0,
            no_period);
  EXPECT_EQ(reg.histogram("core.diagnose.total_ns").snapshot().count - samples0,
            victims.size());
}

/// FNV-1a over every diagnosis field that perfbench's digest() covers, in
/// its order and byte layout.
struct Fnv {
  std::uint64_t h{1469598103934665603ULL};
  template <typename T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  void add_flow(const FiveTuple& f) {
    add(f.src_ip);
    add(f.dst_ip);
    add(f.src_port);
    add(f.dst_port);
    add(f.proto);
  }
};

std::uint64_t digest(const std::vector<Diagnosis>& ds) {
  Fnv f;
  f.add(ds.size());
  for (const Diagnosis& d : ds) {
    const Victim& v = d.victim;
    f.add(v.node);
    f.add(v.time);
    f.add(v.kind);
    f.add(v.hop_latency);
    f.add(v.e2e_latency);
    f.add_flow(v.flow);
    f.add(d.relations.size());
    for (const CausalRelation& r : d.relations) {
      f.add(r.culprit.node);
      f.add(r.culprit.kind);
      f.add(r.score);
      f.add(r.culprit_t0);
      f.add(r.culprit_t1);
      f.add(r.depth);
      f.add(r.flows.size());
      for (const FlowWeight& w : r.flows) {
        f.add_flow(w.flow);
        f.add(w.weight);
      }
    }
  }
  return f.h;
}

TEST(Diagnosis, OutputDigestIsPinned) {
  // Every diagnosis of test_parallel's Fig-10 multi-hop scenario, pinned
  // to the bytes the diagnoser produced before the PreSet index: a change
  // to any relation, score, interval or flow weight shows here, where the
  // other checks compare two runs of the same build. Relation order
  // follows libstdc++'s unordered_map iteration over the culprit nodes;
  // another standard library may order them differently. An intended
  // change of the output updates the constant and says so in CHANGES.md.
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig10(sim, &col);
  nf::CaidaLikeOptions topts;
  topts.duration = 12_ms;
  topts.rate_mpps = 1.0;
  topts.num_flows = 300;
  net.topo->source(net.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nats[0]), 4_ms, 600_us, log);
  sim.run_until(30_ms);

  const auto rt = reconstruct_of(*net.topo, col);
  const Diagnoser diag(rt, net.topo->peak_rates());
  const std::vector<Victim> victims = diag.latency_victims_by_threshold(100_us);
  ASSERT_FALSE(victims.empty());
  EXPECT_EQ(digest(diag.diagnose_all(victims)), 0x027d2490e9eefbc0ULL)
      << victims.size() << " victims";
}

}  // namespace
}  // namespace microscope::core
