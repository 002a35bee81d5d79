// Provenance capture: the recorded eqn (1)-(2) numbers must be exactly the
// ones the diagnoser computed (golden recomputation), every propagation
// step must conserve its base score, capture must not perturb the diagnosis
// itself, and the renderers must carry the numbers.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/diagnosis.hpp"
#include "core/period.hpp"
#include "eval/scenarios.hpp"
#include "nf/inject.hpp"
#include "nf/traffic.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/graph.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::core {
namespace {

FiveTuple flow_a() {
  return {make_ipv4(10, 0, 1, 1), make_ipv4(20, 0, 1, 1), 4242, 443, 6};
}

trace::ReconstructedTrace reconstruct_of(const nf::Topology& topo,
                                         const collector::Collector& col) {
  trace::ReconstructOptions ropt;
  ropt.prop_delay = topo.options().prop_delay;
  return trace::reconstruct(col, trace::graph_view(topo), ropt);
}

/// Fig. 1 burst scenario: one firewall, a burst at the source. Shared by
/// the golden / conservation / equivalence tests below.
struct BurstScenario {
  NodeId source{kInvalidNode};
  NodeId nf{kInvalidNode};
  std::vector<RatePerNs> rates;
  collector::Collector col;
  trace::ReconstructedTrace rt;

  BurstScenario() : rt(run(*this)) {}

 private:
  static trace::ReconstructedTrace run(BurstScenario& s) {
    sim::Simulator sim;
    auto net = eval::build_single_firewall(sim, &s.col, 700);
    s.source = net.source;
    s.nf = net.nf;
    nf::CaidaLikeOptions topts;
    topts.duration = 30_ms;
    topts.rate_mpps = 0.8;
    auto traffic = nf::generate_caida_like(topts);
    nf::inject_burst(traffic, flow_a(), 10_ms, 1500, 120, 1);
    net.topo->source(net.source).load(std::move(traffic));
    sim.run_until(40_ms);
    s.rates = net.topo->peak_rates();
    return reconstruct_of(*net.topo, s.col);
  }
};

const BurstScenario& burst_scenario() {
  static const BurstScenario* s = new BurstScenario();
  return *s;
}

/// |a - b| within 1e-6 relative to max(1, scale).
void expect_near_rel(double a, double b, double scale, const char* what) {
  EXPECT_LE(std::abs(a - b), 1e-6 * std::max(1.0, std::abs(scale)))
      << what << ": " << a << " vs " << b;
}

TEST(Provenance, GoldenLocalScoresMatchDirectRecomputation) {
  const BurstScenario& s = burst_scenario();
  Diagnoser diag(s.rt, s.rates);
  const auto victims = diag.latency_victims_by_percentile(99.5);
  ASSERT_GT(victims.size(), 20u);

  std::size_t with_period = 0;
  for (const Victim& v : victims) {
    Provenance prov;
    diag.diagnose(v, &prov);
    EXPECT_EQ(prov.victim, v);
    if (!prov.found_period) {
      EXPECT_TRUE(prov.steps.empty());
      continue;
    }
    ++with_period;
    // Recompute §4.1 from the same inputs: the captured period bounds and
    // eqn (1)-(2) numbers must be bit-identical, not merely close.
    const auto period = find_queuing_period(s.rt.timeline(v.node), v.time,
                                            diag.options().period);
    ASSERT_TRUE(period.has_value());
    EXPECT_EQ(prov.period_start, period->start);
    EXPECT_EQ(prov.period_end, period->end);
    const LocalScores ls =
        local_scores(s.rt.timeline(v.node), *period, s.rates[v.node]);
    EXPECT_EQ(prov.local.n_i, ls.n_i);
    EXPECT_EQ(prov.local.n_p, ls.n_p);
    EXPECT_EQ(prov.local.expected, ls.expected);
    EXPECT_EQ(prov.local.s_i, ls.s_i);
    EXPECT_EQ(prov.local.s_p, ls.s_p);
    EXPECT_EQ(prov.emitted_local, ls.s_p > diag.options().min_score);
    EXPECT_EQ(prov.propagated, ls.s_i > diag.options().min_score);
    if (prov.propagated) {
      ASSERT_FALSE(prov.steps.empty());
      const PropagationStep& root = prov.steps[0];
      EXPECT_EQ(root.parent, -1);
      EXPECT_EQ(root.node, v.node);
      EXPECT_EQ(root.depth, 0);
      EXPECT_EQ(root.base_score, ls.s_i);
      EXPECT_EQ(root.period_start, period->start);
      EXPECT_EQ(root.period_end, period->end);
      EXPECT_EQ(root.r_pkts_per_ns, s.rates[v.node].pkts_per_ns);
      if (root.preset_packets > 0) {
        // T_exp = n_i / r_f over the PreSet (§4.2).
        EXPECT_EQ(root.t_exp_ns,
                  static_cast<double>(period->arrival_count()) /
                      s.rates[v.node].pkts_per_ns);
      }
    } else {
      EXPECT_TRUE(prov.steps.empty());
    }
  }
  EXPECT_GT(with_period, 10u);
}

TEST(Provenance, EveryStepConservesItsBaseScore) {
  const BurstScenario& s = burst_scenario();
  Diagnoser diag(s.rt, s.rates);
  const auto victims = diag.latency_victims_by_percentile(99.5);
  ASSERT_GT(victims.size(), 20u);

  std::size_t steps_checked = 0;
  for (const Victim& v : victims) {
    Provenance prov;
    diag.diagnose(v, &prov);
    for (const PropagationStep& st : prov.steps) {
      ++steps_checked;
      // attributed + uncharged must recover base_score up to FP rounding
      // (uncharged = shares of paths with no visible compression, which
      // attribute_timespan deliberately charges to nobody).
      expect_near_rel(st.attributed + st.uncharged, st.base_score,
                      st.base_score, "attributed + uncharged");
      EXPECT_EQ(st.residual, st.base_score - st.attributed - st.uncharged);
      double share_sum = 0.0;
      for (const PathAttribution& p : st.paths) {
        share_sum += p.share;
        // Within a path: hop scores sum to the share, or to zero when the
        // path showed no compression.
        double hop_sum = 0.0;
        for (const HopAttribution& h : p.hops) hop_sum += h.score;
        if (hop_sum > 0.0) expect_near_rel(hop_sum, p.share, p.share, "hops");
      }
      if (st.preset_packets > 0)
        expect_near_rel(share_sum, st.base_score, st.base_score, "shares");
      // Culprit buckets are exactly the hop shares regrouped by node.
      double culprit_sum = 0.0;
      for (const CulpritAttribution& c : st.culprits) {
        culprit_sum += c.score;
        if (c.outcome == AttributionOutcome::kRecursed)
          expect_near_rel(c.local_part + c.input_part, c.score, c.score,
                          "recursed split");
      }
      expect_near_rel(culprit_sum, st.attributed, st.base_score, "culprits");
    }
  }
  EXPECT_GT(steps_checked, 10u);
}

/// Every step's base score is either attributed or charged to nobody.
/// Returns the steps that charged all of it to nobody.
std::size_t expect_steps_audited(const Diagnoser& diag,
                                 const std::vector<Victim>& victims) {
  std::size_t uncharged_steps = 0;
  std::size_t steps = 0;
  for (const Victim& v : victims) {
    Provenance prov;
    diag.diagnose(v, &prov);
    for (const PropagationStep& st : prov.steps) {
      ++steps;
      expect_near_rel(st.attributed + st.uncharged, st.base_score,
                      st.base_score, "attributed + uncharged");
      if (st.base_score > 0.0 && st.attributed == 0.0 &&
          st.uncharged == st.base_score)
        ++uncharged_steps;
    }
  }
  EXPECT_GT(steps, 0u);
  return uncharged_steps;
}

TEST(Provenance, StepsThatChargeNobodyStayInTheAudit) {
  // No service rate at the victim NF: there is no expected span to
  // compare the PreSet's timespans with, so the step charges nobody.
  {
    const BurstScenario& s = burst_scenario();
    std::vector<RatePerNs> rates = s.rates;
    rates[s.nf] = RatePerNs{0.0};
    Diagnoser diag(s.rt, rates);
    const auto victims = diag.latency_victims_by_percentile(99.5);
    ASSERT_GT(victims.size(), 20u);
    EXPECT_GT(expect_steps_audited(diag, victims), 0u);
  }
  // A PreSet with no complete path: nf2's queue holds 20 packets from nf1,
  // whose reads match none of source A's IPIDs (so their journeys stop at
  // nf1), ahead of the one packet from source B that becomes the victim.
  {
    constexpr NodeId kA = 0, kB = 1, kNf1 = 2, kNf2 = 3, kSink = 4;
    collector::Collector col;
    col.register_node(kA, true);
    col.register_node(kB, true);
    col.register_node(kNf1, false);
    col.register_node(kNf2, true);
    std::vector<Packet> from_a(20), through_nf1(20);
    for (std::uint16_t i = 0; i < 20; ++i) {
      from_a[i].ipid = static_cast<std::uint16_t>(1 + i);
      through_nf1[i].ipid = static_cast<std::uint16_t>(1001 + i);
    }
    Packet b;
    b.ipid = 7777;
    b.flow = flow_a();
    col.on_tx(kA, kNf1, 1'000, from_a);
    col.on_rx(kNf1, 20'000, through_nf1);
    col.on_tx(kNf1, kNf2, 21'000, through_nf1);
    col.on_tx(kB, kNf2, 25'000, {&b, 1});
    col.on_rx(kNf2, 60'000, through_nf1);
    col.on_rx(kNf2, 61'000, {&b, 1});
    col.on_tx(kNf2, kSink, 100'000, through_nf1);
    col.on_tx(kNf2, kSink, 101'000, {&b, 1});
    trace::GraphView g;
    g.sink = kSink;
    g.kinds = {trace::NodeKind::kSource, trace::NodeKind::kSource,
               trace::NodeKind::kNf, trace::NodeKind::kNf,
               trace::NodeKind::kSink};
    g.names = {"a", "b", "nf1", "nf2", "sink"};
    g.upstreams = {{}, {}, {kA}, {kNf1, kB}, {kNf2}};
    g.downstreams = {{kNf1}, {kNf2}, {kNf2}, {kSink}, {}};
    trace::ReconstructOptions ropt;
    ropt.max_batch = 1;  // no read proves the queue empty
    const trace::ReconstructedTrace rt = trace::reconstruct(col, g, ropt);
    const std::vector<RatePerNs> rates(5, RatePerNs{1e-5});
    Diagnoser diag(rt, rates);
    const auto victims = diag.latency_victims_by_threshold(1_us);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0].node, kNf2);
    EXPECT_GT(expect_steps_audited(diag, victims), 0u);
  }
}

TEST(Provenance, CaptureDoesNotPerturbTheDiagnosis) {
  const BurstScenario& s = burst_scenario();
  Diagnoser diag(s.rt, s.rates);
  const auto victims = diag.latency_victims_by_percentile(99.5);
  ASSERT_GT(victims.size(), 20u);
  for (const Victim& v : victims) {
    const Diagnosis plain = diag.diagnose(v);
    Provenance prov;
    const Diagnosis captured = diag.diagnose(v, &prov);
    EXPECT_EQ(plain, captured);
  }
}

TEST(Provenance, ResidualGaugeAccumulatesOnlyRounding) {
  const BurstScenario& s = burst_scenario();
  obs::Gauge& g =
      obs::Registry::global().gauge("core.diagnosis.attribution_residual");
  const double before = g.value();
  Diagnoser diag(s.rt, s.rates);
  const auto victims = diag.latency_victims_by_percentile(99.5);
  std::size_t propagations = 0;
  for (const Victim& v : victims) {
    Provenance prov;
    diag.diagnose(v, &prov);
    propagations += prov.steps.size();
  }
  ASSERT_GT(propagations, 0u);
  // The gauge accumulates |rounding| per propagate call; real leakage would
  // show up as O(packets), not O(epsilon).
  EXPECT_LE(g.value() - before, 1e-3);
  EXPECT_GE(g.value() - before, 0.0);
}

TEST(Provenance, RecursionLinksChildStepsBothWays) {
  // Fig. 2: interrupt at the NAT; flow-A victims at the VPN force the
  // diagnoser to recurse VPN -> NAT, so the provenance tree must have a
  // child step whose parent culprit points at it and vice versa.
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig2(sim, &col);
  nf::CaidaLikeOptions topts;
  topts.duration = 30_ms;
  topts.rate_mpps = 0.7;
  topts.seed = 3;
  net.topo->source(net.caida_source).load(nf::generate_caida_like(topts));
  net.topo->source(net.flow_a_source)
      .load(nf::generate_constant_rate(flow_a(), 0, 30_ms, 0.05));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nat), 10_ms, 800_us, log);
  sim.run_until(40_ms);
  const auto rt = reconstruct_of(*net.topo, col);
  Diagnoser diag(rt, net.topo->peak_rates());

  std::size_t recursed_culprits = 0;
  for (const Victim& v : diag.latency_victims_by_threshold(60_us)) {
    if (!(v.flow == flow_a()) || v.node != net.vpn) continue;
    if (v.time < 10_ms + 700_us || v.time > 13_ms) continue;
    Provenance prov;
    diag.diagnose(v, &prov);
    for (std::size_t i = 0; i < prov.steps.size(); ++i) {
      const PropagationStep& st = prov.steps[i];
      for (const CulpritAttribution& c : st.culprits) {
        if (c.outcome != AttributionOutcome::kRecursed) continue;
        EXPECT_GT(c.sub_s_i + c.sub_s_p, 0.0);
        // child_step is -1 when the input part fell below min_score and
        // was not pushed upstream.
        if (c.child_step < 0) continue;
        ++recursed_culprits;
        ASSERT_LT(static_cast<std::size_t>(c.child_step), prov.steps.size());
        const PropagationStep& child =
            prov.steps[static_cast<std::size_t>(c.child_step)];
        EXPECT_EQ(child.parent, static_cast<int>(i));
        EXPECT_EQ(child.node, c.node);
        EXPECT_EQ(child.depth, st.depth + 1);
        // What the parent pushed upstream is exactly the child's budget.
        EXPECT_EQ(child.base_score, c.input_part);
      }
      // Every non-root step must be some culprit's child.
      if (st.parent >= 0) {
        ASSERT_LT(static_cast<std::size_t>(st.parent), prov.steps.size());
        bool linked = false;
        for (const CulpritAttribution& pc :
             prov.steps[static_cast<std::size_t>(st.parent)].culprits)
          if (pc.child_step == static_cast<int>(i)) linked = true;
        EXPECT_TRUE(linked);
      }
    }
  }
  EXPECT_GT(recursed_culprits, 0u);
}

TEST(Provenance, RenderersCarryTheNumbers) {
  const BurstScenario& s = burst_scenario();
  Diagnoser diag(s.rt, s.rates);
  const auto victims = diag.latency_victims_by_percentile(99.5);
  const Victim* pick = nullptr;
  Provenance prov;
  for (const Victim& v : victims) {
    diag.diagnose(v, &prov);
    if (prov.found_period && prov.propagated) {
      pick = &v;
      break;
    }
  }
  ASSERT_NE(pick, nullptr);

  std::vector<std::string> names(s.nf + 1);
  names[s.source] = "src";
  names[s.nf] = "fw";
  const std::string tree = render_explain_tree(prov, names);
  EXPECT_NE(tree.find("journey #" + std::to_string(pick->journey)),
            std::string::npos);
  EXPECT_NE(tree.find("queuing period at fw"), std::string::npos);
  EXPECT_NE(tree.find("n_i = "), std::string::npos);
  EXPECT_NE(tree.find("S_i = "), std::string::npos);
  EXPECT_NE(tree.find("(input workload, eq 1)"), std::string::npos);
  EXPECT_NE(tree.find("propagate "), std::string::npos);
  EXPECT_NE(tree.find("T_exp = n_i/r = "), std::string::npos);
  EXPECT_NE(tree.find("=> src [source-traffic]"), std::string::npos);
  // Unnamed nodes fall back to node<N>.
  const std::string fallback =
      render_explain_tree(prov, std::vector<std::string>{});
  EXPECT_NE(fallback.find("node" + std::to_string(pick->node)),
            std::string::npos);

  const std::string json = provenance_to_json(prov, names);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"build\": {"), std::string::npos);
  EXPECT_NE(json.find("\"git_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"found_period\": true"), std::string::npos);
  EXPECT_NE(json.find("\"s_i\": "), std::string::npos);
  EXPECT_NE(json.find("\"steps\": ["), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"emitted-source\""), std::string::npos);

  // A period-less victim renders the "provably empty" explanation.
  for (const Victim& v : victims) {
    Provenance p2;
    diag.diagnose(v, &p2);
    if (p2.found_period) continue;
    const std::string t2 = render_explain_tree(p2, names);
    EXPECT_NE(t2.find("no queuing period"), std::string::npos);
    const std::string j2 = provenance_to_json(p2, names);
    EXPECT_NE(j2.find("\"found_period\": false"), std::string::npos);
    break;
  }
}

}  // namespace
}  // namespace microscope::core
