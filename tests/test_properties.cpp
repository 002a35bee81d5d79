// Property-based tests across modules: conservation laws, monotonicity,
// and queue-timeline fidelity, swept over random seeds (TEST_P).
#include <gtest/gtest.h>

#include "eval/scenarios.hpp"
#include "microscope/microscope.hpp"

namespace microscope {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// The reconstructed queue timeline must agree with the live queue depth
/// the simulator actually saw, sampled at random instants.
TEST_P(SeededProperty, TimelineQueueMatchesLiveQueue) {
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_single_firewall(sim, &col, 700);
  nf::CaidaLikeOptions topts;
  topts.duration = 10_ms;
  topts.rate_mpps = 1.1;  // ~77% util: real queueing happens
  topts.seed = GetParam();
  auto traffic = nf::generate_caida_like(topts);
  nf::inject_burst(traffic, {make_ipv4(7, 7, 7, 7), make_ipv4(6, 6, 6, 6),
                             1, 2, 6},
                   4_ms, 600, 130, 1);
  net.topo->source(net.source).load(std::move(traffic));

  // Sample the live queue depth at fixed instants during the run.
  std::vector<std::pair<TimeNs, std::size_t>> samples;
  nf::NfInstance& fw = net.topo->nf(net.nf);
  for (TimeNs t = 500_us; t < 10_ms; t += 333_us) {
    sim.schedule_at(t, [&samples, &fw, t] {
      samples.push_back({t, fw.queue_depth()});
    });
  }
  sim.run_until(20_ms);

  const auto rt = trace::reconstruct(col, trace::graph_view(*net.topo), {});
  const auto& tl = rt.timeline(net.nf);
  for (const auto& [t, live] : samples) {
    // Inferred backlog at time t: accepted arrivals minus reads.
    std::uint64_t arrived = 0;
    for (const auto& a : tl.arrivals) {
      if (a.t > t) break;
      if (rt.accepted(a)) ++arrived;
    }
    const std::uint64_t read = tl.reads_in(-1, t);
    const auto inferred = static_cast<std::int64_t>(arrived - read);
    // Batch-timestamp granularity allows a one-batch discrepancy.
    EXPECT_NEAR(static_cast<double>(inferred), static_cast<double>(live), 33.0)
        << "at t=" << t;
  }
}

/// Diagnosis conserves blame: the total score of all causal relations never
/// exceeds the victim period's buildup (s_i + s_p), and every relation has
/// a positive score and a sane time window.
TEST_P(SeededProperty, DiagnosisConservesBlameMass) {
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig10(sim, &col);
  nf::CaidaLikeOptions topts;
  topts.duration = 30_ms;
  topts.rate_mpps = 1.2;
  topts.num_flows = 500;
  topts.seed = GetParam() ^ 0xABC;
  auto traffic = nf::generate_caida_like(topts);
  nf::inject_burst(traffic, {make_ipv4(10, 70, 0, 1), make_ipv4(172, 31, 2, 2),
                             700, 443, 6},
                   10_ms, 1200, 130, 1);
  net.topo->source(net.source).load(std::move(traffic));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nats[1]), 18_ms, 700_us, log);
  sim.run_until(50_ms);

  trace::ReconstructOptions ropt;
  ropt.prop_delay = net.topo->options().prop_delay;
  const auto rt = trace::reconstruct(col, trace::graph_view(*net.topo), ropt);
  core::Diagnoser diag(rt, net.topo->peak_rates());
  const auto peak_rates = net.topo->peak_rates();

  std::size_t checked = 0;
  for (const auto& v : diag.latency_victims_by_threshold(120_us)) {
    if (checked > 150) break;
    const auto period =
        core::find_queuing_period(rt.timeline(v.node), v.time, {});
    if (!period) continue;
    const auto ls =
        core::local_scores(rt.timeline(v.node), *period, peak_rates[v.node]);
    const auto d = diag.diagnose(v);
    double total = 0;
    for (const auto& rel : d.relations) {
      EXPECT_GT(rel.score, 0.0);
      EXPECT_LE(rel.culprit_t0, rel.culprit_t1);
      EXPECT_GE(rel.depth, 0);
      total += rel.score;
    }
    EXPECT_LE(total, ls.s_i + ls.s_p + 1e-6)
        << "blame mass exceeds the period buildup";
    ++checked;
  }
  EXPECT_GT(checked, 30u);
}

/// Queuing periods are monotone in the threshold: a larger threshold never
/// yields an earlier start.
TEST_P(SeededProperty, PeriodStartMonotoneInThreshold) {
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_single_firewall(sim, &col, 700);
  nf::CaidaLikeOptions topts;
  topts.duration = 10_ms;
  topts.rate_mpps = 1.3;  // ~91% util
  topts.seed = GetParam() ^ 0x77;
  net.topo->source(net.source).load(nf::generate_caida_like(topts));
  sim.run_until(20_ms);

  const auto rt = trace::reconstruct(col, trace::graph_view(*net.topo), {});
  const auto& tl = rt.timeline(net.nf);
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    const TimeNs t = static_cast<TimeNs>(rng.uniform_i64(1'000'000, 9'000'000));
    TimeNs prev_start = 0;
    for (const std::uint32_t th : {0u, 4u, 16u, 64u}) {
      core::QueuingPeriodOptions opt;
      opt.queue_threshold = th;
      const auto p = core::find_queuing_period(tl, t, opt);
      if (!p) break;
      EXPECT_GE(p->start, prev_start) << "threshold " << th;
      prev_start = p->start;
    }
  }
}

/// rank_causes groups correctly: the sum of ranked scores equals the sum of
/// relation scores, and the order is non-increasing.
TEST_P(SeededProperty, RankCausesGroupsAndOrders) {
  Rng rng(GetParam() ^ 0x5EED);
  core::Diagnosis d;
  double total = 0;
  for (int i = 0; i < 60; ++i) {
    core::CausalRelation rel;
    rel.culprit.node = static_cast<NodeId>(rng.uniform_u64(6));
    rel.culprit.kind = rng.bernoulli(0.5) ? core::CauseKind::kSourceTraffic
                                          : core::CauseKind::kLocalProcessing;
    rel.score = rng.uniform(0.1, 10.0);
    rel.culprit_t0 = rng.uniform_i64(0, 1000);
    rel.culprit_t1 = rel.culprit_t0 + rng.uniform_i64(0, 1000);
    total += rel.score;
    d.relations.push_back(rel);
  }
  const auto ranked = core::rank_causes(d);
  double ranked_total = 0;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    ranked_total += ranked[i].score;
    if (i > 0) {
      EXPECT_LE(ranked[i].score, ranked[i - 1].score);
    }
    EXPECT_EQ(core::rank_of(ranked, ranked[i].culprit),
              static_cast<int>(i + 1));
  }
  EXPECT_NEAR(ranked_total, total, 1e-9);
  EXPECT_EQ(core::rank_of(ranked, {99, core::CauseKind::kSourceTraffic}), 0);
}

/// Pattern count is non-increasing in the aggregation threshold.
TEST_P(SeededProperty, PatternCountMonotoneInThreshold) {
  Rng rng(GetParam() ^ 0xA66);
  autofocus::NfCatalog cat;
  cat.node_names = {"sink", "src", "fw1", "fw2"};
  cat.type_names = {"sink", "source", "fw"};
  cat.type_of = {0, 1, 2, 2};
  std::vector<autofocus::RelationRecord> records;
  for (int i = 0; i < 600; ++i) {
    autofocus::RelationRecord r;
    r.culprit_flow = {make_ipv4(10, 0, 0, static_cast<std::uint32_t>(
                                              rng.uniform_u64(30))),
                      make_ipv4(20, 0, 0, 1),
                      static_cast<std::uint16_t>(rng.uniform_u64(2000)),
                      static_cast<std::uint16_t>(80 + rng.uniform_u64(3)), 6};
    r.culprit_nf = 2 + static_cast<NodeId>(rng.uniform_u64(2));
    r.kind = core::CauseKind::kLocalProcessing;
    r.victim_flow = r.culprit_flow;
    r.victim_nf = r.culprit_nf;
    r.score = rng.uniform(0.1, 2.0);
    records.push_back(r);
  }
  std::size_t prev = static_cast<std::size_t>(-1);
  for (const double th : {0.002, 0.01, 0.05, 0.2}) {
    autofocus::AggregateOptions opts;
    opts.threshold_frac = th;
    const auto patterns = autofocus::aggregate_patterns(records, cat, opts);
    EXPECT_LE(patterns.size(), prev) << "threshold " << th;
    prev = patterns.size();
  }
}

/// SwitchNf is diagnosable like any other NF (paper footnote 1).
TEST_P(SeededProperty, SwitchActsAsDiagnosableNf) {
  sim::Simulator sim;
  collector::Collector col;
  nf::Topology topo(sim, &col);
  auto& src = topo.add_source("s");
  nf::NfConfig sw_cfg;
  sw_cfg.name = "sw1";
  sw_cfg.base_service_ns = 60;  // fast forwarding
  auto& sw = topo.add_switch(sw_cfg);
  nf::NfConfig vcfg;
  vcfg.name = "vpn1";
  vcfg.base_service_ns = 900;
  vcfg.record_full_flow = true;
  auto& vpn = topo.add_vpn(vcfg, 2);
  src.set_router([id = sw.id()](const Packet&) { return id; });
  sw.set_router([id = vpn.id()](const Packet&) { return id; });
  vpn.set_router([s = topo.sink_id()](const Packet&) { return s; });
  topo.add_edge(src.id(), sw.id());
  topo.add_edge(sw.id(), vpn.id());
  topo.add_edge(vpn.id(), topo.sink_id());

  nf::CaidaLikeOptions topts;
  topts.duration = 10_ms;
  topts.rate_mpps = 0.6;
  topts.seed = GetParam();
  src.load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  // Interrupt the *switch*: its queue builds and victims downstream point
  // back at it, exactly like an NF culprit.
  nf::schedule_interrupt(sim, sw, 4_ms, 600_us, log);
  sim.run_until(20_ms);

  const auto rt = trace::reconstruct(col, trace::graph_view(topo), {});
  core::Diagnoser diag(rt, topo.peak_rates());
  std::size_t checked = 0, sw_blamed = 0;
  for (const auto& v : diag.latency_victims_by_threshold(100_us)) {
    if (v.time < 4_ms || v.time > 6_ms) continue;
    ++checked;
    const auto ranked = core::rank_causes(diag.diagnose(v));
    if (!ranked.empty() && ranked[0].culprit.node == sw.id()) ++sw_blamed;
  }
  ASSERT_GT(checked, 10u);
  EXPECT_GT(static_cast<double>(sw_blamed) / static_cast<double>(checked),
            0.8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace microscope
