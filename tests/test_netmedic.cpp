// Unit tests for the NetMedic baseline: metric construction, abnormality,
// ranking behaviour, and its characteristic time-window failure mode.
#include <gtest/gtest.h>

#include <cstring>

#include "eval/scenarios.hpp"
#include "netmedic/netmedic.hpp"
#include "nf/inject.hpp"
#include "nf/traffic.hpp"
#include "sim/simulator.hpp"
#include "trace/graph.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::netmedic {
namespace {

FiveTuple flow_a() {
  return {make_ipv4(10, 0, 1, 1), make_ipv4(20, 0, 1, 1), 4242, 443, 6};
}

struct Fig2Run {
  sim::Simulator sim;
  collector::Collector col;
  eval::Fig2Net net;

  Fig2Run() : net(eval::build_fig2(sim, &col)) {}

  trace::ReconstructedTrace run_with_interrupt(TimeNs at, DurationNs len) {
    nf::CaidaLikeOptions topts;
    topts.duration = 60_ms;
    topts.rate_mpps = 0.6;
    net.topo->source(net.caida_source).load(nf::generate_caida_like(topts));
    net.topo->source(net.flow_a_source)
        .load(nf::generate_constant_rate(flow_a(), 0, 60_ms, 0.05));
    nf::InjectionLog log;
    nf::schedule_interrupt(sim, net.topo->nf(net.nat), at, len, log);
    sim.run_until(80_ms);
    trace::ReconstructOptions ropt;
    ropt.prop_delay = net.topo->options().prop_delay;
    return trace::reconstruct(col, trace::graph_view(*net.topo), ropt);
  }
};

TEST(NetMedicTest, MetricsReflectTraffic) {
  Fig2Run run;
  const auto rt = run.run_with_interrupt(30_ms, 1_ms);
  NetMedicOptions opts;
  opts.window = 10_ms;
  NetMedic nm(rt, eval::busy_intervals(*run.net.topo), opts);
  ASSERT_GE(nm.window_count(), 6u);

  // The NAT processes ~0.6 Mpps => ~6000 packets per 10 ms window.
  const MetricRow& row = nm.metric(run.net.nat, 1);
  EXPECT_NEAR(row.in_rate, 6000.0, 1500.0);
  EXPECT_NEAR(row.out_rate, 6000.0, 1500.0);
  EXPECT_GT(row.cpu_util, 0.1);
  EXPECT_LT(row.cpu_util, 1.0);

  // During the interrupt window (30-40 ms = window 3) the NAT's backlog
  // spikes: a 1 ms stall at 0.6 Mpps input queues ~600 packets.
  const MetricRow& intr = nm.metric(run.net.nat, 3);
  EXPECT_GT(intr.queue_len, row.queue_len + 300.0);
}

TEST(NetMedicTest, RanksInterruptedNatForSameWindowVictim) {
  Fig2Run run;
  const auto rt = run.run_with_interrupt(30_ms, 1_ms);
  NetMedic nm(rt, eval::busy_intervals(*run.net.topo), {});

  // A victim at the VPN during the same 10 ms window as the interrupt:
  // same-window correlation works, the NAT should rank near the top.
  const auto ranked = nm.diagnose(run.net.vpn, 30_ms + 500_us);
  ASSERT_FALSE(ranked.empty());
  int nat_rank = 0;
  for (std::size_t i = 0; i < ranked.size(); ++i)
    if (ranked[i].node == run.net.nat) nat_rank = static_cast<int>(i + 1);
  ASSERT_GT(nat_rank, 0);
  // NetMedic is expected to be decent-but-not-great here (the paper's
  // interrupt rank-1 rate is ~53%); within the top 3 of 4 components.
  EXPECT_LE(nat_rank, 3);
}

TEST(NetMedicTest, MissesLaggedImpactAcrossWindows) {
  // The paper's core criticism: when the victim appears a few windows
  // after the culprit's abnormality, same-window correlation degrades.
  Fig2Run run;
  const auto rt = run.run_with_interrupt(30_ms, 1_ms);
  NetMedicOptions opts;
  opts.window = 1_ms;  // small windows: impact crosses window boundaries
  NetMedic nm(rt, eval::busy_intervals(*run.net.topo), opts);

  // Victim 3 ms after the interrupt ended: NAT looks normal in that window.
  const auto late = nm.diagnose(run.net.vpn, 34_ms);
  int nat_rank = 0;
  for (std::size_t i = 0; i < late.size(); ++i)
    if (late[i].node == run.net.nat) nat_rank = static_cast<int>(i + 1);
  // The NAT is either unranked-worthy (score ~0) or beaten by local/vpn.
  ASSERT_GT(nat_rank, 0);  // NetMedic always gives every component a rank
  const double nat_score = late[static_cast<std::size_t>(nat_rank - 1)].score;
  EXPECT_LT(nat_score, 1.0);
}

TEST(NetMedicTest, EveryReachableComponentRanked) {
  Fig2Run run;
  const auto rt = run.run_with_interrupt(30_ms, 1_ms);
  NetMedic nm(rt, eval::busy_intervals(*run.net.topo), {});
  const auto ranked = nm.diagnose(run.net.vpn, 10_ms);
  // Components with a path to the VPN: both sources, NAT, VPN itself.
  EXPECT_EQ(ranked.size(), 4u);
  // Diagnosing the NAT excludes the VPN and flow A's source.
  const auto ranked_nat = nm.diagnose(run.net.nat, 10_ms);
  EXPECT_EQ(ranked_nat.size(), 2u);
}

TEST(NetMedicTest, WindowSizeChangesVerdict) {
  // Sanity for the Fig. 13 sweep machinery: different window sizes produce
  // different rankings on the same data.
  Fig2Run run;
  const auto rt = run.run_with_interrupt(30_ms, 1_ms);
  const auto busy = eval::busy_intervals(*run.net.topo);

  std::vector<double> nat_scores;
  for (const DurationNs w : {1_ms, 10_ms, 100_ms}) {
    NetMedicOptions opts;
    opts.window = w;
    NetMedic nm(rt, busy, opts);
    const auto ranked = nm.diagnose(run.net.vpn, 31_ms);
    for (const auto& rc : ranked)
      if (rc.node == run.net.nat) nat_scores.push_back(rc.score);
  }
  ASSERT_EQ(nat_scores.size(), 3u);
  EXPECT_FALSE(nat_scores[0] == nat_scores[1] &&
               nat_scores[1] == nat_scores[2]);
}

TEST(NetMedicTest, MetricsDigestIsPinned) {
  // Every component's per-window metrics on a Fig-2 run whose 3 ms NAT
  // interrupt overflows the 1024-packet input queue, pinned by an FNV-1a
  // digest: drops and backlog read which arrivals the NF accepted, and
  // the other tests check them only approximately. An intended change of
  // the metrics updates the constant and says so in CHANGES.md.
  Fig2Run run;
  const auto rt = run.run_with_interrupt(30_ms, 3_ms);
  NetMedic nm(rt, eval::busy_intervals(*run.net.topo), {});
  std::uint64_t h = 1469598103934665603ULL;
  const auto add = [&h](double v) {
    unsigned char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  double drops = 0.0;
  for (NodeId id = 0; id < rt.graph().node_count(); ++id) {
    for (std::size_t w = 0; w < nm.window_count(); ++w) {
      const MetricRow& r = nm.metric(id, w);
      for (const double v :
           {r.in_rate, r.out_rate, r.drops, r.queue_len, r.cpu_util})
        add(v);
      drops += r.drops;
    }
  }
  EXPECT_GT(drops, 0.0);
  EXPECT_EQ(h, 0xa17ddc22283a7e26ULL) << nm.window_count() << " windows";
}

}  // namespace
}  // namespace microscope::netmedic
