// End-to-end chaos suite: wire corruption, dumper crashes, clock skew,
// timestamp regressions, and late/duplicated chunks composed through the
// full online pipeline. The contract under test is survival, not accuracy:
// no crashes, windows keep closing, and every diagnosis that emerges still
// satisfies the attribution conservation invariant. Companion tests pin the
// narrower skew behaviors (salvage_trace, StreamStore eviction, watermark
// advance) the composed suite relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "collector/collector.hpp"
#include "collector/file.hpp"
#include "eval/experiment.hpp"
#include "eval/scenarios.hpp"
#include "online/engine.hpp"
#include "online/stream_store.hpp"
#include "sim/simulator.hpp"
#include "testing/chaos.hpp"
#include "trace/graph.hpp"

namespace microscope {
namespace {

using online::OnlineEngine;
using online::OnlineOptions;

OnlineOptions chaos_engine_options(DurationNs prop_delay) {
  OnlineOptions oopt;
  oopt.window_ns = 10_ms;
  oopt.slack_ns = 5_ms;
  oopt.diagnoser.max_depth = 5;
  oopt.diagnoser.period.max_lookback = 3_ms;
  oopt.reconstruct.prop_delay = prop_delay;
  return oopt;
}

TEST(ChaosTest, CorruptionSkewCrashOnFig10) {
  eval::ExperimentConfig cfg;
  cfg.traffic.duration = 100_ms;
  cfg.traffic.rate_mpps = 1.0;
  cfg.traffic.num_flows = 800;
  cfg.plan.bursts = 0;
  cfg.plan.bug_triggers = 0;
  cfg.plan.interrupts = 2;
  cfg.plan.interrupt_min = 800_us;
  cfg.plan.interrupt_max = 1500_us;
  cfg.plan.first_at = 25_ms;
  cfg.plan.spacing = 40_ms;
  cfg.seed = 31;
  const eval::Experiment ex = eval::run_experiment(cfg);

  testing::ChaosOptions chaos;  // defaults: 4 corruptions, 1 crash, 2
                                // regressions, 2 ms skew, dup + reorder
  const testing::ChaosReport report = testing::run_chaos(
      *ex.collector, trace::graph_view(*ex.net.topo), ex.peak_rates(),
      chaos_engine_options(ex.net.topo->options().prop_delay), chaos);

  // Every configured fault landed.
  EXPECT_EQ(report.corruptions_applied, chaos.corruptions);
  EXPECT_EQ(report.crashes_applied, chaos.dumper_crashes);
  EXPECT_GE(report.ts_regressions_applied, 1);
  EXPECT_GT(report.frames, 1000u);

  // The decoder noticed at least some of the damage and kept going: most
  // of the stream still decodes into records.
  EXPECT_GE(report.decode.dropped(), 1u);
  EXPECT_GT(report.decode.records, report.frames / 2);

  // Windows kept closing across the whole run, and diagnosis still fired.
  EXPECT_GE(report.windows, 8u);
  EXPECT_GT(report.diagnoses, 0u);

  // The acceptance bar: every attribution emitted under chaos conserves
  // its score (PR 5 invariant, audited per propagation step).
  EXPECT_GT(report.provenance_steps, 0u);
  EXPECT_TRUE(report.conservation_ok)
      << "max residual " << report.max_conservation_residual;
}

TEST(ChaosTest, FailoverMidWindowUnderChaos) {
  eval::FailoverOptions fopt;
  fopt.traffic.duration = 100_ms;
  fopt.traffic.rate_mpps = 0.8;
  fopt.traffic.num_flows = 800;
  fopt.event_at = 45_ms;
  fopt.fail_primary = true;  // primary wedges mid-window, spare takes over
  fopt.interrupts_before = 2;
  fopt.interrupts_after = 2;
  fopt.interrupt_min = 1500_us;  // victims must clear the latency threshold
  fopt.interrupt_max = 2500_us;
  fopt.seed = 13;
  const eval::FailoverRun run = eval::run_failover(fopt);

  OnlineOptions oopt =
      chaos_engine_options(run.net.topo->options().prop_delay);
  oopt.latency_threshold = 500_us;
  // The crashed primary's stream goes silent at event_at; without an idle
  // timeout its stalled watermark would wedge every later window.
  oopt.idle_timeout_ns = 20_ms;

  testing::ChaosOptions chaos;
  chaos.seed = 7;
  chaos.duplicate_prob = 0.15;
  chaos.reorder_prob = 0.15;
  const testing::ChaosReport report =
      testing::run_chaos(*run.collector, trace::graph_view(*run.net.topo),
                         run.peak_rates(), oopt, chaos);

  EXPECT_GE(report.stats.windows_idle_forced, 1u);
  EXPECT_GT(report.chunks_duplicated, 0u);
  EXPECT_GT(report.chunks_reordered, 0u);

  // Windows cover the post-failover half of the run.
  TimeNs last_end = 0;
  for (const online::WindowResult& w : report.results)
    last_end = std::max(last_end, w.end);
  EXPECT_GE(last_end, run.event_at + 20_ms);

  EXPECT_GT(report.diagnoses, 0u);
  EXPECT_TRUE(report.conservation_ok)
      << "max residual " << report.max_conservation_residual;
}

/// Two-node deterministic recording: node 1 rx, node 2 full-flow tx, one
/// batch each per step.
collector::Collector make_two_node_store(int steps, DurationNs step) {
  collector::Collector col;
  col.register_node(1, false);
  col.register_node(2, true);
  for (int i = 0; i < steps; ++i) {
    Packet p;
    p.ipid = static_cast<std::uint16_t>(i + 1);
    p.flow = FiveTuple{make_ipv4(10, 0, 0, 1), make_ipv4(20, 0, 0, 2), 1000,
                       443, 6};
    const TimeNs ts = static_cast<TimeNs>(i) * step;
    col.on_rx(1, ts, {&p, 1});
    col.on_tx(2, 3, ts + 5_us, {&p, 1});
  }
  return col;
}

TEST(ChaosTest, SalvageClockSkewedTrace) {
  collector::Collector col = make_two_node_store(200, 1_ms);

  // Constant per-node skew keeps every per-stream ordering contract: no
  // decode faults may result from skew alone.
  testing::apply_clock_skew(col, {0, 2_ms, 500_us, 0});

  // One genuinely regressed record: a mid-stream rx batch on node 1 jumps
  // 50 ms backwards (far past the 10 ms file-load tolerance).
  auto& batches = col.mutable_node(1).rx_batches;
  ASSERT_GT(batches.size(), 150u);
  batches[150].ts -= 50_ms;

  const std::string path = "/tmp/microscope_chaos_skew.trace";
  collector::save_trace_stream(col, path);
  const collector::TraceLoadResult got = collector::salvage_trace(path);
  std::remove(path.c_str());

  // Exactly the one regressed record is dropped; everything after it on
  // the same stream still loads (the validator tracks the last *accepted*
  // timestamp, so one bad record cannot wedge the rest of the stream).
  EXPECT_EQ(got.decode.timestamp_regression, 1u);
  EXPECT_EQ(got.decode.records, 2u * 200u - 1u);
  EXPECT_FALSE(got.truncated());
  EXPECT_FALSE(got.complete());
  ASSERT_TRUE(got.col.has_node(1));
  EXPECT_EQ(got.col.node(1).rx_batches.size(), 199u);
  EXPECT_EQ(got.col.node(2).tx_batches.size(), 200u);
}

TEST(ChaosTest, StreamStoreSkewedEvictionDoesNotLeak) {
  online::StreamStore store;
  store.register_node(1, false);
  const Packet pkt{};
  auto add = [&](TimeNs ts) {
    store.add(collector::Direction::kRx, 1, kInvalidNode, ts, {&pkt, 1});
  };
  // A skewed stream: 10 ms, 20 ms, then a regressed 12 ms batch.
  add(10_ms);
  add(20_ms);
  add(12_ms);

  // Front-of-stream eviction: the 12 ms batch survives a 15 ms horizon
  // (blocked behind its 20 ms positional predecessor) but is released —
  // not leaked — once the predecessor passes the horizon too.
  store.evict_before(15_ms);
  EXPECT_EQ(store.retained_batches(), 2u);
  store.evict_before(21_ms);
  EXPECT_EQ(store.retained_batches(), 0u);
}

TEST(ChaosTest, EngineWatermarkNotWedgedByLateRecords) {
  sim::Simulator sim;
  const eval::SingleNf net = eval::build_single_firewall(sim, nullptr);
  const trace::GraphView graph = trace::graph_view(*net.topo);
  const NodeId sink = net.topo->sink_id();

  OnlineOptions oopt;
  oopt.window_ns = 5_ms;
  oopt.slack_ns = 1_ms;
  oopt.diagnose_latency = false;
  OnlineEngine engine(graph, net.topo->peak_rates(), oopt);
  engine.register_node(net.source, true);
  engine.register_node(net.nf, true);

  std::uint64_t windows = 0;
  auto feed_range = [&](TimeNs lo, TimeNs hi) {
    for (TimeNs ts = lo; ts < hi; ts += 100_us) {
      Packet p;
      p.ipid = static_cast<std::uint16_t>(ts / 100_us);
      engine.on_tx(net.source, net.nf, ts, {&p, 1});
      engine.on_rx(net.nf, ts + 20_us, {&p, 1});
      engine.on_tx(net.nf, sink, ts + 40_us, {&p, 1});
      windows += engine.poll().size();
    }
  };
  feed_range(0, 30_ms);
  ASSERT_GE(windows, 5u) << "windows through 25 ms should have closed";

  // A record 28 ms behind the stream head (skewed dumper replay). It must
  // be counted and dropped — and must not pull the watermark backwards.
  Packet late;
  late.ipid = 9999;
  engine.on_rx(net.nf, 2_ms, {&late, 1});
  EXPECT_EQ(engine.stats().late_dropped_batches, 1u);

  feed_range(30_ms, 45_ms);
  windows += engine.finish().size();
  EXPECT_GE(windows, 9u) << "watermark wedged after the late record";
  EXPECT_EQ(engine.stats().late_dropped_batches, 1u);
}

TEST(ChaosTest, RecordsBelowTheCommitPointAfterAnIdleCloseAreCounted) {
  // A firewall goes silent while its source keeps sending; the idle timeout
  // force-closes windows past it, and the persistent reconstruction commits
  // everything up to each closed window's end + slack. When the firewall's
  // delayed records finally arrive below that point (though after the
  // closed windows' ends), they are dropped and counted as late: the
  // committed state never changes.
  sim::Simulator sim;
  const eval::SingleNf net = eval::build_single_firewall(sim, nullptr);
  const trace::GraphView graph = trace::graph_view(*net.topo);
  const NodeId sink = net.topo->sink_id();

  OnlineOptions oopt;
  oopt.window_ns = 5_ms;
  oopt.slack_ns = 1_ms;
  oopt.idle_timeout_ns = 2_ms;
  oopt.latency_threshold = 30_us;
  OnlineEngine engine(graph, net.topo->peak_rates(), oopt);
  engine.register_node(net.source, true);
  engine.register_node(net.nf, true);

  std::uint64_t windows = 0;
  std::uint64_t idle_forced = 0;
  auto feed = [&](NodeId node, bool tx, TimeNs ts, std::uint16_t ipid) {
    Packet p;
    p.ipid = ipid;
    p.flow = FiveTuple{make_ipv4(10, 0, 0, 1), make_ipv4(20, 0, 0, 1), 1000,
                       443, 6};
    if (tx)
      engine.on_tx(node, node == net.source ? net.nf : sink, ts, {&p, 1});
    else
      engine.on_rx(node, ts, {&p, 1});
  };
  auto feed_range = [&](TimeNs lo, TimeNs hi, bool nf_speaks) {
    for (TimeNs ts = lo; ts < hi; ts += 100_us) {
      const auto ipid = static_cast<std::uint16_t>(ts / 100_us);
      feed(net.source, true, ts, ipid);
      if (nf_speaks) {
        feed(net.nf, false, ts + 20_us, ipid);
        feed(net.nf, true, ts + 40_us, ipid);
      }
      for (const online::WindowResult& w : engine.poll()) {
        ++windows;
        if (w.idle_forced) ++idle_forced;
      }
    }
  };
  feed_range(0, 20_ms, true);
  feed_range(20_ms, 40_ms, false);  // the firewall stalls
  ASSERT_GE(idle_forced, 2u);
  const TimeNs closed_end = engine.windows().closed_end();

  // Snapshot the committed state.
  const trace::Reconstruction& recon = engine.reconstruction();
  std::map<std::tuple<int, NodeId, std::uint32_t>, trace::Journey> journeys;
  for (const auto& t : recon.committed_terminals())
    journeys[{t.kind, t.node, t.entry}] = recon.trace().journey(t.id);
  const trace::NodeAlignment before = recon.trace().alignments()[net.nf];
  const std::uint32_t linked = recon.aligner().node(net.nf).link_done;
  ASSERT_GT(journeys.size(), 100u);

  // The stalled firewall's records, below the commit point.
  const std::uint64_t late = engine.stats().late_dropped_batches;
  const std::uint64_t ingested = engine.stats().batches_ingested;
  feed(net.nf, false, closed_end + 200_us, 7);
  feed(net.nf, true, closed_end + 220_us, 7);
  feed(net.nf, false, closed_end + 500_us, 8);
  feed(net.nf, true, closed_end + 520_us, 8);
  EXPECT_EQ(engine.stats().late_dropped_batches, late + 4);
  EXPECT_EQ(engine.stats().batches_ingested, ingested);

  // It resumes; windows keep closing and nothing committed changes.
  feed_range(40_ms, 60_ms, true);
  const std::uint64_t before_finish = windows;
  windows += engine.finish().size();
  EXPECT_GT(windows, before_finish);
  EXPECT_EQ(engine.stats().late_dropped_batches, late + 4);

  std::size_t still = 0;
  for (const auto& t : recon.committed_terminals()) {
    const auto it = journeys.find({t.kind, t.node, t.entry});
    if (it == journeys.end()) continue;
    EXPECT_EQ(recon.trace().journey(t.id), it->second)
        << "kind " << t.kind << " node " << t.node << " entry " << t.entry;
    ++still;
  }
  EXPECT_GT(still, 0u);
  const trace::NodeAlignment& after = recon.trace().alignments()[net.nf];
  const std::uint32_t lo = std::max(before.rx_base, after.rx_base);
  for (std::uint32_t j = lo; j < linked; ++j)
    EXPECT_EQ(after.rx_origin[j - after.rx_base],
              before.rx_origin[j - before.rx_base])
        << "rx " << j;
}

}  // namespace
}  // namespace microscope
