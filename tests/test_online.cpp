// Online streaming diagnosis: the headline property is that concatenating
// the closed-window diagnoses of the streaming engine reproduces, byte for
// byte, the offline Diagnoser's output restricted to those windows — for
// any window size, thread count, and drain-chunk granularity, replayed in
// memory or tailed from a stream file (modulo victim.journey, a
// reconstruction-instance-local id). Plus: bounded memory over long
// streams, idle-node timeouts, late-record and backpressure drop
// accounting, ring draining, collector counters left alone by window
// slices, and the live aggregator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "collector/file.hpp"
#include "collector/ring.hpp"
#include "core/diagnosis.hpp"
#include "eval/scenarios.hpp"
#include "nf/inject.hpp"
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
  if (threads > 1) {
    oopt.diagnoser.parallel.num_threads = threads;
    oopt.reconstruct.parallel.num_threads = threads;
  }
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
  collector::save_trace_stream(s.col, path, collector::kTraceFileV2);
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
  // Regression for the alignment warm-up margin: a long high-rate stream
  // with a traffic burst, diagnosed with a history much shorter than the
  // trace, forces later windows to materialize mid-stream slices whose
  // lower cut lands while packets are in flight. Without the tx-side
  // margin the FIFO matcher desynchronizes on the stranded rx entries
  // (ipid-colliding scan-ahead) and the burst window's diagnoses collapse;
  // with it, every window must still match offline byte for byte.
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
    // windows (including the burst window) really do slice mid-stream.
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
  while (tailer.pump(8192) > 0) {
    for (WindowResult& w : eng.poll()) windows.push_back(std::move(w));
    const OnlineStats st = eng.stats();
    max_span = std::max(max_span, st.retained_span_ns);
    max_batches = std::max(max_batches, st.retained_batches);
  }
  for (WindowResult& w : eng.finish()) windows.push_back(std::move(w));
  std::remove(path.c_str());

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
  // window's slice either.
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

TEST(Online, AggregatorDecaysAndRanks) {
  StreamingAggregatorOptions aopt;
  aopt.decay = 0.5;
  aopt.top_k = 2;
  aopt.max_windows = 2;
  StreamingAggregator agg(aopt);

  const auto mk = [](NodeId node, double score) {
    Diagnosis d;
    core::CausalRelation rel;
    rel.culprit = {node, core::CauseKind::kLocalProcessing};
    rel.score = score;
    rel.culprit_t1 = 1000;
    d.relations.push_back(rel);
    return d;
  };

  const std::vector<Diagnosis> w1{mk(1, 10.0)};
  agg.ingest(w1);
  auto top = agg.top();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 10.0);
  EXPECT_EQ(top[0].windows_seen, 1u);

  const std::vector<Diagnosis> w2{mk(2, 100.0)};
  agg.ingest(w2);
  top = agg.top();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].culprit.node, 2u);
  EXPECT_DOUBLE_EQ(top[0].score, 100.0);
  EXPECT_EQ(top[1].culprit.node, 1u);
  EXPECT_DOUBLE_EQ(top[1].score, 5.0);  // 10 * 0.5

  const std::vector<Diagnosis> w3{mk(3, 1.0), mk(3, 1.0)};
  agg.ingest(w3);
  top = agg.top();  // top_k caps the board view at 2
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].culprit.node, 2u);
  EXPECT_DOUBLE_EQ(top[0].score, 50.0);
  EXPECT_EQ(top[1].culprit.node, 1u);  // 2.5 > 2.0
  EXPECT_EQ(agg.windows_ingested(), 3u);

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

  std::vector<Diagnosis> window;
  for (NodeId node = 0; node < 10; ++node) {
    Diagnosis d;
    core::CausalRelation rel;
    rel.culprit = {node, core::CauseKind::kLocalProcessing};
    rel.score = static_cast<double>(node + 1);  // node 9 heaviest
    d.relations.push_back(rel);
    window.push_back(d);
  }
  agg.ingest(window);
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
    std::vector<Diagnosis> trickle;
    const NodeId base = 100 + 10 * static_cast<NodeId>(w);
    for (NodeId node = base; node < base + 5; ++node) {
      Diagnosis d;
      core::CausalRelation rel;
      rel.culprit = {node, core::CauseKind::kSourceTraffic};
      rel.score = 0.5;
      d.relations.push_back(rel);
      trickle.push_back(d);
    }
    agg.ingest(trickle);
  }
  const auto after = agg.top();
  ASSERT_EQ(after.size(), 4u);
  EXPECT_EQ(after[0].culprit.node, 9u);
  EXPECT_DOUBLE_EQ(after[0].score, 10.0);
}

TEST(Online, AggregatorWindowsSeenCountsWindowsNotRelations) {
  StreamingAggregatorOptions aopt;
  aopt.decay = 1.0;
  aopt.min_score = 0.0;
  StreamingAggregator agg(aopt);
  const auto mk = [](NodeId node, double score) {
    Diagnosis d;
    core::CausalRelation rel;
    rel.culprit = {node, core::CauseKind::kLocalProcessing};
    rel.score = score;
    d.relations.push_back(rel);
    return d;
  };
  // Three relations against the same culprit within one window: one
  // windows_seen tick, summed score.
  const std::vector<Diagnosis> w1{mk(1, 1.0), mk(1, 2.0), mk(1, 3.0)};
  agg.ingest(w1);
  auto top = agg.top();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].windows_seen, 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 6.0);
  const std::vector<Diagnosis> w2{mk(1, 1.0)};
  agg.ingest(w2);
  agg.ingest(w2);
  top = agg.top();
  EXPECT_EQ(top[0].windows_seen, 3u);
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

TEST(Online, MaterializedSlicesLeaveCollectorCountersAlone) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "metrics compiled out (MICROSCOPE_NO_METRICS)";
  }
  // collector.* counts dataplane collection. Every closed window rebuilds a
  // Collector from the engine's store; those records were counted once,
  // when the simulation collected them, and must not count again.
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
