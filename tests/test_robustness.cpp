// Robustness tests: adversarial inputs to the wire decoder, degenerate
// topologies, empty traces, and boundary conditions across the API.
#include <gtest/gtest.h>

#include "eval/scenarios.hpp"
#include "microscope/microscope.hpp"

namespace microscope {
namespace {

TEST(Robustness, WireDecoderSurvivesGarbage) {
  // Random bytes must never crash, throw, or corrupt the sink under the
  // default lenient policy: every fault is counted and skipped past.
  collector::Collector sink;
  sink.register_node(1, false);
  collector::WireDecoder dec(sink);
  Rng rng(99);
  std::vector<std::byte> garbage(4096);
  for (auto& b : garbage) b = static_cast<std::byte>(rng.next_u64() & 0xFF);
  EXPECT_NO_THROW(dec.feed(garbage));
  EXPECT_NO_THROW(dec.finish());
  const collector::DecodeStats& st = dec.stats();
  // Garbage either decodes as a (harmless) record for node 1 or faults;
  // with 4 KiB of noise at least one fault is a statistical certainty.
  EXPECT_GT(st.dropped() + st.resync_bytes_skipped, 0u);
  EXPECT_TRUE(dec.drained());
}

TEST(Robustness, WireDecoderUnknownNodeLenientSkipsAndCounts) {
  // A record naming a node absent from the sink's registration table is a
  // kUnknownNode decode fault — counted and skipped, never an
  // std::out_of_range escaping from Collector::on_rx.
  collector::Collector sink;
  sink.register_node(1, false);
  collector::WireDecoder dec(sink);
  std::vector<std::byte> buf;
  Packet p;
  p.ipid = 7;
  collector::encode_batch(buf, collector::Direction::kRx, /*node=*/42,
                          kInvalidNode, 100, std::span<const Packet>(&p, 1),
                          false);
  EXPECT_NO_THROW(dec.feed(buf));
  dec.finish();
  EXPECT_EQ(dec.stats().unknown_node, 1u);
  EXPECT_EQ(dec.stats().records, 0u);
  EXPECT_TRUE(sink.node(1).rx_batches.empty());
}

TEST(Robustness, WireDecoderUnknownNodeStrictThrowsTyped) {
  collector::Collector sink;
  sink.register_node(1, false);
  collector::DecodeOptions opts;
  opts.policy = collector::DecodePolicy::kStrict;
  collector::WireDecoder dec(sink, opts);
  std::vector<std::byte> buf;
  Packet p;
  p.ipid = 7;
  collector::encode_batch(buf, collector::Direction::kRx, /*node=*/42,
                          kInvalidNode, 100, std::span<const Packet>(&p, 1),
                          false);
  try {
    dec.feed(buf);
    FAIL() << "strict decode accepted an unknown node";
  } catch (const collector::DecodeError& e) {
    EXPECT_EQ(e.kind(), collector::DecodeErrorKind::kUnknownNode);
    EXPECT_EQ(e.node(), 42u);
    EXPECT_EQ(e.offset(), 0u);
  }
}

TEST(Robustness, ReconstructEmptyCollector) {
  sim::Simulator sim;
  collector::Collector col;
  nf::Topology topo(sim, &col);
  auto& src = topo.add_source("s");
  (void)src;
  const auto rt = trace::reconstruct(col, trace::graph_view(topo), {});
  EXPECT_TRUE(rt.journeys().empty());
  core::Diagnoser diag(rt, topo.peak_rates());
  EXPECT_TRUE(diag.latency_victims_by_threshold(1).empty());
  EXPECT_TRUE(diag.drop_victims().empty());
}

TEST(Robustness, DiagnoseVictimAtUnknownNode) {
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_single_firewall(sim, &col, 700);
  net.topo->source(net.source)
      .load(nf::generate_constant_rate(
          {make_ipv4(1, 1, 1, 1), make_ipv4(2, 2, 2, 2), 1, 2, 6}, 0, 1_ms,
          0.1));
  sim.run_until(5_ms);
  const auto rt = trace::reconstruct(col, trace::graph_view(*net.topo), {});
  core::Diagnoser diag(rt, net.topo->peak_rates());
  core::Victim v;
  v.node = 999;  // no timeline
  v.time = 500_us;
  const auto d = diag.diagnose(v);
  EXPECT_TRUE(d.relations.empty());
}

TEST(Robustness, PeriodFinderOnEmptyTimeline) {
  trace::NodeTimeline tl;
  EXPECT_FALSE(core::find_queuing_period(tl, 1000, {}).has_value());
  EXPECT_EQ(tl.arrivals_in(0, 1000), 0u);
  EXPECT_EQ(tl.reads_in(0, 1000), 0u);
}

TEST(Robustness, AggregateEmptyAndSingleton) {
  autofocus::NfCatalog cat;
  cat.node_names = {"sink", "src", "fw1"};
  cat.type_names = {"sink", "source", "fw"};
  cat.type_of = {0, 1, 2};
  EXPECT_TRUE(autofocus::aggregate_patterns({}, cat, {}).empty());

  autofocus::RelationRecord r;
  r.culprit_flow = {make_ipv4(1, 1, 1, 1), make_ipv4(2, 2, 2, 2), 3, 4, 6};
  r.culprit_nf = 2;
  r.victim_flow = r.culprit_flow;
  r.victim_nf = 2;
  r.score = 5.0;
  const auto patterns = autofocus::aggregate_patterns(
      std::span<const autofocus::RelationRecord>(&r, 1), cat, {});
  ASSERT_FALSE(patterns.empty());
  EXPECT_NEAR(patterns.front().score, 5.0, 1e-9);
}

TEST(Robustness, HhhEmptyLeaves) {
  EXPECT_TRUE(autofocus::side_hhh({}, {}).empty());
}

TEST(Robustness, TimespanSingleElementAndTies) {
  // Exact ties between hops (identical timespans) must not double-count.
  std::vector<core::PathHopSpan> spans{{0, 5.0}, {1, 5.0}, {2, 5.0}};
  const auto scores = core::attribute_timespan(spans, 10.0, 4.0);
  double total = 0;
  for (const auto& s : scores) total += s.score;
  EXPECT_NEAR(total, 4.0, 1e-9);
  // All reduction happened "at the source" (t_exp -> T_source).
  EXPECT_NEAR(scores[0].score, 4.0, 1e-9);
}

TEST(Robustness, NetMedicOnTinyTrace) {
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_single_firewall(sim, &col, 700);
  net.topo->source(net.source)
      .load(nf::generate_constant_rate(
          {make_ipv4(1, 1, 1, 1), make_ipv4(2, 2, 2, 2), 1, 2, 6}, 0, 100_us,
          0.1));
  sim.run_until(1_ms);
  const auto rt = trace::reconstruct(col, trace::graph_view(*net.topo), {});
  netmedic::NetMedic nm(rt, eval::busy_intervals(*net.topo), {});
  EXPECT_GE(nm.window_count(), 1u);
  const auto ranked = nm.diagnose(net.nf, 50_us);
  EXPECT_FALSE(ranked.empty());
  // Querying far beyond the trace is clamped, not UB.
  EXPECT_NO_THROW(nm.diagnose(net.nf, 10'000_ms));
}

TEST(Robustness, SaveTraceToUnwritablePathThrows) {
  collector::Collector col;
  col.register_node(1, false);
  EXPECT_THROW(collector::save_trace(col, "/nonexistent-dir/x.trace"),
               std::runtime_error);
}

TEST(Robustness, SourceWithoutRouterThrows) {
  sim::Simulator sim;
  collector::Collector col;
  nf::Topology topo(sim, &col);
  auto& src = topo.add_source("s");
  src.load(nf::generate_constant_rate(
      {make_ipv4(1, 1, 1, 1), make_ipv4(2, 2, 2, 2), 1, 2, 6}, 0, 10_us, 0.5));
  EXPECT_THROW(sim.run_all(), std::logic_error);
}

TEST(Robustness, CaidaRejectsBadOptions) {
  nf::CaidaLikeOptions opts;
  opts.rate_mpps = 0;
  EXPECT_THROW(nf::generate_caida_like(opts), std::invalid_argument);
  opts.rate_mpps = 1.0;
  opts.num_flows = 0;
  EXPECT_THROW(nf::generate_caida_like(opts), std::invalid_argument);
  EXPECT_THROW(
      nf::generate_constant_rate({}, 0, 1_ms, /*rate_mpps=*/0.0),
      std::invalid_argument);
}

}  // namespace
}  // namespace microscope
