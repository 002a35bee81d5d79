// Unit tests for record alignment: IPID matching across NFs with the three
// side channels (path, timing, order), drop inference, and the paper's
// Fig. 9 head-of-line disambiguation case.
#include <gtest/gtest.h>

#include "collector/collector.hpp"
#include "trace/align.hpp"

namespace microscope::trace {
namespace {

using collector::Collector;

Packet pkt(std::uint16_t ipid, std::uint64_t uid = 0) {
  Packet p;
  p.ipid = ipid;
  p.uid = uid ? uid : ipid;
  return p;
}

/// Hand-built graph: sources/NFs with explicit upstream lists.
GraphView make_graph(std::vector<NodeKind> kinds,
                     std::vector<std::vector<NodeId>> ups) {
  GraphView g;
  g.kinds = std::move(kinds);
  g.upstreams = std::move(ups);
  g.downstreams.resize(g.kinds.size());
  g.names.resize(g.kinds.size());
  for (NodeId d = 0; d < g.upstreams.size(); ++d)
    for (NodeId u : g.upstreams[d]) g.downstreams[u].push_back(d);
  for (NodeId id = 0; id < g.kinds.size(); ++id)
    if (g.kinds[id] == NodeKind::kSink) g.sink = id;
  return g;
}

TEST(Align, SimpleChainMatches) {
  // node 0: source, node 1: NF. Source sends 3 packets, NF reads them.
  Collector col;
  col.register_node(0, true);
  col.register_node(1, false);
  GraphView g = make_graph({NodeKind::kSource, NodeKind::kNf}, {{}, {0}});

  const std::vector<Packet> batch{pkt(10), pkt(11), pkt(12)};
  col.on_tx(0, 1, 1000, batch);
  col.on_rx(1, 3000, batch);

  AlignStats stats;
  const auto a = align_all(col, g, {}, &stats);
  EXPECT_EQ(stats.link_matched, 3u);
  EXPECT_EQ(stats.link_unmatched, 0u);
  ASSERT_EQ(a[1].rx_origin.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a[1].rx_origin[i].node, 0u);
    EXPECT_EQ(a[1].rx_origin[i].idx, i);
  }
}

TEST(Align, Fig9HeadOfLineDisambiguation) {
  // Paper Fig. 9: two upstreams, both eventually send IPID 5. Downstream
  // sees [5, 3, 5]. Upstream1 sent [5, 3]; upstream2 sent [5]. The first 5
  // must come from upstream1 (else 3 would violate FIFO order).
  Collector col;
  col.register_node(0, true);  // upstream 1 (source)
  col.register_node(1, true);  // upstream 2 (source)
  col.register_node(2, false);
  GraphView g = make_graph(
      {NodeKind::kSource, NodeKind::kSource, NodeKind::kNf}, {{}, {}, {0, 1}});

  col.on_tx(0, 2, 100, std::vector<Packet>{pkt(5, 101)});
  col.on_tx(0, 2, 200, std::vector<Packet>{pkt(3, 102)});
  col.on_tx(1, 2, 300, std::vector<Packet>{pkt(5, 201)});
  col.on_rx(2, 1000, std::vector<Packet>{pkt(5), pkt(3), pkt(5)});

  const auto a = align_all(col, g, {}, nullptr);
  ASSERT_EQ(a[2].rx_origin.size(), 3u);
  // First 5 <- upstream 0's first entry (earliest candidate, order-legal).
  EXPECT_EQ(a[2].rx_origin[0].node, 0u);
  EXPECT_EQ(a[2].rx_origin[0].idx, 0u);
  EXPECT_EQ(a[2].rx_origin[1].node, 0u);
  EXPECT_EQ(a[2].rx_origin[1].idx, 1u);
  // Second 5 can only be upstream 1's.
  EXPECT_EQ(a[2].rx_origin[2].node, 1u);
  EXPECT_EQ(a[2].rx_origin[2].idx, 0u);
}

TEST(Align, TimingRuleExcludesFutureAndStale) {
  Collector col;
  col.register_node(0, true);
  col.register_node(1, false);
  GraphView g = make_graph({NodeKind::kSource, NodeKind::kNf}, {{}, {0}});

  AlignOptions opts;
  opts.max_link_delay = 1_ms;

  // Same IPID sent twice: once long before (stale) and once after the read
  // (future). Neither may match; the read in between must go unmatched.
  col.on_tx(0, 1, 0, std::vector<Packet>{pkt(7)});
  col.on_rx(1, 5_ms, std::vector<Packet>{pkt(7)});
  col.on_tx(0, 1, 6_ms, std::vector<Packet>{pkt(7)});

  AlignStats stats;
  const auto a = align_all(col, g, opts, &stats);
  EXPECT_EQ(stats.link_unmatched, 1u);
  EXPECT_FALSE(a[1].rx_origin[0].valid());
}

TEST(Align, InfersQueueDropsFromSkips) {
  // Source sends 1,2,3,4; the NF only ever reads 1 and 4: 2 and 3 were
  // dropped at the input queue (FIFO makes that the only explanation).
  Collector col;
  col.register_node(0, true);
  col.register_node(1, false);
  GraphView g = make_graph({NodeKind::kSource, NodeKind::kNf}, {{}, {0}});

  col.on_tx(0, 1, 100, std::vector<Packet>{pkt(1), pkt(2), pkt(3), pkt(4)});
  col.on_rx(1, 2000, std::vector<Packet>{pkt(1), pkt(4)});

  AlignStats stats;
  const auto a = align_all(col, g, {}, &stats);
  EXPECT_EQ(stats.link_matched, 2u);
  EXPECT_EQ(stats.queue_drops_inferred, 2u);
  EXPECT_FALSE(a[0].tx_dropped_downstream[0]);
  EXPECT_TRUE(a[0].tx_dropped_downstream[1]);
  EXPECT_TRUE(a[0].tx_dropped_downstream[2]);
  EXPECT_FALSE(a[0].tx_dropped_downstream[3]);
}

TEST(Align, TrailingDropsDetectedByDeadline) {
  Collector col;
  col.register_node(0, true);
  col.register_node(1, false);
  GraphView g = make_graph({NodeKind::kSource, NodeKind::kNf}, {{}, {0}});

  AlignOptions opts;
  opts.max_link_delay = 1_ms;

  col.on_tx(0, 1, 100, std::vector<Packet>{pkt(1), pkt(2)});
  // NF reads 1, then keeps reading other traffic long past 2's deadline.
  col.on_rx(1, 500, std::vector<Packet>{pkt(1)});
  col.on_tx(0, 1, 4_ms, std::vector<Packet>{pkt(9)});
  col.on_rx(1, 4_ms + 500, std::vector<Packet>{pkt(9)});

  AlignStats stats;
  const auto a = align_all(col, g, opts, &stats);
  EXPECT_EQ(stats.queue_drops_inferred, 1u);
  EXPECT_TRUE(a[0].tx_dropped_downstream[1]);
}

TEST(Align, InternalAlignmentSplitsOutputs) {
  // NF 1 reads [a,b,c] and emits a,c to node 2 and b to node 3.
  Collector col;
  col.register_node(1, false);
  GraphView g = make_graph({NodeKind::kSink, NodeKind::kNf}, {{}, {}});

  col.on_rx(1, 100, std::vector<Packet>{pkt(1), pkt(2), pkt(3)});
  col.on_tx(1, 2, 400, std::vector<Packet>{pkt(1), pkt(3)});
  col.on_tx(1, 3, 400, std::vector<Packet>{pkt(2)});

  AlignStats stats;
  const auto a = align_all(col, g, {}, &stats);
  EXPECT_EQ(stats.internal_matched, 3u);
  EXPECT_EQ(stats.policy_drops_inferred, 0u);
  EXPECT_EQ(a[1].rx_to_tx[0], 0u);  // ipid 1 -> first entry of stream to 2
  EXPECT_EQ(a[1].rx_to_tx[1], 2u);  // ipid 2 -> stream to 3 (global idx 2)
  EXPECT_EQ(a[1].rx_to_tx[2], 1u);
  EXPECT_EQ(a[1].tx_to_rx[2], 1u);
}

TEST(Align, InternalPolicyDropInferred) {
  Collector col;
  col.register_node(1, false);
  GraphView g = make_graph({NodeKind::kSink, NodeKind::kNf}, {{}, {}});

  col.on_rx(1, 100, std::vector<Packet>{pkt(1), pkt(2), pkt(3)});
  col.on_tx(1, 2, 400, std::vector<Packet>{pkt(1), pkt(3)});  // 2 vanished

  AlignStats stats;
  const auto a = align_all(col, g, {}, &stats);
  EXPECT_EQ(stats.policy_drops_inferred, 1u);
  EXPECT_EQ(a[1].rx_to_tx[1], kNoEntry);
}

TEST(Align, IpidCollisionAcrossStreamsResolvedByTime) {
  // Both upstreams have IPID 8 at head; earliest tx must be matched first
  // (queue service is arrival order).
  Collector col;
  col.register_node(0, true);
  col.register_node(1, true);
  col.register_node(2, false);
  GraphView g = make_graph(
      {NodeKind::kSource, NodeKind::kSource, NodeKind::kNf}, {{}, {}, {0, 1}});

  AlignOptions opts;
  opts.max_link_delay = 1_ms;

  col.on_tx(0, 2, 100, std::vector<Packet>{pkt(8, 1)});
  col.on_tx(1, 2, 150, std::vector<Packet>{pkt(8, 2)});
  col.on_rx(2, 500, std::vector<Packet>{pkt(8), pkt(8)});

  AlignStats stats;
  const auto a = align_all(col, g, opts, &stats);
  // Both matched; earliest-tx candidate picked first (node 0 then node 1).
  EXPECT_EQ(stats.link_matched, 2u);
  EXPECT_EQ(stats.link_ambiguous, 1u);  // the first read saw two candidates
  EXPECT_EQ(a[2].rx_origin[0].node, 0u);
  EXPECT_EQ(a[2].rx_origin[1].node, 1u);
}

}  // namespace
}  // namespace microscope::trace
