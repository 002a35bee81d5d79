#include "collector/collector.hpp"

namespace microscope::collector {

Collector::Collector(CollectorOptions opts)
    : opts_(opts),
      noise_state_(opts.noise_seed),
      rx_batches_(&obs::Registry::global().counter("collector.rx_batches")),
      rx_packets_(&obs::Registry::global().counter("collector.rx_packets")),
      tx_batches_(&obs::Registry::global().counter("collector.tx_batches")),
      tx_packets_(&obs::Registry::global().counter("collector.tx_packets")) {}

void Collector::register_node(NodeId id, bool full_flow) {
  if (id >= traces_.size()) {
    traces_.resize(id + 1);
    registered_.resize(id + 1, false);
  }
  if (registered_[id]) throw std::logic_error("collector: node re-registered");
  registered_[id] = true;
  traces_[id].full_flow = full_flow;
}

// An unknown id here is API misuse by in-process callers: every wire-facing
// path (WireDecoder, the online engine's ingest decoder) validates node ids
// against the registration table *before* calling on_rx/on_tx, so corrupted
// input is counted as a kUnknownNode decode fault (or raised as a typed
// DecodeError under strict policy) and never escapes as std::out_of_range.
const NodeTrace& Collector::node(NodeId id) const {
  if (!has_node(id)) throw std::out_of_range("collector: unknown node");
  return traces_[id];
}

NodeTrace& Collector::mutable_node(NodeId id) {
  if (!has_node(id)) throw std::out_of_range("collector: unknown node");
  return traces_[id];
}

TimeNs Collector::noisy(TimeNs ts) {
  if (opts_.timestamp_noise_ns == 0) return ts;
  // SplitMix64 step — cheap, deterministic.
  std::uint64_t z = (noise_state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const auto span = static_cast<std::uint64_t>(2 * opts_.timestamp_noise_ns + 1);
  return ts + static_cast<DurationNs>(z % span) - opts_.timestamp_noise_ns;
}

void Collector::on_rx(NodeId id, TimeNs ts, std::span<const Packet> batch) {
  rx_batches_->add();
  rx_packets_->add(batch.size());
  append(Direction::kRx, id, kInvalidNode, ts, batch);
}

void Collector::on_tx(NodeId id, NodeId peer, TimeNs ts,
                      std::span<const Packet> batch) {
  tx_batches_->add();
  tx_packets_->add(batch.size());
  append(Direction::kTx, id, peer, ts, batch);
}

void Collector::append(Direction dir, NodeId id, NodeId peer, TimeNs ts,
                       std::span<const Packet> batch) {
  NodeTrace& t = mutable_node(id);
  BatchRecord rec;
  rec.ts = noisy(ts);
  rec.count = static_cast<std::uint16_t>(batch.size());
  if (dir == Direction::kRx) {
    rec.begin = static_cast<std::uint32_t>(t.rx_ipids.size());
    t.rx_batches.push_back(rec);
    for (const Packet& p : batch) {
      t.rx_ipids.push_back(p.ipid);
      if (opts_.ground_truth) t.rx_uids.push_back(p.uid);
    }
    return;
  }
  rec.begin = static_cast<std::uint32_t>(t.tx_ipids.size());
  rec.peer = peer;
  t.tx_batches.push_back(rec);
  for (const Packet& p : batch) {
    t.tx_ipids.push_back(p.ipid);
    if (t.full_flow) t.tx_flows.push_back(p.flow);
    if (opts_.ground_truth) {
      t.tx_uids.push_back(p.uid);
      t.tx_tags.push_back(p.injection_tag);
    }
  }
}

std::size_t Collector::compressed_bytes() const {
  // Paper §5: ~2 B per packet (IPID) plus per-batch headers (timestamp +
  // size ≈ 10 B) plus 13 B five-tuples at edge nodes.
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < traces_.size(); ++i) {
    if (!registered_[i]) continue;
    const NodeTrace& t = traces_[i];
    bytes += 2 * (t.rx_ipids.size() + t.tx_ipids.size());
    bytes += 10 * (t.rx_batches.size() + t.tx_batches.size());
    bytes += 13 * t.tx_flows.size();
  }
  return bytes;
}

void batch_packets(const NodeTrace& t, Direction dir, const BatchRecord& rec,
                   std::vector<Packet>& out) {
  const bool tx = dir == Direction::kTx;
  out.assign(rec.count, Packet{});
  for (std::uint16_t i = 0; i < rec.count; ++i) {
    out[i].ipid = (tx ? t.tx_ipids : t.rx_ipids)[rec.begin + i];
    if (tx && t.full_flow) out[i].flow = t.tx_flows[rec.begin + i];
  }
}

void for_each_batch_by_time(
    const Collector& col, const std::function<void(const TimedBatch&)>& visit) {
  // One cursor per non-empty (node, direction) lane, in (node, rx-first)
  // order; the merge always advances the lane whose head has the smallest
  // timestamp, and the first such lane in cursor order wins a tie.
  struct Cursor {
    NodeId node;
    Direction dir;
    const std::vector<BatchRecord>* batches;
    std::size_t next{0};
  };
  std::vector<Cursor> cursors;
  for (NodeId id = 0; id < col.node_count(); ++id) {
    if (!col.has_node(id)) continue;
    const NodeTrace& t = col.node(id);
    if (!t.rx_batches.empty())
      cursors.push_back({id, Direction::kRx, &t.rx_batches});
    if (!t.tx_batches.empty())
      cursors.push_back({id, Direction::kTx, &t.tx_batches});
  }

  std::vector<Packet> pkts;
  while (true) {
    Cursor* best = nullptr;
    for (Cursor& c : cursors) {
      if (c.next >= c.batches->size()) continue;
      if (!best || (*c.batches)[c.next].ts < (*best->batches)[best->next].ts)
        best = &c;
    }
    if (!best) break;

    const NodeTrace& t = col.node(best->node);
    const BatchRecord& rec = (*best->batches)[best->next++];
    batch_packets(t, best->dir, rec, pkts);
    const bool tx = best->dir == Direction::kTx;
    visit({best->dir, best->node, tx ? rec.peer : kInvalidNode, rec.ts, pkts,
           tx && t.full_flow});
  }
}

}  // namespace microscope::collector
