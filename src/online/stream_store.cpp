#include "online/stream_store.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace microscope::online {

namespace {

using collector::BatchRecord;
using collector::Direction;
using collector::NodeTrace;

constexpr Direction kDirections[] = {Direction::kRx, Direction::kTx};

constexpr std::size_t lane(Direction dir) {
  return static_cast<std::size_t>(dir);
}

collector::CollectorOptions slice_options() {
  collector::CollectorOptions opts;
  opts.ground_truth = false;  // the stream never carries the sidecar
  return opts;
}

// `Trace` is NodeTrace or const NodeTrace.
template <typename Trace>
auto& batches_of(Trace& t, Direction dir) {
  return dir == Direction::kRx ? t.rx_batches : t.tx_batches;
}
template <typename Trace>
auto& ipids_of(Trace& t, Direction dir) {
  return dir == Direction::kRx ? t.rx_ipids : t.tx_ipids;
}
/// Five-tuples ride parallel to the IPIDs only on a full-flow tx lane.
bool has_flows(const NodeTrace& t, Direction dir) {
  return dir == Direction::kTx && t.full_flow;
}

/// Index of the first live entry of a lane whose live batches start at
/// `head` (the entry count when no batch is live).
std::size_t first_live_entry(const std::vector<BatchRecord>& batches,
                             std::size_t head, std::size_t entries) {
  return head < batches.size() ? batches[head].begin : entries;
}

/// Pop the lane's front batches older than `horizon`, then compact it once
/// the dead prefix is at least as long as the live tail: every compaction
/// moves no more entries than were popped since the last one. Returns the
/// number of batches popped.
std::size_t evict_lane(NodeTrace& t, Direction dir, std::size_t& head,
                       TimeNs horizon) {
  std::vector<BatchRecord>& batches = batches_of(t, dir);
  const std::size_t first = head;
  while (head < batches.size() && batches[head].ts < horizon) ++head;
  const std::size_t popped = head - first;
  if (head == 0 || head < batches.size() - head) return popped;

  std::vector<std::uint16_t>& ipids = ipids_of(t, dir);
  const std::size_t base = first_live_entry(batches, head, ipids.size());
  batches.erase(batches.begin(), batches.begin() + head);
  for (BatchRecord& b : batches) b.begin -= static_cast<std::uint32_t>(base);
  ipids.erase(ipids.begin(), ipids.begin() + base);
  if (has_flows(t, dir))
    t.tx_flows.erase(t.tx_flows.begin(), t.tx_flows.begin() + base);
  head = 0;
  return popped;
}

/// Append the lane's live batches with ts in [lo, hi] to `out`, copying
/// each run of consecutive kept batches' entries with one range insert and
/// rebasing their `begin` onto `out`'s entry lanes.
void slice_lane(const NodeTrace& in, Direction dir, std::size_t head,
                TimeNs lo, TimeNs hi, NodeTrace& out) {
  const std::vector<BatchRecord>& batches = batches_of(in, dir);
  const std::vector<std::uint16_t>& ipids = ipids_of(in, dir);
  std::vector<BatchRecord>& out_batches = batches_of(out, dir);
  std::vector<std::uint16_t>& out_ipids = ipids_of(out, dir);
  const bool flows = has_flows(in, dir);
  auto kept = [&](const BatchRecord& b) { return b.ts >= lo && b.ts <= hi; };

  std::size_t i = head;
  while (i < batches.size()) {
    if (!kept(batches[i])) {
      ++i;
      continue;
    }
    const std::size_t src = batches[i].begin;
    const std::size_t dst = out_ipids.size();
    std::size_t j = i;
    for (; j < batches.size() && kept(batches[j]); ++j) {
      BatchRecord rec = batches[j];
      rec.begin = static_cast<std::uint32_t>(rec.begin - src + dst);
      out_batches.push_back(rec);
    }
    const std::size_t end = first_live_entry(batches, j, ipids.size());
    out_ipids.insert(out_ipids.end(), ipids.begin() + src,
                     ipids.begin() + end);
    if (flows)
      out.tx_flows.insert(out.tx_flows.end(), in.tx_flows.begin() + src,
                          in.tx_flows.begin() + end);
    i = j;
  }
}

}  // namespace

StreamStore::StreamStore() : slice_(slice_options()) {}

void StreamStore::register_node(NodeId id, bool full_flow) {
  if (id >= lanes_.size()) lanes_.resize(id + 1);
  if (slice_.has_node(id))
    slice_.mutable_node(id).full_flow = full_flow;
  else
    slice_.register_node(id, full_flow);
  NodeTrace& t = lanes_[id].trace;
  t.full_flow = full_flow;
  t.tx_flows.resize(full_flow ? t.tx_ipids.size() : 0);
}

void StreamStore::add(Direction dir, NodeId node, NodeId peer, TimeNs ts,
                      std::span<const Packet> pkts) {
  if (!has_node(node))
    throw std::invalid_argument("StreamStore::add: unregistered node");
  NodeTrace& t = lanes_[node].trace;
  std::vector<std::uint16_t>& ipids = ipids_of(t, dir);
  BatchRecord rec;
  rec.ts = ts;
  rec.begin = static_cast<std::uint32_t>(ipids.size());
  rec.count = static_cast<std::uint16_t>(pkts.size());
  if (dir == Direction::kTx) rec.peer = peer;
  batches_of(t, dir).push_back(rec);
  for (const Packet& p : pkts) ipids.push_back(p.ipid);
  if (has_flows(t, dir))
    for (const Packet& p : pkts) t.tx_flows.push_back(p.flow);
  ++retained_batches_;
}

void StreamStore::evict_before(TimeNs horizon) {
  for (Lanes& l : lanes_)
    for (const Direction dir : kDirections)
      retained_batches_ -= evict_lane(l.trace, dir, l.head[lane(dir)], horizon);
}

const collector::Collector& StreamStore::materialize(TimeNs t_lo, TimeNs t_hi,
                                                     TimeNs tx_lo) {
  for (NodeId id = 0; id < lanes_.size(); ++id) {
    if (!slice_.has_node(id)) continue;
    const Lanes& l = lanes_[id];
    NodeTrace& out = slice_.mutable_node(id);
    out.rx_batches.clear();
    out.rx_ipids.clear();
    out.tx_batches.clear();
    out.tx_ipids.clear();
    out.tx_flows.clear();
    for (const Direction dir : kDirections)
      slice_lane(l.trace, dir, l.head[lane(dir)],
                 dir == Direction::kTx ? tx_lo : t_lo, t_hi, out);
  }
  return slice_;
}

bool StreamStore::empty_in(TimeNs t_lo, TimeNs t_hi) const {
  for (const Lanes& l : lanes_) {
    for (const Direction dir : kDirections) {
      const std::vector<BatchRecord>& batches = batches_of(l.trace, dir);
      const std::size_t head = l.head[lane(dir)];
      for (std::size_t i = head; i < batches.size(); ++i)
        if (batches[i].ts >= t_lo && batches[i].ts <= t_hi) return false;
    }
  }
  return true;
}

std::size_t StreamStore::retained_bytes() const {
  std::size_t bytes = 0;
  for (const Lanes& l : lanes_) {
    for (const Direction dir : kDirections) {
      const std::vector<BatchRecord>& batches = batches_of(l.trace, dir);
      const std::vector<std::uint16_t>& ipids = ipids_of(l.trace, dir);
      const std::size_t head = l.head[lane(dir)];
      const std::size_t entries =
          ipids.size() - first_live_entry(batches, head, ipids.size());
      bytes += (batches.size() - head) * sizeof(BatchRecord) +
               entries * sizeof(std::uint16_t);
      if (has_flows(l.trace, dir)) bytes += entries * sizeof(FiveTuple);
    }
  }
  return bytes;
}

DurationNs StreamStore::retained_span() const {
  TimeNs lo = kTimeNever;
  TimeNs hi = std::numeric_limits<TimeNs>::min();
  bool any = false;
  for (const Lanes& l : lanes_) {
    for (const Direction dir : kDirections) {
      const std::vector<BatchRecord>& batches = batches_of(l.trace, dir);
      const std::size_t head = l.head[lane(dir)];
      for (std::size_t i = head; i < batches.size(); ++i) {
        lo = std::min(lo, batches[i].ts);
        hi = std::max(hi, batches[i].ts);
        any = true;
      }
    }
  }
  return any ? hi - lo : 0;
}

}  // namespace microscope::online
