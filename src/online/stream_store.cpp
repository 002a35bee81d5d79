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

/// Erase the lane's front batches older than `horizon`, with their
/// entries, and add them to the bases. A regressed batch waits behind its
/// positional predecessor. Returns the number of batches erased.
std::size_t evict_lane(NodeTrace& t, Direction dir, std::uint64_t& batch_base,
                       std::uint32_t& entry_base, TimeNs horizon) {
  std::vector<BatchRecord>& batches = batches_of(t, dir);
  std::size_t gone = 0;
  while (gone < batches.size() && batches[gone].ts < horizon) ++gone;
  if (gone == 0) return 0;

  std::vector<std::uint16_t>& ipids = ipids_of(t, dir);
  const std::size_t entries =
      gone < batches.size() ? batches[gone].begin : ipids.size();
  batches.erase(batches.begin(), batches.begin() + gone);
  for (BatchRecord& b : batches) b.begin -= static_cast<std::uint32_t>(entries);
  ipids.erase(ipids.begin(), ipids.begin() + entries);
  if (has_flows(t, dir))
    t.tx_flows.erase(t.tx_flows.begin(), t.tx_flows.begin() + entries);
  batch_base += gone;
  entry_base += static_cast<std::uint32_t>(entries);
  return gone;
}

}  // namespace

void StreamStore::register_node(NodeId id, bool full_flow) {
  if (id >= lanes_.size()) lanes_.resize(id + 1);
  lanes_[id].registered = true;
  NodeTrace& t = lanes_[id].trace;
  t.full_flow = full_flow;
  t.tx_flows.resize(full_flow ? t.tx_ipids.size() : 0);
}

void StreamStore::add(Direction dir, NodeId node, NodeId peer, TimeNs ts,
                      std::span<const Packet> pkts) {
  if (!has_node(node))
    throw std::invalid_argument("StreamStore::add: unregistered node");
  Lanes& l = lanes_[node];
  NodeTrace& t = l.trace;
  TimeNs& newest = l.newest[lane(dir)];
  newest = std::max(newest, ts);
  std::vector<std::uint16_t>& ipids = ipids_of(t, dir);
  if (pkts.size() >= trace::kNoEntry - l.entry_base[lane(dir)] - ipids.size())
    throw std::overflow_error("StreamStore::add: entry numbers exhausted");
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
      retained_batches_ -= evict_lane(l.trace, dir, l.batch_base[lane(dir)],
                                      l.entry_base[lane(dir)], horizon);
}

trace::RecordLanes StreamStore::lanes() const {
  trace::RecordLanes out(lanes_.size());
  for (NodeId id = 0; id < lanes_.size(); ++id) {
    const Lanes& l = lanes_[id];
    if (!l.registered) continue;
    out[id].trace = &l.trace;
    for (const Direction dir : kDirections) {
      out[id].batch_base[lane(dir)] = l.batch_base[lane(dir)];
      out[id].entry_base[lane(dir)] = l.entry_base[lane(dir)];
    }
  }
  return out;
}

std::uint32_t StreamStore::entries_end() const {
  std::uint32_t end = 0;
  for (const Lanes& l : lanes_)
    for (const Direction dir : kDirections)
      end = std::max(end, l.entry_base[lane(dir)] +
                              static_cast<std::uint32_t>(
                                  ipids_of(l.trace, dir).size()));
  return end;
}

void StreamStore::renumber(const trace::EntryShifts& shifts) {
  for (NodeId id = 0; id < lanes_.size() && id < shifts.size(); ++id)
    for (const Direction dir : kDirections)
      lanes_[id].entry_base[lane(dir)] -= shifts[id][lane(dir)];
}

bool StreamStore::empty_in(TimeNs t_lo, TimeNs t_hi) const {
  for (const Lanes& l : lanes_)
    for (const Direction dir : kDirections)
      for (const BatchRecord& b : batches_of(l.trace, dir))
        if (b.ts >= t_lo && b.ts <= t_hi) return false;
  return true;
}

std::size_t StreamStore::retained_bytes() const {
  std::size_t bytes = 0;
  for (const Lanes& l : lanes_) {
    for (const Direction dir : kDirections) {
      const std::size_t entries = ipids_of(l.trace, dir).size();
      bytes += batches_of(l.trace, dir).size() * sizeof(BatchRecord) +
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
      for (const BatchRecord& b : batches_of(l.trace, dir)) {
        lo = std::min(lo, b.ts);
        hi = std::max(hi, b.ts);
        any = true;
      }
    }
  }
  return any ? hi - lo : 0;
}

}  // namespace microscope::online
