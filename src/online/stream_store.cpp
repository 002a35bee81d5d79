#include "online/stream_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace microscope::online {

void StreamStore::register_node(NodeId id, bool full_flow) {
  if (id >= registered_.size()) {
    registered_.resize(id + 1, false);
    full_flow_.resize(id + 1, false);
    streams_.resize(id + 1);
  }
  registered_[id] = true;
  full_flow_[id] = full_flow;
}

void StreamStore::add(NodeId node, StreamBatch batch) {
  if (!has_node(node))
    throw std::invalid_argument("StreamStore::add: unregistered node");
  retained_batches_ += 1;
  retained_bytes_ += batch.bytes();
  streams_[node].push_back(std::move(batch));
}

void StreamStore::evict_before(TimeNs horizon) {
  for (auto& stream : streams_) {
    while (!stream.empty() && stream.front().ts < horizon) {
      retained_batches_ -= 1;
      retained_bytes_ -= stream.front().bytes();
      stream.pop_front();
    }
  }
}

collector::Collector StreamStore::materialize(TimeNs t_lo, TimeNs t_hi,
                                              TimeNs tx_lo) const {
  collector::CollectorOptions opts;
  opts.ground_truth = false;  // the stream never carries the sidecar
  collector::Collector col(opts);
  for (NodeId id = 0; id < registered_.size(); ++id)
    if (registered_[id]) col.register_node(id, full_flow_[id]);
  for (NodeId id = 0; id < streams_.size(); ++id) {
    for (const StreamBatch& b : streams_[id]) {
      const TimeNs lo = b.dir == collector::Direction::kTx ? tx_lo : t_lo;
      if (b.ts < lo || b.ts > t_hi) continue;
      col.append(b.dir, id, b.peer, b.ts, b.pkts);
    }
  }
  return col;
}

bool StreamStore::empty_in(TimeNs t_lo, TimeNs t_hi) const {
  for (const auto& stream : streams_)
    for (const StreamBatch& b : stream)
      if (b.ts >= t_lo && b.ts <= t_hi) return false;
  return true;
}

DurationNs StreamStore::retained_span() const {
  TimeNs lo = kTimeNever;
  TimeNs hi = std::numeric_limits<TimeNs>::min();
  bool any = false;
  for (const auto& stream : streams_) {
    for (const StreamBatch& b : stream) {
      lo = std::min(lo, b.ts);
      hi = std::max(hi, b.ts);
      any = true;
    }
  }
  return any ? hi - lo : 0;
}

}  // namespace microscope::online
