// Bounded in-memory record buffer for the streaming diagnosis engine.
//
// Holds the batches of every node's record stream between the eviction
// horizon (oldest data any still-open window may need) and the newest data
// drained so far. Per-node record order is preserved exactly as ingested —
// the same order the offline collector would hold them in — so a window's
// records can be materialized into a throwaway `collector::Collector` whose
// contents are a contiguous time-slice of the offline store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "collector/collector.hpp"
#include "collector/records.hpp"
#include "common/packet.hpp"
#include "common/time.hpp"

namespace microscope::online {

/// One ingested batch, self-contained (no shared entry arrays).
struct StreamBatch {
  collector::Direction dir{collector::Direction::kRx};
  NodeId peer{kInvalidNode};  // tx only
  TimeNs ts{0};
  std::vector<Packet> pkts;

  std::size_t bytes() const {
    return sizeof(StreamBatch) + pkts.size() * sizeof(Packet);
  }
};

class StreamStore {
 public:
  /// Declare a node (idempotent). `full_flow` mirrors the collector flag:
  /// materialized stores re-register nodes with it so reconstruction sees
  /// five-tuples exactly where the offline path would.
  void register_node(NodeId id, bool full_flow);

  bool has_node(NodeId id) const {
    return id < registered_.size() && registered_[id];
  }
  bool full_flow(NodeId id) const {
    return id < full_flow_.size() && full_flow_[id];
  }
  std::size_t node_count() const { return registered_.size(); }

  /// Append a batch to `node`'s stream (must be registered).
  void add(NodeId node, StreamBatch batch);

  /// Drop every batch with ts < horizon. Batches are evicted from the
  /// front of each per-node stream; per-node streams are expected to be
  /// (approximately) time-ordered, so this is O(evicted).
  void evict_before(TimeNs horizon);

  /// Build a Collector holding exactly the retained batches with
  /// ts in [t_lo, t_hi] (rx) / [tx_lo, t_hi] (tx), per-node order
  /// preserved. Every registered node is registered in the result even if
  /// it contributes no batch.
  ///
  /// The asymmetric lower cut (tx_lo <= t_lo) exists for link alignment:
  /// a packet in flight across the cut leaves an rx record inside the
  /// slice whose tx record would fall just below it. Cutting both sides at
  /// t_lo strands those rx entries, and the FIFO matcher's scan-ahead then
  /// consumes wrong (ipid-colliding) tx entries — a head-of-line
  /// desynchronization that cascades forward indefinitely. Extending only
  /// the tx side by the maximum in-flight time keeps every in-slice rx
  /// entry's origin present, so mismatches are confined to the margin:
  /// stale tx entries (whose rx predates the slice) are skipped as
  /// inferred drops and the stream heads resync exactly.
  ///
  /// The slice is filled through Collector::append, so rebuilding it does
  /// not touch the collector.* hook counters: those count dataplane
  /// collection, and these records were counted once when first collected.
  collector::Collector materialize(TimeNs t_lo, TimeNs t_hi,
                                   TimeNs tx_lo) const;

  /// True when no batch with ts in [t_lo, t_hi] is retained.
  bool empty_in(TimeNs t_lo, TimeNs t_hi) const;

  std::size_t retained_batches() const { return retained_batches_; }
  std::size_t retained_bytes() const { return retained_bytes_; }
  /// Timestamp span covered by retained batches (0 when empty) — the
  /// quantity the bounded-memory guarantee is stated over.
  DurationNs retained_span() const;

 private:
  std::vector<std::deque<StreamBatch>> streams_;  // by node id
  std::vector<bool> registered_;
  std::vector<bool> full_flow_;
  std::size_t retained_batches_{0};
  std::size_t retained_bytes_{0};
};

}  // namespace microscope::online
