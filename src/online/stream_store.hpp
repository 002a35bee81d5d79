// Bounded in-memory record store for the streaming diagnosis engine.
//
// Holds every node's record stream between the eviction horizon (oldest
// data any still-open window may need) and the newest data drained so far,
// in the collector's own columnar layout: per node one `collector::NodeTrace`
// whose rx/tx `BatchRecord` lanes and IPID lanes (plus five-tuple lanes on a
// full-flow node's tx side) are appended to directly, with no allocation per
// batch. Per-direction record order is preserved exactly as ingested — the
// order the offline collector would hold them in — so a window's records cut
// out of the lanes form a contiguous time-slice of the offline store.
//
// Each (node, direction) lane keeps a live-head index. Eviction advances it
// past the front batches older than the horizon, then compacts the lane in
// place once the dead prefix is at least as long as the live tail (erase the
// prefix, rebase `begin`), so eviction is amortized O(1) per batch.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "collector/collector.hpp"
#include "collector/records.hpp"
#include "common/packet.hpp"
#include "common/time.hpp"

namespace microscope::online {

class StreamStore {
 public:
  StreamStore();

  /// Declare a node (idempotent). `full_flow` mirrors the collector flag:
  /// the node's tx side then keeps five-tuples, and the slice registers the
  /// node with it so reconstruction sees five-tuples exactly where the
  /// offline path would. Turning the flag on for a node that already holds
  /// tx records gives those records default five-tuples.
  void register_node(NodeId id, bool full_flow);

  bool has_node(NodeId id) const { return slice_.has_node(id); }
  bool full_flow(NodeId id) const {
    return has_node(id) && lanes_[id].trace.full_flow;
  }

  /// Append one batch to `node`'s rx or tx lanes (node must be registered).
  /// Only the packets' IPIDs are kept, plus their five-tuples on a full-flow
  /// node's tx side; `peer` is ignored for rx batches.
  void add(collector::Direction dir, NodeId node, NodeId peer, TimeNs ts,
           std::span<const Packet> pkts);

  /// Evict every batch with ts < horizon from the front of each
  /// (node, direction) lane. Lanes are expected to be (approximately)
  /// time-ordered: a regressed batch waits behind its positional
  /// predecessor, and is released once that one passes the horizon too.
  void evict_before(TimeNs horizon);

  /// Fill the store's slice Collector with exactly the retained batches
  /// with ts in [t_lo, t_hi] (rx) / [tx_lo, t_hi] (tx), per-direction order
  /// preserved, and return it. Every registered node is registered in the
  /// slice even if it contributes no batch. The slice is reused: each call
  /// clears its record vectors (keeping their capacity) and copies each run
  /// of consecutive kept batches' entries with one range insert, so the
  /// reference is valid until the next call.
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
  /// The slice is filled from the lanes, never through the collector's
  /// hooks, so rebuilding it does not touch the collector.* counters: those
  /// count dataplane collection, and these records were counted once when
  /// first collected.
  const collector::Collector& materialize(TimeNs t_lo, TimeNs t_hi,
                                          TimeNs tx_lo);

  /// True when no batch with ts in [t_lo, t_hi] is retained.
  bool empty_in(TimeNs t_lo, TimeNs t_hi) const;

  std::size_t retained_batches() const { return retained_batches_; }
  /// Bytes of the live lane records: batch records, IPIDs and five-tuples
  /// (the compacted-away prefix and spare capacity are not counted).
  std::size_t retained_bytes() const;
  /// Timestamp span covered by retained batches (0 when empty) — the
  /// quantity the bounded-memory guarantee is stated over.
  DurationNs retained_span() const;

 private:
  /// One node's lanes. `head` holds each direction's first live batch
  /// (indexed by collector::Direction); the batches before it are evicted
  /// and wait for compaction.
  struct Lanes {
    collector::NodeTrace trace;
    std::size_t head[2]{0, 0};
  };

  std::vector<Lanes> lanes_;  // by node id
  /// The reused slice; its registration table is also the store's.
  collector::Collector slice_;
  std::size_t retained_batches_{0};
};

}  // namespace microscope::online
