// Bounded in-memory record store for the streaming diagnosis engine.
//
// Holds every node's record stream between the eviction horizon (oldest
// data any still-open window may need) and the newest data drained so far,
// in the collector's own columnar layout: per node one `collector::NodeTrace`
// whose rx/tx `BatchRecord` lanes and IPID lanes (plus five-tuple lanes on a
// full-flow node's tx side) are appended to directly, with no allocation per
// batch. Per-direction record order is preserved exactly as ingested — the
// order the offline collector would hold them in — and every batch and entry
// keeps its absolute number (its index had nothing ever been evicted), which
// is how the persistent reconstruction reads the lanes (lanes()).
//
// At every window close, eviction erases each (node, direction) lane's
// front batches older than the horizon, with their entries, and adds them
// to the lane's bases (DESIGN.md §7, "Eviction"), so a lane holds only
// live batches. Entry numbers are 32 bits wide: the engine shifts them down
// together with the reconstruction's (trace::Reconstruction::renumber)
// long before they could wrap, and `add` refuses a batch whose numbers
// would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "collector/records.hpp"
#include "common/packet.hpp"
#include "common/time.hpp"
#include "trace/align.hpp"

namespace microscope::online {

class StreamStore {
 public:
  /// Declare a node (idempotent). `full_flow` mirrors the collector flag:
  /// the node's tx side then keeps five-tuples, so reconstruction sees
  /// five-tuples exactly where the offline path would. Turning the flag on
  /// for a node that already holds tx records gives those records default
  /// five-tuples.
  void register_node(NodeId id, bool full_flow);

  bool has_node(NodeId id) const {
    return id < lanes_.size() && lanes_[id].registered;
  }
  bool full_flow(NodeId id) const {
    return has_node(id) && lanes_[id].trace.full_flow;
  }

  /// Append one batch to `node`'s rx or tx lanes (node must be registered).
  /// Only the packets' IPIDs are kept, plus their five-tuples on a full-flow
  /// node's tx side; `peer` is ignored for rx batches. Throws
  /// std::overflow_error when an entry number would reach trace::kNoEntry
  /// (the lanes were not renumbered in time).
  void add(collector::Direction dir, NodeId node, NodeId peer, TimeNs ts,
           std::span<const Packet> pkts);

  /// Erase every batch with ts < horizon from the front of each
  /// (node, direction) lane, with its entries. Lanes are expected to be
  /// (approximately) time-ordered: a regressed batch waits behind its
  /// positional predecessor, and is erased once that one passes the
  /// horizon too.
  void evict_before(TimeNs horizon);

  /// Every node's lanes with their absolute bases, for the reconstruction
  /// to read (valid until the next add or evict_before).
  trace::RecordLanes lanes() const;

  /// One past the highest entry number of any lane.
  std::uint32_t entries_end() const;
  /// Lower every lane's entry numbers by its shift, mod 2^32 (see
  /// trace::Reconstruction::renumber).
  void renumber(const trace::EntryShifts& shifts);

  /// Timestamp of the newest batch ever added to a lane
  /// (std::numeric_limits<TimeNs>::min() before the first).
  TimeNs newest(collector::Direction dir, NodeId node) const {
    return lanes_[node].newest[static_cast<std::size_t>(dir)];
  }

  /// True when no batch with ts in [t_lo, t_hi] is retained.
  bool empty_in(TimeNs t_lo, TimeNs t_hi) const;

  std::size_t retained_batches() const { return retained_batches_; }
  /// Bytes of the lane records held: batch records, IPIDs and five-tuples
  /// (spare capacity is not counted).
  std::size_t retained_bytes() const;
  /// Timestamp span covered by retained batches (0 when empty) — the
  /// quantity the bounded-memory guarantee is stated over.
  DurationNs retained_span() const;

 private:
  /// One node's lanes. The bases (indexed by collector::Direction) count
  /// the batches and entries eviction erased.
  struct Lanes {
    collector::NodeTrace trace;
    bool registered{false};
    std::uint64_t batch_base[2]{0, 0};
    std::uint32_t entry_base[2]{0, 0};
    TimeNs newest[2]{std::numeric_limits<TimeNs>::min(),
                     std::numeric_limits<TimeNs>::min()};
  };

  std::vector<Lanes> lanes_;  // by node id
  std::size_t retained_batches_{0};
};

}  // namespace microscope::online
