// Record alignment: maps per-NF collector records of the same packet across
// nodes despite 16-bit IPID collisions (paper §5).
//
// Two alignment problems are solved per node:
//
//  * Link alignment — which upstream tx entry does each rx entry of this
//    node correspond to? Uses the paper's three side channels:
//      (1) paths: only declared upstream neighbours are candidates,
//      (2) timing: a candidate's tx timestamp must lie within the delay
//          bound of the rx read timestamp,
//      (3) order: per-link FIFO is preserved, so only each upstream
//          stream's head-of-line entry is ever a candidate (Fig. 9).
//    A matched upstream entry records the rx entry that read it (its
//    consumer); upstream entries whose delivery deadline passes unmatched
//    are flagged as dropped at this node's input queue.
//
//  * Internal alignment — which tx entry did each rx entry of this node
//    become after processing? NFs are FIFO run-to-completion, so the rx
//    sequence maps order-preservingly onto the per-destination tx streams;
//    rx entries that match no stream were dropped by NF policy.
//
// Both problems are sequential merges over time-ordered record streams, so
// the alignment is resumable: `Aligner` keeps every per-link stream and its
// cursors across calls, and each `match` continues from the committed
// cursors over the records pulled since. Offline, one `match` over the
// whole trace commits everything; the online engine commits only the
// decisions no later record can change and recomputes the rest per window
// (DESIGN.md §7). Entry numbers are the only absolute numbers; stream
// positions count from the stream's front.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "collector/collector.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "trace/graph.hpp"

namespace microscope::trace {

inline constexpr std::uint32_t kNoEntry =
    std::numeric_limits<std::uint32_t>::max();

/// Reference to a tx-side packet entry at a node.
struct TxRef {
  NodeId node{kInvalidNode};
  std::uint32_t idx{kNoEntry};
  bool valid() const { return node != kInvalidNode && idx != kNoEntry; }

  friend bool operator==(const TxRef&, const TxRef&) = default;
};

struct AlignOptions {
  /// Upper bound on (read time − upstream tx time): propagation plus the
  /// worst-case queue wait. Entries older than this are declared dropped.
  DurationNs max_link_delay = 200_ms;
  /// Upper bound on (tx time − rx read time) inside one NF: the worst-case
  /// batch service time.
  DurationNs max_nf_delay = 50_ms;
  /// Slack allowed for timestamp noise when comparing clocks.
  DurationNs slack = 2_us;

  // --- ablation knobs (paper §5 lists three side channels; these switch
  // the second and third off to measure their contribution). Offline
  // only: the online engine rejects them. ---
  /// Apply the timing bounds above when selecting candidates.
  bool use_timing = true;
  /// Enforce per-link FIFO order (head-of-line matching). When off, any
  /// unconsumed entry with the right IPID is a candidate (earliest tx wins).
  bool use_order = true;
};

/// Per-node alignment output. Entries are numbered absolutely: element k of
/// an rx lane is rx entry rx_base + k, of a tx lane tx entry tx_base + k.
/// Offline both bases are 0; the online engine's persistent reconstruction
/// raises them as it evicts old entries, and renumbers both spaces now and
/// then (Renumbering).
struct NodeAlignment {
  std::uint32_t rx_base{0};
  std::uint32_t tx_base{0};
  // Link alignment (rx side).
  std::vector<TxRef> rx_origin;            // per rx entry
  // Internal alignment.
  std::vector<std::uint32_t> rx_to_tx;     // per rx entry; kNoEntry = policy drop
  std::vector<std::uint32_t> tx_to_rx;     // per tx entry; kNoEntry for sources
  // Downstream fate of tx entries (filled while aligning the downstream
  // node): the peer's rx entry that read it (kNoEntry: not read), and
  // whether it was dropped at the peer's input queue.
  std::vector<std::uint32_t> tx_consumer;
  std::vector<std::uint8_t> tx_dropped_downstream;
  /// Destination of each tx entry (its batch's peer).
  std::vector<NodeId> tx_peer;
  // Entry -> batch timestamp as structure-of-arrays lanes, so the hot loops
  // (alignment candidate checks, journey walk-back) read one contiguous
  // value instead of chasing entry -> batch -> record.
  std::vector<TimeNs> rx_entry_ts;
  std::vector<TimeNs> tx_entry_ts;

  /// One past the newest rx / tx entry held.
  std::uint32_t rx_end() const {
    return rx_base + static_cast<std::uint32_t>(rx_origin.size());
  }
  std::uint32_t tx_end() const {
    return tx_base + static_cast<std::uint32_t>(tx_to_rx.size());
  }

  friend bool operator==(const NodeAlignment&, const NodeAlignment&) = default;
};

struct AlignStats {
  std::uint64_t link_matched{0};
  std::uint64_t link_ambiguous{0};  // resolved by order/time tie-break
  std::uint64_t link_unmatched{0};
  std::uint64_t queue_drops_inferred{0};
  std::uint64_t internal_matched{0};
  std::uint64_t internal_ambiguous{0};
  /// Tx entries skipped during internal alignment because no remaining rx
  /// read could claim them (their rx record fell outside the trace).
  std::uint64_t internal_expired{0};
  std::uint64_t policy_drops_inferred{0};

  AlignStats& operator+=(const AlignStats& o) {
    link_matched += o.link_matched;
    link_ambiguous += o.link_ambiguous;
    link_unmatched += o.link_unmatched;
    queue_drops_inferred += o.queue_drops_inferred;
    internal_matched += o.internal_matched;
    internal_ambiguous += o.internal_ambiguous;
    internal_expired += o.internal_expired;
    policy_drops_inferred += o.policy_drops_inferred;
    return *this;
  }
  friend bool operator==(const AlignStats&, const AlignStats&) = default;
};

/// Registry handles of the alignment stage (trace.align.*), resolved once
/// per process; building an Aligner registers them. The counters mirror
/// the committed AlignStats. prepare_ns times the pull into per-entry
/// lanes, which align_all and Reconstruction::advance both run.
struct AlignMetrics {
  obs::Histogram& prepare_ns;
  obs::Histogram& link_pass_ns;
  obs::Histogram& internal_pass_ns;
  obs::Counter& link_matched;
  obs::Counter& link_ambiguous;
  obs::Counter& link_unmatched;
  obs::Counter& queue_drops_inferred;
  obs::Counter& internal_matched;
  obs::Counter& internal_ambiguous;
  obs::Counter& internal_expired;
  obs::Counter& policy_drops_inferred;

  static AlignMetrics& get();
};

/// One node's record lanes as the reconstruction reads them: batch b of a
/// direction is absolute batch batch_base + b, entry k absolute entry
/// entry_base + k (both indexed by collector::Direction). Offline the bases
/// are 0; the online store raises them as it erases evicted prefixes, in
/// step with the NodeAlignment bases of every NF and source.
struct NodeLanes {
  const collector::NodeTrace* trace{nullptr};  // nullptr: not registered
  std::uint64_t batch_base[2]{0, 0};
  std::uint32_t entry_base[2]{0, 0};
};
using RecordLanes = std::vector<NodeLanes>;  // by node id

/// The lanes of every node registered with `col`, bases 0.
RecordLanes lanes_of(const collector::Collector& col);

// --- Renumbering ---------------------------------------------------------
// Absolute numbers are 32 bits wide and grow with the stream: a lane at
// 1.2 Mpps passes 2^32 entries in about an hour. The only absolute numbers
// are entry numbers, one sequence per (node, direction). Before any number
// can wrap, the online engine shifts each sequence down by the smallest
// number still held in it — in the store's lanes and in every lane, cursor
// and journey of the reconstruction alike — so the live numbers start near
// 0 again and every difference between two of them is kept.

/// The engine renumbers once any absolute number reaches this.
inline constexpr std::uint32_t kRenumberAt = std::uint32_t{1} << 31;

/// The sequences absolute numbers count in: a node's rx entries and tx
/// entries (the values of collector::Direction).
enum class Numbering : std::uint8_t { kRx, kTx };
struct NumberSpace {
  Numbering kind{Numbering::kRx};
  NodeId node{kInvalidNode};
};
/// Reads or rewrites one stored absolute number (sentinels are skipped).
using NumberVisitor = std::function<void(const NumberSpace&, std::uint32_t&)>;
/// How far each node's rx and tx entry numbers were shifted down (indexed
/// by node id, then collector::Direction).
using EntryShifts = std::vector<std::array<std::uint32_t, 2>>;

/// How far a resumable pass may commit.
struct Frontier {
  /// Records with ts <= ceiling are visible to this pass; every record not
  /// yet visible (held back or still to come) has ts >= ceiling.
  TimeNs ceiling{kTimeNever};
  /// Decisions about records older than this commit as they stand: the
  /// state they could still touch is about to be evicted.
  TimeNs force{std::numeric_limits<TimeNs>::min()};

  /// No ceiling: no record follows the visible ones (offline), so
  /// everything commits.
  bool final() const { return ceiling == kTimeNever; }
};

/// Resumable alignment state: per-link packet streams with committed link
/// and internal cursors, and per-node committed rx counts. Decisions past
/// the committed cursors are speculative: `match` recomputes them from the
/// cursors on every call and `rollback` undoes them.
class Aligner {
 public:
  /// One packet stream between a (tx node, peer) pair as contiguous SoA
  /// lanes in FIFO order. Positions count from the front of the lanes, and
  /// eviction moves every cursor down by the positions it erases.
  struct Stream {
    NodeId up{kInvalidNode};
    NodeId peer{kInvalidNode};
    /// The peer link-aligns this stream (it is an NF and `up` one of its
    /// graph upstreams); other streams are never read or dropped.
    bool linked{false};
    bool sorted{true};  // ts nondecreasing
    std::vector<std::uint32_t> entry;  // tx entry index at `up`
    std::vector<TimeNs> ts;
    std::vector<std::uint16_t> ipid;
    std::uint32_t link_head{0};  // committed link cursor (run by `peer`)
    std::uint32_t int_head{0};   // committed internal cursor (run by `up`)
    /// Next position to become an arrival at the peer's timeline (run by
    /// the reconstruction's timeline shard of `peer`).
    std::uint32_t arrived{0};

    std::uint32_t end() const {
      return static_cast<std::uint32_t>(entry.size());
    }
  };

  /// A stream arriving at a node: owner and index in its `out`.
  struct InStream {
    NodeId up{kInvalidNode};
    std::uint32_t idx{0};
  };

  struct Node {
    /// Next batch to pull, by collector::Direction (absolute).
    std::uint64_t next_batch[2]{0, 0};
    /// Timestamp of the newest rx batch pulled (0 before the first).
    TimeNs last_read{0};
    /// Committed rx entries of the link and internal passes (absolute).
    std::uint32_t link_done{0};
    std::uint32_t int_done{0};
    /// Outgoing streams in first-appearance order of their peer (the order
    /// internal alignment scans them in); `registered` of them are listed
    /// in their peer's `in`.
    std::vector<Stream> out;
    std::size_t registered{0};
    /// Linked incoming streams in graph upstream order (link alignment's
    /// order).
    std::vector<InStream> in;
  };

  Aligner(const GraphView& graph, const AlignOptions& opts);

  const AlignOptions& options() const { return opts_; }
  const Node& node(NodeId id) const { return nodes_[id]; }
  const Stream& stream(const InStream& s) const {
    return nodes_[s.up].out[s.idx];
  }
  Stream& stream(const InStream& s) { return nodes_[s.up].out[s.idx]; }

  /// Append every visible record (ts <= ceiling) not pulled yet to the
  /// per-entry lanes of `out` (sized to the graph) and to the streams.
  void pull(const RecordLanes& lanes, TimeNs ceiling,
            std::vector<NodeAlignment>& out, ThreadPool* pool);

  /// Run the link and internal passes from the committed cursors over every
  /// pulled rx entry, committing the longest prefix of decisions that no
  /// record at or after f.ceiling can change (or that f forces) and adding
  /// their counts to `committed`. Sharded per node when `pool` is non-null.
  void match(const RecordLanes& lanes, const Frontier& f,
             std::vector<NodeAlignment>& out, AlignStats& committed,
             ThreadPool* pool);

  /// Undo every decision past the committed cursors.
  void rollback(std::vector<NodeAlignment>& out, ThreadPool* pool);

  /// Evict every entry older than `horizon` (and the stream positions that
  /// carry them): erase the evicted prefix of every lane and raise its base
  /// past it, the one way every lane evicts (DESIGN.md §7). Committed
  /// cursors below a base move up to it; every cursor of a stream moves
  /// down by the positions it erased. An entry is live while it is at or
  /// above its lane's base.
  void evict_before(TimeNs horizon, std::vector<NodeAlignment>& out);

  /// Every absolute number held here and in `out` — lane bases, cursors,
  /// alignment decisions, consumers and stream entries — handed to `visit`
  /// with its space, each lane base once.
  void visit_numbers(std::vector<NodeAlignment>& out,
                     const NumberVisitor& visit);

  // --- decision state (absolute entry numbers) --------------------------
  /// Link alignment of rx entry `rx` at `d` is committed.
  bool link_committed(NodeId d, std::uint32_t rx) const {
    return rx < nodes_[d].link_done;
  }
  /// Internal alignment of rx entry `rx` at `d` is committed.
  bool internal_committed(NodeId d, std::uint32_t rx) const {
    return rx < nodes_[d].int_done;
  }
  /// Which rx entry of `u` claims tx entry `tx` (its tx_to_rx) is
  /// committed.
  bool claim_committed(NodeId u, std::uint32_t tx,
                       const NodeAlignment& a) const;
  /// Whether tx entry `tx` of `u` was read or dropped downstream (its
  /// consumer and drop flag) is committed.
  bool fate_committed(NodeId u, std::uint32_t tx,
                      const NodeAlignment& a) const;

  /// Bytes held by the streams.
  std::size_t retained_bytes() const;

 private:
  void link_node(NodeId d, const RecordLanes& lanes, const Frontier& f,
                 std::vector<NodeAlignment>& out, AlignStats& committed);
  void link_node_unordered(NodeId d, const RecordLanes& lanes,
                           std::vector<NodeAlignment>& out,
                           AlignStats& committed);
  void internal_node(NodeId d, const RecordLanes& lanes, const Frontier& f,
                     std::vector<NodeAlignment>& out, AlignStats& committed);

  GraphView graph_;
  AlignOptions opts_;
  std::vector<Node> nodes_;
  /// Per node: every graph downstream has an outgoing stream.
  std::vector<std::uint8_t> downstreams_seen_;
};

/// Align every node of the graph in one committed pass over the whole
/// collector. Returns one NodeAlignment per node id (sources get tx-side
/// maps only).
///
/// When `pool` is non-null each pass is sharded per node across it;
/// per-node alignments are independent (the only cross-node writes,
/// upstream `tx_dropped_downstream` flags, land on elements owned by
/// exactly one downstream node), and stats are accumulated per node and
/// merged in node-id order — the output is identical to a sequential run.
std::vector<NodeAlignment> align_all(const collector::Collector& col,
                                     const GraphView& graph,
                                     const AlignOptions& opts,
                                     AlignStats* stats,
                                     ThreadPool* pool = nullptr);

}  // namespace microscope::trace
