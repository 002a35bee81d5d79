// Full trace reconstruction: per-packet journeys across the NF DAG and
// per-NF queue timelines, built purely from collector records (plus the
// static DAG) — the offline front half of Microscope's diagnosis.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "collector/collector.hpp"
#include "common/flow.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "trace/align.hpp"
#include "trace/graph.hpp"

namespace microscope::trace {

inline constexpr std::uint32_t kNoJourney =
    std::numeric_limits<std::uint32_t>::max();

/// One NF hop of a packet's journey.
struct Hop {
  NodeId node{kInvalidNode};
  /// When the packet entered the node's input queue (upstream tx + prop).
  TimeNs arrival{0};
  /// When the NF read it from the queue (rx batch timestamp).
  TimeNs read{0};
  /// When the NF wrote it out (tx batch timestamp); kTimeNever if the
  /// packet died at this node.
  TimeNs depart{kTimeNever};
  /// Index of the packet's rx entry at this node (kNoEntry if it was
  /// dropped at the input queue and never read).
  std::uint32_t rx_idx{kNoEntry};
  std::uint32_t tx_idx{kNoEntry};

  /// Whether the packet left this node (false = it died here, so there is
  /// no hop latency to speak of).
  bool has_latency() const { return depart != kTimeNever; }

  /// Queueing + processing delay at this hop; nullopt for packets that
  /// died at this node (previously reported as 0, silently conflating
  /// "no latency" with "dropped").
  std::optional<DurationNs> latency() const {
    if (!has_latency()) return std::nullopt;
    return depart - arrival;
  }

  friend bool operator==(const Hop&, const Hop&) = default;
};

enum class Fate : std::uint8_t {
  kDelivered,
  kDroppedQueue,   // input queue overflow (inferred from a missed deadline)
  kDroppedPolicy,  // NF consumed it without emitting (e.g. firewall drop)
  kTruncated,      // reconstruction could not follow the packet further
};

struct Journey {
  /// Flow as emitted by the source (pre-NAT); the canonical identity used
  /// for aggregation.
  FiveTuple flow{};
  /// Flow as recorded at the graph edge (post-NAT); only for delivered
  /// packets.
  FiveTuple edge_flow{};
  std::uint16_t ipid{0};
  NodeId source{kInvalidNode};
  std::uint32_t source_idx{kNoEntry};  // tx entry index at the source
  TimeNs source_time{0};
  Fate fate{Fate::kDelivered};
  /// Node where the packet died (for the two drop fates).
  NodeId end_node{kInvalidNode};
  std::vector<Hop> hops;  // in path order (source not included)

  bool complete() const { return source != kInvalidNode; }
  /// End-to-end latency; only meaningful for delivered packets.
  DurationNs e2e_latency() const {
    return hops.empty() || hops.back().depart == kTimeNever
               ? 0
               : hops.back().depart - source_time;
  }

  friend bool operator==(const Journey&, const Journey&) = default;
};

/// One packet arriving at an NF's input queue (accepted or dropped).
struct Arrival {
  TimeNs t{0};
  NodeId from{kInvalidNode};
  std::uint32_t up_tx_idx{kNoEntry};
  /// rx entry index at this node; kNoEntry if dropped at the queue.
  std::uint32_t rx_idx{kNoEntry};
  std::uint32_t journey{kNoJourney};
  bool accepted() const { return rx_idx != kNoEntry; }

  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// Per-NF queue timeline reconstructed from records.
struct NodeTimeline {
  std::vector<Arrival> arrivals;  // sorted by t
  /// Read batches in time order: ts, count, and whether the batch was
  /// "short" (count < max_batch => the queue emptied; paper §5).
  struct Read {
    TimeNs ts;
    std::uint16_t count;
    bool short_batch;

    friend bool operator==(const Read&, const Read&) = default;
  };
  std::vector<Read> reads;
  /// Prefix sums of read counts (reads_cum[i] = packets read in batches
  /// [0, i]).
  std::vector<std::uint64_t> reads_cum;

  /// Number of accepted+dropped arrivals in (t0, t1].
  std::uint64_t arrivals_in(TimeNs t0, TimeNs t1) const;
  /// Number of packets read in batches with ts in (t0, t1].
  std::uint64_t reads_in(TimeNs t0, TimeNs t1) const;
  /// Index of first arrival with t > t0, arrivals.size() if none.
  std::size_t first_arrival_after(TimeNs t0) const;

  friend bool operator==(const NodeTimeline&, const NodeTimeline&) = default;
};

struct ReconstructOptions {
  AlignOptions align{};
  /// Link propagation delay assumed when converting upstream tx timestamps
  /// to arrival times (the topology's configured value).
  DurationNs prop_delay = 1_us;
  /// Batch size above which a read cannot prove the queue emptied.
  std::uint16_t max_batch = 32;
  /// Shard alignment, journey walks, and timeline construction across a
  /// thread pool. Defaults to sequential; parallel output is
  /// byte-identical to sequential (see DESIGN.md "Parallel analysis").
  ParallelOptions parallel{};
};

class Reconstruction;

class ReconstructedTrace {
 public:
  ReconstructedTrace(const GraphView& graph, ReconstructOptions opts)
      : graph_(graph), opts_(opts) {}

  const GraphView& graph() const { return graph_; }
  const ReconstructOptions& options() const { return opts_; }

  const Journey& journey(std::uint32_t id) const { return journeys_.at(id); }
  /// Ids of the live journeys in journey order: by terminal kind
  /// (delivered, dropped at a queue, dropped by policy), then node, then
  /// the terminal's entry number. Offline this is 0, 1, 2, ...; the online
  /// engine's persistent trace recycles the ids of evicted and speculative
  /// journeys, so this is the one iteration that serves both.
  const std::vector<std::uint32_t>& journey_order() const { return order_; }
  /// Every journey, indexed by id — a trace that has never recycled an id
  /// (offline). Throws std::logic_error on one that has, where freed slots
  /// would be counted as journeys.
  const std::vector<Journey>& journeys() const;

  const NodeTimeline& timeline(NodeId id) const { return timelines_.at(id); }
  bool has_timeline(NodeId id) const {
    return id < timelines_.size() && !timelines_[id].reads.empty();
  }

  const AlignStats& align_stats() const { return align_stats_; }
  const std::vector<NodeAlignment>& alignments() const { return alignments_; }

  /// Journey id of a node's rx entry (kNoJourney if unresolved).
  std::uint32_t journey_of_rx(NodeId node, std::uint32_t rx_idx) const;

 private:
  friend class Reconstruction;

  GraphView graph_;
  ReconstructOptions opts_;
  std::vector<Journey> journeys_;
  std::vector<std::uint32_t> order_;
  std::vector<NodeTimeline> timelines_;  // by node id
  /// [node][rx entry - alignments_[node].rx_base]
  std::vector<std::vector<std::uint32_t>> jid_of_rx_;
  std::vector<NodeAlignment> alignments_;
  AlignStats align_stats_{};
  /// Some journey id was freed for reuse.
  bool recycled_{false};
};

/// The resumable reconstruction: alignment, journeys and timelines extended
/// record by record. Each `advance` pulls the records visible under a
/// Frontier, commits every alignment decision, journey and arrival field no
/// later record can change, and recomputes the rest as a speculative tail;
/// `discard_speculative` drops that tail again. Offline, one final advance
/// over a whole collector is the reconstruction (see reconstruct()); the
/// online engine advances once per window, with absolute entry numbers and
/// eviction keeping the state bounded (DESIGN.md §7).
class Reconstruction {
 public:
  Reconstruction(const GraphView& graph, ReconstructOptions opts);

  const ReconstructedTrace& trace() const { return rt_; }

  /// Extend over the records of `lanes` with ts <= f.ceiling. Walks every
  /// journey whose terminal is not committed yet; on return trace() holds
  /// the committed state plus the speculative tail.
  void advance(const RecordLanes& lanes, const Frontier& f, ThreadPool* pool);

  /// Undo everything the last advance left uncommitted.
  void discard_speculative(ThreadPool* pool);

  /// Evict every entry, journey, arrival and read older than `horizon`.
  /// Per-entry lanes and timelines are compacted right away (the journeys
  /// held per terminal kind behind an amortized head).
  void evict_before(TimeNs horizon);

  /// One past the highest absolute number held, over every space.
  std::uint32_t numbers_end() const;
  /// Shift every number space so that the smallest number it holds, here
  /// or among the bases of `lanes` (the store's), becomes `lowest` (mod
  /// 2^32): renumbering to 0 keeps the absolute numbers from wrapping.
  /// Returns the entry shifts for the store to apply. Only with no
  /// speculative tail held (throws std::logic_error otherwise).
  EntryShifts renumber(const RecordLanes& lanes, std::uint32_t lowest = 0);

  /// Journeys the last advance walked, and how many of them it committed.
  std::size_t walked() const { return walked_; }
  std::size_t committed() const { return committed_; }
  /// Live journeys held (committed plus speculative).
  std::size_t live_journeys() const;
  /// Bytes of the per-entry lanes, streams, journeys and timelines held.
  std::size_t retained_bytes() const;

  /// The trace, leaving this object empty.
  ReconstructedTrace take() { return std::move(rt_); }

  /// The alignment state (which decisions are committed).
  const Aligner& aligner() const { return aligner_; }

  /// A committed journey and its terminal: kind 0 = delivered (the tx
  /// entry toward the sink), 1 = dropped at a queue (the tx entry whose
  /// drop was inferred), 2 = dropped by policy (the rx entry).
  struct Terminal {
    int kind;
    NodeId node;
    std::uint32_t entry;
    std::uint32_t id;
  };
  /// Every committed live journey, in journey order.
  std::vector<Terminal> committed_terminals() const;

 private:
  /// Terminal kinds in journey order.
  enum Kind : std::uint8_t { kDelivered, kQueueDrop, kPolicyDrop, kKinds };

  struct Seed {
    Kind kind{kDelivered};
    NodeId node{kInvalidNode};
    std::uint32_t entry{kNoEntry};  // tx entry (delivered, queue drop) or rx
    std::uint32_t id{kNoJourney};
    bool committed{false};  // every decision the walk read is committed
  };
  struct Held {
    std::uint32_t id;
    std::uint32_t entry;  // the terminal's entry
    TimeNs end;           // no hop of the journey is later (eviction key)
  };
  struct NodeState {
    std::uint32_t tx_base{0};
    std::uint32_t rx_base{0};
    /// Per tx entry: the journey through it, and its arrival's index at the
    /// peer's timeline.
    std::vector<std::uint32_t> jid_of_tx;
    std::vector<std::uint32_t> arr_pos;
    /// Next entry each terminal kind examines: everything before it is
    /// committed.
    std::uint32_t term_next[kKinds]{0, 0, 0};
    /// Committed journeys per kind in journey order, oldest first.
    std::vector<Held> held[kKinds];
    std::size_t held_head[kKinds]{0, 0, 0};
    /// Speculative journeys per kind in journey order.
    std::vector<std::uint32_t> spec[kKinds];
    /// Absolute index of timeline.arrivals[0]; arrivals past `arr_committed`
    /// are speculative. Per incoming stream, the next position to become
    /// an arrival.
    std::uint32_t arr_base{0};
    std::size_t arr_committed{0};
    std::uint64_t next_read{0};  // absolute rx batch
    /// Per outgoing stream (parallel to Aligner::Node::out): the next
    /// position to become an arrival at the peer, and the position from
    /// which the arrivals' rx_idx may still change.
    std::vector<std::uint32_t> arrived;
    std::vector<std::uint32_t> synced;
  };

  void walk_terminals(const RecordLanes& lanes, const Frontier& f,
                      ThreadPool* pool);
  bool walk(const RecordLanes& lanes, Kind kind, NodeId node,
            std::uint32_t entry, Journey& j, std::uint32_t id);
  void build_timelines(const RecordLanes& lanes, const Frontier& f,
                       ThreadPool* pool);
  void set_jid_of_tx(NodeId u, std::uint32_t tx, std::uint32_t id);
  /// Copy the consumers of d's incoming stream entries into their
  /// arrivals, from the positions that may have changed since the last
  /// rollback (`after_rollback`: from the committed cursors).
  void refresh_consumers(NodeId d, bool after_rollback);
  void unlink(const Journey& j);
  std::uint32_t alloc_journey();
  void free_journey(std::uint32_t id);
  void rebuild_order();
  /// Every absolute number held, here and in the aligner.
  void visit_numbers(const NumberVisitor& visit);

  ReconstructedTrace rt_;
  Aligner aligner_;
  std::vector<NodeState> nodes_;
  std::vector<std::uint32_t> free_;
  std::size_t walked_{0};
  std::size_t committed_{0};
  /// An advance left a speculative tail that discard_speculative has not
  /// undone yet.
  bool tail_held_{false};
};

/// Run alignment and assemble journeys + timelines: one final advance over
/// the whole collector.
ReconstructedTrace reconstruct(const collector::Collector& col,
                               const GraphView& graph,
                               const ReconstructOptions& opts = {});

}  // namespace microscope::trace
