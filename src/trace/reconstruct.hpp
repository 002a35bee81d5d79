// Full trace reconstruction: per-packet journeys across the NF DAG and
// per-NF queue timelines, built purely from collector records (plus the
// static DAG) — the offline front half of Microscope's diagnosis. A
// timeline's arrivals are upstream tx entries; their journey and consumer
// are read from that entry's lanes, where each fact has its one home.
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

/// One packet arriving at an NF's input queue (accepted or dropped): the
/// upstream tx entry it was. Its journey and the rx entry that read it live
/// in the upstream's tx lanes (ReconstructedTrace::journey_of / consumer_of).
struct Arrival {
  TimeNs t{0};
  NodeId from{kInvalidNode};
  std::uint32_t up_tx_idx{kNoEntry};

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

  /// The journey through tx entry `tx` of node `u` (kNoJourney: none).
  std::uint32_t journey_of_tx(NodeId u, std::uint32_t tx) const {
    return tx_journey_[u][tx - alignments_[u].tx_base];
  }
  /// The journey of an arrival (kNoJourney: none), and the rx entry that
  /// read it (kNoEntry: dropped at the queue, or not read yet).
  std::uint32_t journey_of(const Arrival& a) const {
    return journey_of_tx(a.from, a.up_tx_idx);
  }
  std::uint32_t consumer_of(const Arrival& a) const {
    const NodeAlignment& u = alignments_[a.from];
    return u.tx_consumer[a.up_tx_idx - u.tx_base];
  }
  bool accepted(const Arrival& a) const { return consumer_of(a) != kNoEntry; }

  const AlignStats& align_stats() const { return align_stats_; }
  const std::vector<NodeAlignment>& alignments() const { return alignments_; }

 private:
  friend class Reconstruction;

  GraphView graph_;
  ReconstructOptions opts_;
  std::vector<Journey> journeys_;
  std::vector<std::uint32_t> order_;
  std::vector<NodeTimeline> timelines_;  // by node id
  std::vector<NodeAlignment> alignments_;
  /// Per node, parallel to its alignment's tx lanes: the journey through
  /// each tx entry.
  std::vector<std::vector<std::uint32_t>> tx_journey_;
  AlignStats align_stats_{};
  /// Some journey id was freed for reuse.
  bool recycled_{false};
};

/// The resumable reconstruction: alignment, journeys and timelines extended
/// record by record. Each `advance` pulls the records visible under a
/// Frontier, commits every alignment decision, journey and arrival no later
/// record can change, and recomputes the rest as a speculative tail;
/// `discard_speculative` drops that tail again. An arrival is written once:
/// its journey and consumer are read from the upstream's tx lanes, which
/// the walk and the alignment keep current. Offline, one final advance over
/// a whole collector is the reconstruction (see reconstruct()); the online
/// engine advances once per window, with absolute entry numbers and
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

  /// Evict every entry, journey and read older than `horizon`, and every
  /// arrival with its upstream tx entry: erase the evicted prefix of every
  /// per-entry lane, held journey list and timeline, the one way every
  /// lane evicts (DESIGN.md §7).
  void evict_before(TimeNs horizon);

  /// One past the highest entry number held, over every space.
  std::uint32_t numbers_end() const;
  /// Shift every entry number space so that the smallest number it holds,
  /// here or among the bases of `lanes` (the store's), becomes `lowest`
  /// (mod 2^32): renumbering to 0 keeps the absolute numbers from wrapping.
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
    /// Next entry each terminal kind examines: everything before it is
    /// committed.
    std::uint32_t term_next[kKinds]{0, 0, 0};
    /// Committed journeys per kind in journey order, oldest first.
    std::vector<Held> held[kKinds];
    /// Speculative journeys per kind in journey order.
    std::vector<std::uint32_t> spec[kKinds];
    /// Arrivals past this one of the timeline are speculative.
    std::size_t arr_committed{0};
    std::uint64_t next_read{0};  // absolute rx batch
  };

  void walk_terminals(const RecordLanes& lanes, const Frontier& f,
                      ThreadPool* pool);
  bool walk(const RecordLanes& lanes, Kind kind, NodeId node,
            std::uint32_t entry, Journey& j, std::uint32_t id);
  void build_timelines(const RecordLanes& lanes, const Frontier& f,
                       ThreadPool* pool);
  void set_tx_journey(NodeId u, std::uint32_t tx, std::uint32_t id);
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
/// the whole collector, sharded across `pool` when it is non-null (the
/// output is byte-identical either way; see DESIGN.md "Parallel
/// analysis").
ReconstructedTrace reconstruct(const collector::Collector& col,
                               const GraphView& graph,
                               const ReconstructOptions& opts = {},
                               ThreadPool* pool = nullptr);

}  // namespace microscope::trace
