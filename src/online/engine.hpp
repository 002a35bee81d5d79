// Streaming diagnosis engine (online mode).
//
// Incrementally ingests collector record streams — direct hook calls, raw
// wire bytes, or an external-drain RingCollector — appending each batch to
// the StreamStore's per-node columnar lanes, segments them into fixed time
// windows, and when a window closes (watermark coverage, see window.hpp)
// extends one persistent trace::Reconstruction over the records up to the
// window's end + slack and diagnoses the victims anchored in the window
// exactly as the offline pipeline would. Each record is aligned, walked and
// put on a timeline once; only the decisions a later record could still
// change form a speculative tail that every window recomputes and then
// discards (DESIGN.md §7). One StreamStore, one WindowManager, one thread;
// multi-core speed comes from the analysis pool, built once per engine and
// shared by both stages (see OnlineOptions::threads).
//
// Equivalence guarantee: for every closed window, the emitted diagnoses are
// byte-identical to running the offline Diagnoser over the full trace with
// the same options and keeping the victims anchored inside that window
// (modulo victim.journey, a reconstruction-instance-local id). This holds
// for any window size, drain chunk size, and thread count, provided
//   slack   >= max in-flight time of a packet (queueing + propagation —
//              this also bounds the delivery tail past a victim anchor), and
//   history >= diagnosis lookback (max_depth recursions x max_lookback
//              plus propagation and journey length) plus slack,
// because then the window's view — the committed reconstruction, which
// equals the offline one entry for entry, plus a tail computed from exactly
// the records <= end + slack — holds every journey and arrival either
// side's diagnosis of those victims can touch, and every analysis stage
// below is deterministic with canonical tie-breaking.
//
// Memory is bounded: records and reconstruction state are evicted as soon
// as the last window that may need them closes, so the retained span never
// exceeds history + window + 2*slack (plus the not-yet-closed tail of the
// stream): at every close, store and reconstruction erase the evicted
// prefix of each lane at one horizon (DESIGN.md §7). Records that arrive
// out of order within their lane, or below the last closed window's
// end + slack (after an idle-forced close), are dropped and counted: the
// committed reconstruction has already decided everything they could have
// changed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "collector/ring.hpp"
#include "collector/wire.hpp"
#include "common/packet.hpp"
#include "common/time.hpp"
#include "core/diagnosis.hpp"
#include "core/provenance.hpp"
#include "online/aggregator.hpp"
#include "online/stream_store.hpp"
#include "online/window.hpp"
#include "trace/graph.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::obs {
class IntrospectionHub;
class TraceRecorder;
}

namespace microscope::online {

/// Diagnoser options tuned for streaming: the offline default anchors a
/// latency victim at the first hop whose local latency is abnormal vs the
/// *whole-trace* per-hop statistics — a global quantity no online engine
/// can know. Disabling the stddev test (k = inf) anchors at the journey's
/// max-latency hop, a pure per-journey function, which makes per-window
/// output independent of what else is in the trace. Use the same options
/// offline when comparing.
core::DiagnoserOptions streaming_diagnoser_defaults();

struct OnlineOptions {
  /// Window core length.
  DurationNs window_ns = 10_ms;
  /// Watermark slack past a window's end before it may close (covers
  /// propagation + queueing of packets anchored inside the core).
  DurationNs slack_ns = 2_ms;
  /// Records older than window_start - history are evicted; 0 derives a
  /// bound from the diagnoser's recursion depth and period lookback.
  DurationNs history_ns = 0;
  /// Force-close a window when the global watermark runs this far past its
  /// due point while some node's stream is stalled. 0 = wait forever.
  DurationNs idle_timeout_ns = 0;
  /// Latency victims: delivered packets with e2e latency above this.
  DurationNs latency_threshold = 1_ms;
  bool diagnose_latency = true;
  bool diagnose_drops = false;
  /// Backpressure: when the store holds this many batches, further
  /// ingestion is dropped (and counted) instead of growing memory.
  /// 0 = unlimited.
  std::size_t max_retained_batches = 0;
  /// Record full attribution provenance per diagnosis into
  /// WindowResult::provenances (for invariant auditing — e.g. the chaos
  /// suite's conservation check). The diagnoses themselves are unchanged.
  bool capture_provenance = false;
  /// Analysis pool workers. N > 1 builds one ThreadPool(N) with the
  /// engine, which both stages (reconstruction and diagnosis) share: the
  /// thread closing a window runs chunks beside the N workers, so N + 1
  /// threads work. 0 or 1 runs both stages on the calling thread.
  unsigned threads = 0;
  core::DiagnoserOptions diagnoser = streaming_diagnoser_defaults();
  trace::ReconstructOptions reconstruct{};
  StreamingAggregatorOptions aggregator{};
  /// Nonzero selects the bounded-memory sketch aggregator sized to this
  /// byte budget (DESIGN.md §14, CLI --agg-memory-budget); 0 keeps the
  /// exact StreamingAggregator.
  std::size_t agg_memory_budget = 0;
  /// NF catalog for the sketch's instance -> type generalization ladder
  /// (consulted when agg_memory_budget > 0); its node_names also label
  /// nodes in the introspection hub's /explain renderings.
  autofocus::NfCatalog agg_catalog{};
  /// Live introspection hub (obs/introspect.hpp). When set, every closed
  /// window is published as a /windows board note, and diagnosed windows
  /// additionally publish rendered --explain output (attribution tree +
  /// provenance JSON) for their top 8 victims by total attribution score.
  /// Provenance is captured as with capture_provenance.
  std::shared_ptr<obs::IntrospectionHub> introspection{};
  /// Wire decode validation for feed_bytes/drain_ring ingestion. Defaults
  /// to lenient raw decode with the timestamp check off (the ring is a
  /// trusted in-process stream); tailing a file from another process is
  /// where kStrict or a timestamp tolerance earns its keep. The framing is
  /// switched per-source via set_wire_framing (a v2 trace header does it).
  collector::DecodeOptions decode{};
};

/// Effective history horizon: the given history_ns, or (when 0) the
/// worst-case lookback of a recursive diagnosis anchored at the window
/// start — each of the max_depth levels can walk one queuing period
/// (<= max_lookback) plus a propagation hop, and the victim's own journey
/// spans at most slack back to its source record.
DurationNs derive_history(const OnlineOptions& opts);

/// One closed window's diagnosis output.
struct WindowResult {
  std::int64_t index{0};
  TimeNs start{0};
  TimeNs end{0};  // exclusive
  bool idle_forced{false};
  /// Journeys walked while closing the window: the ones it committed plus
  /// the speculative tail it recomputed (repeated work shows as the excess
  /// over the committed ones).
  std::size_t journeys{0};
  /// Of `journeys`, the ones committed by this window.
  std::size_t journeys_committed{0};
  /// Diagnoses of victims anchored in [start, end), in deterministic
  /// victim order. victim.journey is window-local bookkeeping.
  std::vector<core::Diagnosis> diagnoses;
  /// Parallel to `diagnoses` when OnlineOptions::capture_provenance is
  /// set or an introspection hub is attached; empty otherwise.
  std::vector<core::Provenance> provenances;
};

/// The ingestion-facing interface of the streaming engine. The replay and
/// file-tail drivers (replay.hpp) are written against it, so anything that
/// consumes the same record stream — OnlineEngine, or a recorder capturing
/// a replay — can stand behind them.
class StreamTarget {
 public:
  virtual ~StreamTarget() = default;

  /// Declare a node before feeding its records (mirrors Collector).
  virtual void register_node(NodeId id, bool full_flow) = 0;

  // --- ingestion (any mix; per-node streams must be time-ordered) -------
  virtual void on_rx(NodeId id, TimeNs ts, std::span<const Packet> batch) = 0;
  virtual void on_tx(NodeId id, NodeId peer, TimeNs ts,
                     std::span<const Packet> batch) = 0;

  /// Feed raw wire-format bytes (chunk boundaries arbitrary; partial
  /// records are buffered).
  virtual void feed_bytes(std::span<const std::byte> bytes) = 0;

  /// Select the wire framing for subsequent feed_bytes data (a v2 trace
  /// file header switches to kFramed).
  virtual void set_wire_framing(collector::WireFraming framing) = 0;

  /// Close and diagnose every window whose watermark coverage (or idle
  /// timeout) allows it. Cheap when nothing is closable.
  virtual std::vector<WindowResult> poll() = 0;

  /// End of stream: finalize decode, then close every remaining window
  /// that could contain a victim, regardless of watermarks.
  virtual std::vector<WindowResult> finish() = 0;
};

struct OnlineStats {
  std::uint64_t batches_ingested{0};
  std::uint64_t packets_ingested{0};
  /// Batches older than their lane's newest batch, or than the newest
  /// closed window's end + slack (only possible after an idle-forced close
  /// or with out-of-order streams) — dropped, never diagnosed.
  std::uint64_t late_dropped_batches{0};
  /// Batches dropped by the max_retained_batches backpressure policy.
  std::uint64_t backpressure_dropped_batches{0};
  /// Producer-side ring overruns observed via RingCollector::dropped_records.
  std::uint64_t ring_dropped_records{0};
  /// Records rejected by wire decode validation (sum over the per-category
  /// counters in decode_stats()); only byte-fed ingestion can raise it.
  std::uint64_t wire_decode_dropped{0};
  std::uint64_t windows_closed{0};
  std::uint64_t windows_idle_forced{0};
  /// Closed windows whose view held no records (no diagnosis run).
  std::uint64_t windows_skipped_empty{0};
  std::size_t retained_batches{0};
  /// Bytes of the store's live lane records (batch records, IPIDs,
  /// five-tuples); see StreamStore::retained_bytes.
  std::size_t retained_bytes{0};
  DurationNs retained_span_ns{0};
  /// Bytes of the persistent reconstruction's lanes, streams, journeys and
  /// timelines, and its live journeys (see trace::Reconstruction).
  std::size_t reconstruction_bytes{0};
  std::size_t live_journeys{0};
};

/// Registry handles of the streaming stage (online.*), resolved once per
/// process.
struct OnlineMetrics;

class OnlineEngine : public StreamTarget {
 public:
  OnlineEngine(trace::GraphView graph, std::vector<RatePerNs> peak_rates,
               OnlineOptions opts = {});

  void register_node(NodeId id, bool full_flow) override;
  void on_rx(NodeId id, TimeNs ts, std::span<const Packet> batch) override;
  void on_tx(NodeId id, NodeId peer, TimeNs ts,
             std::span<const Packet> batch) override;

  /// Bytes are validated per OnlineOptions::decode: lenient faults are
  /// counted (decode_stats()) and skipped past; strict faults throw
  /// collector::DecodeError.
  void feed_bytes(std::span<const std::byte> bytes) override;

  /// Only legal while no partial record is buffered (throws
  /// std::logic_error otherwise).
  void set_wire_framing(collector::WireFraming framing) override;

  /// Fault accounting of the byte-fed ingestion path.
  const collector::DecodeStats& decode_stats() const {
    return decoder_.stats();
  }

  /// Drain up to `max_bytes` from an external-drain RingCollector and
  /// ingest them; also snapshots the ring's producer-side drop counter
  /// into stats(). Returns bytes drained.
  std::size_t drain_ring(collector::RingCollector& ring,
                         std::size_t max_bytes = 1 << 16);

  std::vector<WindowResult> poll() override;

  /// Also finalizes the wire decoder: a buffered partial record becomes a
  /// truncated_tail fault before the final window sweep.
  std::vector<WindowResult> finish() override;

  /// Stats snapshot (retained_* recomputed at call time).
  OnlineStats stats() const;

  const CulpritAggregator& aggregator() const { return *agg_; }
  const WindowManager& windows() const { return wm_; }
  /// Effective history (after derivation when options.history_ns == 0).
  DurationNs history_ns() const { return history_; }
  /// The persistent reconstruction; between polls it holds exactly the
  /// committed state.
  const trace::Reconstruction& reconstruction() const { return recon_; }
  /// The record store the reconstruction reads.
  const StreamStore& store() const { return store_; }

 private:
  /// Lets a test move the engine's numbering next to 2^32.
  friend struct EngineTestPeer;

  void ingest(collector::Direction dir, NodeId node, NodeId peer, TimeNs ts,
              std::span<const Packet> pkts);
  std::vector<WindowResult> close_ready(bool finishing);

  /// Records a window's diagnosis may touch lie in [view_lo, view_hi].
  TimeNs view_lo(const WindowBounds& b) const { return b.start - history_; }
  TimeNs view_hi(const WindowBounds& b) const {
    return b.end + opts_.slack_ns;
  }

  /// Extend the reconstruction over the records up to view_hi(b), diagnose
  /// the victims anchored inside `b` (skipped and counted when the view
  /// holds no record), and discard the speculative tail.
  WindowResult diagnose(const WindowBounds& b);

  /// Publish a closed window onto the introspection hub: a /windows board
  /// note always, plus rendered /explain entries when the window carries
  /// provenances. No-op without a hub. Called once per closed window —
  /// including skipped-empty ones, so the board has no gaps.
  void publish(const WindowResult& res) const;

  OnlineOptions opts_;
  trace::GraphView graph_;
  std::vector<RatePerNs> peak_rates_;
  DurationNs history_;
  StreamStore store_;
  trace::Reconstruction recon_;
  /// The analysis pool of both stages, built once (nullptr when both run
  /// sequentially).
  std::unique_ptr<ThreadPool> pool_;
  /// Records older than this are late: the newest closed window's
  /// end + slack.
  TimeNs floor_{std::numeric_limits<TimeNs>::min()};
  WindowManager wm_;
  std::unique_ptr<CulpritAggregator> agg_;
  collector::WireCallbackDecoder decoder_;
  /// The only per-record counts. The registry's ingest counters are
  /// brought up to them at the end of each poll()/finish(); `counted_`
  /// holds the counts they were last brought to.
  OnlineStats stats_;
  OnlineStats counted_;
  /// Resolved once, so ingesting a record touches neither the registry nor
  /// the recorder's global lookup.
  OnlineMetrics& metrics_;
  obs::TraceRecorder& recorder_;
  /// Highest window index announced with a "window.open" trace instant.
  std::int64_t trace_opened_through_{-1};
};

}  // namespace microscope::online
